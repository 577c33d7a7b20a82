package kvio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Run is the one in-memory sorted run of both engines: Hadoop's
// kvbuffer (the wire bytes of every pair, one contiguous arena in
// arrival order) and kvmeta (a fixed-width index over it). It is what a
// Hadoop map task collects into, what a DataMPI A task caches received
// blocks in, and what the DataMPI combiner groups a Send Partition List
// block in. It is also every sorted run either engine writes out: a
// Hadoop spill or map output (file.out), and a DataMPI A-side spill,
// are runs appended to with AppendWire or AppendWireKV and read back
// through Bytes. No run is ever a host file: the model charges disk
// time from the byte counts, not from a file.
//
// The sorts (SortByKeyValue, SortByPartKey) permute the index only;
// the run then copies its pairs out of the arena in index order, or is
// merged as a Source. They are one stable MSD radix sort over the
// index, and they order it exactly as the comparison of the same name
// (ByKeyValue, ByPartKey) would, which stays the definition of each
// order. Nothing in the arena or the index holds a pointer, so the
// collector sees a handful of objects however many pairs a run holds.
// Runs come from a process-wide pool (GetRun) and go back to it with
// Release, keeping their capacity — the sort's working memory among
// it — across spills, tasks and jobs.
type Run struct {
	arena []byte     // wire-encoded pairs (and raw segments) in arrival order
	index []RunEntry // one entry per appended pair
	vals  [][]byte   // the values of the current group, reused across groups

	// The radix sort's working memory, as long as the index once used.
	// The counts live here, not on the stack: a 2 KiB frame would grow
	// the stack of every fresh task goroutine that sorts.
	scratch []RunEntry // each pass distributes a bucket here, then copies it back
	syms    []uint16   // each entry's symbol at its bucket's depth
	pending []bucket   // buckets still to sort
	count   [257]int   // a pass's count, then offset, of each symbol
}

// RunEntry locates one pair in a Run's arena. The pair's wire bytes
// surround the key: length varints sit just before koff and between key
// and value.
type RunEntry struct {
	Part int // the caller's tag: Hadoop's reduce partition, 0 elsewhere
	koff int // key offset; arrival order, since the arena only grows
	klen int
	vlen int
}

var (
	runPool sync.Pool
	runsOut atomic.Int64
)

// GetRun takes an empty run from the pool.
func GetRun() *Run {
	runsOut.Add(1)
	if r, _ := runPool.Get().(*Run); r != nil {
		return r
	}
	return new(Run)
}

// Release empties the run and hands it back to the pool. The pooled run
// keeps its capacity and nothing else. Every pair and segment cut from
// the run is dead once it is released.
func (r *Run) Release() {
	r.Reset()
	runsOut.Add(-1)
	runPool.Put(r)
}

// RunsOutstanding is the number of runs taken with GetRun and not yet
// released, process-wide. Leak tests read it before and after a job.
func RunsOutstanding() int64 { return runsOut.Load() }

// Reset drops every pair and segment, keeping the capacity.
func (r *Run) Reset() {
	r.arena, r.index = r.arena[:0], r.index[:0]
}

// Size is the arena's length: the wire size of every pair appended
// plus every segment grown since the last Reset.
func (r *Run) Size() int { return len(r.arena) }

// Len is the number of pairs in the index.
func (r *Run) Len() int { return len(r.index) }

// Append encodes one pair into the arena, tagged with part. Key and
// value are copied; the caller may reuse both.
func (r *Run) Append(part int, key, value []byte) {
	r.arena = binary.AppendUvarint(r.arena, uint64(len(key)))
	koff := len(r.arena)
	r.arena = append(r.arena, key...)
	r.arena = binary.AppendUvarint(r.arena, uint64(len(value)))
	r.arena = append(r.arena, value...)
	r.index = append(r.index, RunEntry{Part: part, koff: koff, klen: len(key), vlen: len(value)})
}

// AppendBlock copies a block of wire-encoded pairs into the arena as it
// stands and indexes each pair (tag 0). The block is validated by
// CountPairs first, so a damaged block fails with CountPairs' error and
// leaves the run as it was. It returns the number of pairs appended.
func (r *Run) AppendBlock(block []byte) (int, error) {
	n, err := CountPairs(block)
	if err != nil {
		return 0, err
	}
	base := len(r.arena)
	r.arena = append(r.arena, block...)
	r.index = slices.Grow(r.index, n)
	for pos := 0; pos < len(block); {
		kl, w := headerAt(block, pos)
		koff := pos + w
		vl, w := headerAt(block, koff+kl)
		pos = koff + kl + w + vl
		r.index = append(r.index, RunEntry{koff: base + koff, klen: kl, vlen: vl})
	}
	return n, nil
}

// headerAt reads the length varint at pos of framing CountPairs has
// already proved (same single-byte fast path).
func headerAt(buf []byte, pos int) (l, w int) {
	if b := buf[pos]; b < 0x80 {
		return int(b), 1
	}
	v, w := binary.Uvarint(buf[pos:])
	return int(v), w
}

// Grow extends the arena by n bytes that no index entry covers — raw
// segments the caller fills and cuts — and returns them. They are valid
// until the next Append, AppendBlock or Grow, which may move the arena:
// grow once for every segment that must coexist.
func (r *Run) Grow(n int) []byte {
	off := len(r.arena)
	r.arena = slices.Grow(r.arena, n)[:off+n]
	return r.arena[off : off+n : off+n]
}

// ByKeyValue is DataMPI's order: key bytes, then value bytes, so the
// result is a pure function of the pair multiset (the tie-break that
// makes reduce-side float partial sums reproducible whatever order the
// senders' blocks arrived in). Exact duplicates compare equal: their
// bytes are the same, so whichever order a sort leaves them in, what is
// written and merged is too.
func (r *Run) ByKeyValue(x, y RunEntry) int {
	if c := bytes.Compare(r.Key(x), r.Key(y)); c != 0 {
		return c
	}
	return bytes.Compare(r.Value(x), r.Value(y))
}

// ByPartKey is Hadoop's order: partition tag, then key bytes, then
// arrival. The pairs of one key keep their emission order, which a
// combiner's float sums depend on; the arrival tie-break makes the
// comparison total, so the order has one result.
func (r *Run) ByPartKey(x, y RunEntry) int {
	if x.Part != y.Part {
		return x.Part - y.Part
	}
	if c := bytes.Compare(r.Key(x), r.Key(y)); c != 0 {
		return c
	}
	return x.koff - y.koff
}

// SortByKeyValue orders the index by ByKeyValue; the arena does not
// move. The radix sort reads each pair as a string of 257 symbols —
// key byte b is b+1, 0 ends the key, the value follows on the same
// scheme and 0 ends it too — so entries still sharing a bucket past
// the value's end are byte-identical pairs.
func (r *Run) SortByKeyValue() {
	r.readySort()
	r.pending = append(r.pending, bucket{0, len(r.index), 0, false})
	r.sortPending(true)
}

// SortByPartKey orders the index by ByPartKey; the arena does not
// move. One counting pass on Part (Hadoop's own partition-first order)
// comes first, then each partition's keys are radix-sorted, read as
// SortByKeyValue reads them up to the key's end. The passes are stable
// and the index is in arrival order as appended, so equal keys keep
// their arrival order; a bucket of equal keys that is not (the index
// was sorted before) is put back in arrival order.
func (r *Run) SortByPartKey() {
	r.readySort()
	r.sortByTag(0, len(r.index), false)
	for lo := 0; lo < len(r.index); {
		hi := lo + 1
		for hi < len(r.index) && r.index[hi].Part == r.index[lo].Part {
			hi++
		}
		r.pending = append(r.pending, bucket{lo, hi, 0, false})
		lo = hi
	}
	r.sortPending(false)
}

// sortCutoff is the bucket size at and below which the radix sort
// finishes a bucket by insertion under the order's comparison.
const sortCutoff = 24

// bucket is a stretch of the index, [lo, hi), whose entries agree on
// every symbol before depth; equal ones read as the same string.
type bucket struct {
	lo, hi, depth int
	equal         bool
}

// readySort sizes the sort's working memory to the index. A warm run's
// fits already, so its sort allocates nothing.
func (r *Run) readySort() {
	n := len(r.index)
	r.scratch = slices.Grow(r.scratch[:0], n)[:n]
	r.syms = slices.Grow(r.syms[:0], n)[:n]
	r.pending = r.pending[:0]
}

// sortPending sorts every pending bucket, by (key, value) when value is
// set and by (key, arrival) when not.
func (r *Run) sortPending(value bool) {
	for len(r.pending) > 0 {
		b := r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		if b.equal {
			r.finishEqual(b.lo, b.hi, value)
		} else {
			r.sortBucket(b, value)
		}
	}
}

// sortBucket sorts one bucket: by insertion when it is small; else it
// skips the symbols all its entries share, distributes the entries
// stably by their first differing symbol, and pushes the sub-buckets
// that still hold more than one entry.
func (r *Run) sortBucket(s bucket, value bool) {
	if s.hi-s.lo <= sortCutoff {
		r.insertionSort(s.lo, s.hi, s.depth, value)
		return
	}
	idx, syms := r.index[s.lo:s.hi], r.syms[s.lo:s.hi]
	d := s.depth
	count := &r.count
	clear(count[:])
	for {
		for i, e := range idx {
			c := r.symbol(e, d)
			syms[i] = c
			count[c]++
		}
		c := syms[0]
		if count[c] != len(idx) {
			break
		}
		count[c] = 0
		switch {
		case c != 0:
			d += r.commonPrefix(idx, d)
		case ends(idx[0], d, value):
			r.finishEqual(s.lo, s.hi, value)
			return
		default:
			d++ // every key ends here: on into the values
		}
	}
	pos := 0
	for c := range count {
		pos, count[c] = pos+count[c], pos
	}
	scratch := r.scratch[s.lo:s.hi]
	for i, e := range idx {
		scratch[count[syms[i]]] = e
		count[syms[i]]++
	}
	copy(idx, scratch)
	// count[c] is now where bucket c ends.
	start := 0
	for c, end := range count {
		if end-start > 1 {
			equal := c == 0 && ends(idx[start], d, value)
			r.pending = append(r.pending, bucket{s.lo + start, s.lo + end, d + 1, equal})
		}
		start = end
	}
}

// symbol is e's symbol at depth d: key byte b is b+1 and 0 ends the
// key; past it the value follows the same way, and 0 ends it too.
func (r *Run) symbol(e RunEntry, d int) uint16 {
	if d < e.klen {
		return uint16(r.arena[e.koff+d]) + 1
	}
	if d -= e.klen + 1; d < 0 || d >= e.vlen {
		return 0
	}
	return uint16(r.arena[e.koff+e.klen+uvarintLen(uint64(e.vlen))+d]) + 1
}

// ends reports whether a 0 symbol at depth d ends the string the order
// reads: the key's end under ByPartKey, the value's under ByKeyValue.
func ends(e RunEntry, d int, value bool) bool {
	return !value || d > e.klen
}

// commonPrefix is how many symbols from depth d all of idx share,
// given that they share the symbol at d and it is not 0: all of them
// are then inside the key, or all inside the value.
func (r *Run) commonPrefix(idx []RunEntry, d int) int {
	ref := r.tail(idx[0], d)
	for _, e := range idx[1:] {
		if ref = ref[:prefixLen(ref, r.tail(e, d))]; len(ref) == 1 {
			break
		}
	}
	return len(ref)
}

// tail is what is left of e's key, or past the key of its value, from
// depth d on.
func (r *Run) tail(e RunEntry, d int) []byte {
	if d < e.klen {
		return r.Key(e)[d:]
	}
	return r.Value(e)[d-e.klen-1:]
}

// prefixLen is the length of a and b's common prefix, eight bytes a
// step.
func prefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// finishEqual ends a bucket whose entries read as the same string:
// byte-identical pairs under ByKeyValue, in any order; one key under
// ByPartKey, in arrival order.
func (r *Run) finishEqual(lo, hi int, value bool) {
	if !value {
		r.sortByTag(lo, hi, true)
	}
}

// insertionSort orders index[lo:hi], whose entries share every symbol
// before depth d, under the order's comparison; it compares from d on.
func (r *Run) insertionSort(lo, hi, d int, value bool) {
	idx := r.index
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && r.less(idx[j], idx[j-1], d, value); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// less is ByKeyValue(x, y) < 0, or ByPartKey's, for two entries of one
// partition that share every symbol before depth d.
func (r *Run) less(x, y RunEntry, d int, value bool) bool {
	if d > x.klen { // one key: d is inside the values
		d -= x.klen + 1
		return bytes.Compare(r.Value(x)[d:], r.Value(y)[d:]) < 0
	}
	if c := bytes.Compare(r.Key(x)[d:], r.Key(y)[d:]); c != 0 {
		return c < 0
	}
	if value {
		return bytes.Compare(r.Value(x), r.Value(y)) < 0
	}
	return x.koff < y.koff
}

// sortByTag orders index[lo:hi] stably by Part, or with arrival set by
// koff: one counting pass per byte in which the tags differ, least
// significant first. Tags already in order cost one read.
func (r *Run) sortByTag(lo, hi int, arrival bool) {
	idx := r.index[lo:hi]
	if len(idx) < 2 {
		return
	}
	tag := func(e RunEntry) uint64 {
		if arrival {
			return uint64(e.koff)
		}
		return uint64(e.Part) ^ 1<<63 // signed order as unsigned
	}
	lowest, highest, sorted := tag(idx[0]), tag(idx[0]), true
	for i := 1; i < len(idx); i++ {
		t := tag(idx[i])
		sorted = sorted && t >= tag(idx[i-1])
		lowest, highest = min(lowest, t), max(highest, t)
	}
	if sorted {
		return
	}
	scratch := r.scratch[lo:hi]
	count := r.count[:256]
	for shift := 0; shift < 64 && (highest-lowest)>>shift != 0; shift += 8 {
		clear(count)
		for _, e := range idx {
			count[byte((tag(e)-lowest)>>shift)]++
		}
		pos := 0
		for c := range count {
			pos, count[c] = pos+count[c], pos
		}
		for _, e := range idx {
			c := byte((tag(e) - lowest) >> shift)
			scratch[count[c]] = e
			count[c]++
		}
		copy(idx, scratch)
	}
}

// Entries is the index in its current order. It is the run's own slice:
// valid until the next append or Reset.
func (r *Run) Entries() []RunEntry { return r.index }

// Key returns e's key bytes, capped so an append by a combiner cannot
// reach the next pair.
func (r *Run) Key(e RunEntry) []byte {
	return r.arena[e.koff : e.koff+e.klen : e.koff+e.klen]
}

// Value returns e's value bytes, capped like Key.
func (r *Run) Value(e RunEntry) []byte {
	off := e.koff + e.klen + uvarintLen(uint64(e.vlen))
	return r.arena[off : off+e.vlen : off+e.vlen]
}

// Wire returns e's encoded bytes, exactly what AppendKV made of it.
func (r *Run) Wire(e RunEntry) []byte {
	end := e.koff + e.klen + uvarintLen(uint64(e.vlen)) + e.vlen
	return r.arena[e.koff-uvarintLen(uint64(e.klen)) : end : end]
}

// Groups calls fn once per run of equal keys in entries, which must be
// sorted so that equal keys are adjacent, with the key and the group's
// values in index order. Both alias the arena; values is reused by the
// next call. The first error from fn ends the walk.
func (r *Run) Groups(entries []RunEntry, fn func(key []byte, values [][]byte) error) error {
	for i := 0; i < len(entries); {
		key := r.Key(entries[i])
		r.vals = append(r.vals[:0], r.Value(entries[i]))
		j := i + 1
		for j < len(entries) && bytes.Equal(r.Key(entries[j]), key) {
			r.vals = append(r.vals, r.Value(entries[j]))
			j++
		}
		if err := fn(key, r.vals); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Source walks the pairs in index order as a merge input. The pairs
// alias the arena.
func (r *Run) Source() Source { return &runSource{r: r} }

type runSource struct {
	r *Run
	i int
}

func (s *runSource) Next() (KV, error) {
	if s.i >= len(s.r.index) {
		return KV{}, io.EOF
	}
	e := s.r.index[s.i]
	s.i++
	return KV{Key: s.r.Key(e), Value: s.r.Value(e)}, nil
}

// Reserve makes room for n more arena bytes at once, so a run about to
// take a known amount of output (a spill: the sort buffer's size; a
// merge: the sum of its inputs) is not grown by doubling.
func (r *Run) Reserve(n int) { r.arena = slices.Grow(r.arena, n) }

// AppendWire appends wire bytes (typically Wire of another run's entry)
// to the arena without indexing them: the run is then an output, read
// back through Bytes.
func (r *Run) AppendWire(p []byte) { r.arena = append(r.arena, p...) }

// AppendWireKV encodes one pair onto the arena without indexing it, as
// AppendWire does with wire bytes.
func (r *Run) AppendWireKV(key, value []byte) { r.arena = AppendKV(r.arena, key, value) }

// Bytes is the arena: every pair and segment appended since the last
// Reset, in arrival order, capped so an append by the caller cannot
// reach past it. Its contents stay put until the run is Reset or
// released.
func (r *Run) Bytes() []byte { return r.arena[:len(r.arena):len(r.arena)] }
