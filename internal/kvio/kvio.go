// Package kvio provides the key-value wire encoding, sorted-run file
// format and streaming k-way merge shared by both execution engines'
// shuffle paths (DataMPI partitions and Hadoop spill files).
package kvio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// KV is one key-value pair. Keys are compared as raw bytes, so callers
// use an order-preserving key encoding when sorted grouping matters.
type KV struct {
	Key   []byte
	Value []byte
}

// WireSize is the encoded size of the pair (lengths + payloads).
func (p KV) WireSize() int {
	return uvarintLen(uint64(len(p.Key))) + len(p.Key) +
		uvarintLen(uint64(len(p.Value))) + len(p.Value)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendKV appends the wire encoding of one pair to buf.
func AppendKV(buf []byte, key, value []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	return buf
}

// CountPairs scans buf's framing without materialising pairs and
// returns how many pairs it holds. The scan only walks varint headers
// (payloads are skipped), so it is cheap relative to decoding and lets
// DecodeAll size its output exactly instead of growing by appends.
func CountPairs(buf []byte) (int, error) {
	n := 0
	pos := 0
	for pos < len(buf) {
		for f := 0; f < 2; f++ {
			// Single-byte varint fast path: shuffle keys and values are
			// almost always shorter than 128 bytes, and binary.Uvarint's
			// call + loop overhead dominates this scan otherwise.
			var l uint64
			var w int
			if pos < len(buf) && buf[pos] < 0x80 {
				l, w = uint64(buf[pos]), 1
			} else {
				l, w = binary.Uvarint(buf[pos:])
			}
			if w <= 0 {
				return 0, fmt.Errorf("kvio: bad length at %d", pos)
			}
			pos += w
			// Compared unsigned: a length past 2⁶³ must not wrap.
			if l > uint64(len(buf)-pos) {
				return 0, fmt.Errorf("kvio: truncated payload at %d", pos)
			}
			pos += int(l)
		}
		n++
	}
	return n, nil
}

// DecodeAll decodes every pair in buf. The returned slices alias buf.
func DecodeAll(buf []byte) ([]KV, error) {
	return DecodeAllInto(nil, buf)
}

// DecodeAllInto decodes every pair in buf, appending to dst (usually
// `scratch[:0]`) so a caller on a hot loop can reuse one backing array
// across calls instead of re-growing a fresh slice per message. The
// returned KV slices alias buf; reuse dst only after the previous
// result is dead. A header-only pre-scan both validates the framing
// and sizes dst exactly, so a cold call costs one allocation and the
// decode loop itself carries no error branches.
//
// No shuffle path decodes into []KV any more (both engines hold pairs
// in a Run), so nothing outside tests reuses dst: DecodeAllInto is kept
// for the frozen end-to-end replay (benchmarks/e2e/replay.go) and the
// checkpoint reader, both through DecodeAll, and for tests. It folds
// into DecodeAll once the replay runs the production entry points
// (ROADMAP item 2(a)).
func DecodeAllInto(dst []KV, buf []byte) ([]KV, error) {
	n, err := CountPairs(buf)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	if base+n > cap(dst) {
		grown := make([]KV, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	pos := 0
	for i := base; i < base+n; i++ {
		// Same single-byte varint fast path as CountPairs; the pre-scan
		// proved the framing, so header reads here cannot run off buf.
		var kl, vl uint64
		var w int
		if b := buf[pos]; b < 0x80 {
			kl, w = uint64(b), 1
		} else {
			kl, w = binary.Uvarint(buf[pos:])
		}
		pos += w
		key := buf[pos : pos+int(kl)]
		pos += int(kl)
		if b := buf[pos]; b < 0x80 {
			vl, w = uint64(b), 1
		} else {
			vl, w = binary.Uvarint(buf[pos:])
		}
		pos += w
		val := buf[pos : pos+int(vl)]
		pos += int(vl)
		// Field stores, not a struct move: a KV literal assignment
		// compiles to typedmemmove + bulk write barrier, which shows up
		// as ~25% of decode time under profile.
		d := &dst[i]
		d.Key = key
		d.Value = val
	}
	return dst, nil
}

// Sort orders pairs by key bytes, breaking key ties by value bytes so
// the result is a pure function of the pair multiset. Reducers receive
// pairs from concurrent senders in arrival order; a content-determined
// total order makes reduce-side merges (float partial sums in
// particular) reproducible run to run. Large inputs take a byte-wise
// MSD radix path (stable counting sort per key byte into pooled
// scratch); small inputs and small radix buckets fall back to binary
// insertion, which beats the distribution pass under ~32 pairs.
//
// Sort is kept only for the frozen end-to-end replay
// (benchmarks/e2e/replay.go) and for tests, and goes once the replay
// runs the production entry points (ROADMAP item 2(a)). Production
// sorts a Run with Run.Sort: its equal-key tie-break here
// (sortByValue) is an insertion sort, quadratic in the number of
// values one key carries.
func Sort(kvs []KV) {
	if len(kvs) < 2 {
		return
	}
	if len(kvs) < radixMinLen {
		insertionSortKV(kvs, 0)
		return
	}
	sp := radixScratch.Get().(*[]KV)
	if cap(*sp) < len(kvs) {
		*sp = make([]KV, len(kvs))
	}
	radixSortKV(kvs, (*sp)[:len(kvs)], 0)
	// Drop pair references before pooling so the scratch array does not
	// pin decoded shuffle buffers across quiescent periods.
	clear((*sp)[:len(kvs)])
	radixScratch.Put(sp)
}

// radixMinLen is the slice length below which insertion sort wins over
// a 256-bucket counting pass (the pass costs ~256 writes regardless of
// input size).
const radixMinLen = 32

var radixScratch = sync.Pool{New: func() any { p := make([]KV, 0); return &p }}

// radixSortKV stably sorts a by key bytes from position depth onward.
// Bucket 0 holds keys exhausted at this depth (shorter key sorts
// first, matching bytes.Compare); buckets 1..256 hold byte values
// 0..255. One counting pass distributes into scratch, the result is
// copied back, and each multi-element byte bucket recurses one byte
// deeper. Runs of a shared prefix advance depth without
// redistributing.
func radixSortKV(a, scratch []KV, depth int) {
	for {
		if len(a) < radixMinLen {
			insertionSortKV(a, depth)
			return
		}
		var counts [257]int
		for _, p := range a {
			counts[bucketOf(p.Key, depth)]++
		}
		// A single fully-populated byte bucket means every key shares
		// this byte: descend without moving anything.
		if counts[0] == 0 {
			shared := -1
			for b := 1; b <= 256; b++ {
				if counts[b] == len(a) {
					shared = b
					break
				}
				if counts[b] != 0 {
					break
				}
			}
			if shared != -1 {
				depth++
				continue
			}
		}
		var offs [257]int
		sum := 0
		for b := 0; b <= 256; b++ {
			offs[b] = sum
			sum += counts[b]
		}
		starts := offs
		for _, p := range a {
			b := bucketOf(p.Key, depth)
			scratch[offs[b]] = p
			offs[b]++
		}
		copy(a, scratch)
		// Bucket 0 holds keys exhausted at this depth — within one
		// recursion path they are all equal, so order them by value.
		if counts[0] > 1 {
			sortByValue(a[:counts[0]])
		}
		for b := 1; b <= 256; b++ {
			if counts[b] > 1 {
				radixSortKV(a[starts[b]:starts[b]+counts[b]], scratch[starts[b]:starts[b]+counts[b]], depth+1)
			}
		}
		return
	}
}

func bucketOf(key []byte, depth int) int {
	if depth >= len(key) {
		return 0
	}
	return int(key[depth]) + 1
}

// insertionSortKV sorts a small slice comparing key suffixes from
// depth (every key is known ≥ depth bytes long at its call depth),
// breaking key ties by value bytes.
func insertionSortKV(a []KV, depth int) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i - 1
		for j >= 0 && kvAfter(a[j], p, depth) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = p
	}
}

// kvAfter reports whether x orders strictly after y under the
// (key-suffix, value) total order.
func kvAfter(x, y KV, depth int) bool {
	c := bytes.Compare(x.Key[depth:], y.Key[depth:])
	if c != 0 {
		return c > 0
	}
	return bytes.Compare(x.Value, y.Value) > 0
}

// sortByValue orders an equal-key run by value bytes. Runs are small
// (one pair per sender, typically), so insertion sort suffices.
func sortByValue(a []KV) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i - 1
		for j >= 0 && bytes.Compare(a[j].Value, p.Value) > 0 {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = p
	}
}

// Reader streams pairs back from a run.
type Reader struct {
	r *bufio.Reader
	// chunk is the tail of the current payload chunk: keys and values
	// are cut from its front and never rewritten, so a pair stays valid
	// for as long as the caller holds it (a Grouper keeps a whole
	// group's values across Next calls).
	chunk []byte
	grow  int // size of the next chunk
}

// Payload chunks start small so a short run wastes little and double up
// to readerChunkMax; a payload longer than that is read on its own.
const (
	readerChunkMin = 4 << 10
	readerChunkMax = 64 << 10
)

// NewReader wraps r for run input.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), grow: readerChunkMin}
}

// Next returns the next pair or io.EOF at run end. The pair's bytes are
// the caller's to keep: no later call touches them.
func (kr *Reader) Next() (KV, error) {
	kl, err := binary.ReadUvarint(kr.r)
	if err != nil {
		if err == io.EOF {
			return KV{}, io.EOF
		}
		return KV{}, fmt.Errorf("kvio: run key length: %w", err)
	}
	key, err := kr.payload(kl)
	if err != nil {
		return KV{}, fmt.Errorf("kvio: run truncated key: %w", err)
	}
	vl, err := binary.ReadUvarint(kr.r)
	if err != nil {
		return KV{}, fmt.Errorf("kvio: run truncated value length: %w", err)
	}
	val, err := kr.payload(vl)
	if err != nil {
		return KV{}, fmt.Errorf("kvio: run truncated value: %w", err)
	}
	return KV{Key: key, Value: val}, nil
}

// payload reads n bytes into memory no later call reuses.
func (kr *Reader) payload(n uint64) ([]byte, error) {
	if n > readerChunkMax {
		return kr.longPayload(n)
	}
	if uint64(len(kr.chunk)) < n {
		kr.chunk = make([]byte, max(uint64(kr.grow), n))
		kr.grow = min(2*kr.grow, readerChunkMax)
	}
	// Full slice expression: an append by the caller must not run into
	// the next pair's bytes.
	p := kr.chunk[:n:n]
	kr.chunk = kr.chunk[n:]
	_, err := io.ReadFull(kr.r, p)
	return p, err
}

// longPayload reads a payload larger than one chunk in steps no larger
// than what has already arrived (at least one chunk), so a header that
// lies about its length costs memory in proportion to the bytes really
// present, not to the claim.
func (kr *Reader) longPayload(n uint64) ([]byte, error) {
	var p []byte
	for uint64(len(p)) < n {
		step := min(n-uint64(len(p)), uint64(max(len(p), readerChunkMax)))
		have := len(p)
		//lint:ignore hivelint/hotalloc growing as bytes arrive is the bound: the final size is a claim the wire has not yet backed
		p = append(p, make([]byte, step)...)
		if _, err := io.ReadFull(kr.r, p[have:]); err != nil {
			if have > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return p, nil
}

// Source is one sorted stream feeding a k-way merge. A pair it returns
// stays valid while the consumer is still reading the source (a merge
// holds one head pair per source, a Grouper a whole group's values).
type Source interface {
	Next() (KV, error) // io.EOF when drained
}

// SliceSource adapts an in-memory sorted slice.
type SliceSource struct {
	KVs []KV
	i   int
}

var _ Source = (*SliceSource)(nil)

// Next implements Source.
func (s *SliceSource) Next() (KV, error) {
	if s.i >= len(s.KVs) {
		return KV{}, io.EOF
	}
	p := s.KVs[s.i]
	s.i++
	return p, nil
}

// WireSource walks the wire encoding of a sorted run held in memory,
// cutting each pair out of Buf when it is asked for — a decoded []KV
// costs 48 bytes a pair, this costs nothing. Pairs alias Buf, which
// must stay untouched until the last of them is dead. Callers that
// want a malformed run rejected before the first pair is consumed, or
// need the pair count, run CountPairs over Buf first; Next reports the
// same errors when it reaches the damage.
type WireSource struct {
	Buf []byte
	pos int
}

var _ Source = (*WireSource)(nil)

// Next implements Source.
func (s *WireSource) Next() (KV, error) {
	if s.pos >= len(s.Buf) {
		return KV{}, io.EOF
	}
	key, err := s.field()
	if err != nil {
		return KV{}, err
	}
	val, err := s.field()
	if err != nil {
		return KV{}, err
	}
	return KV{Key: key, Value: val}, nil
}

// field cuts one length-prefixed payload (same fast path and error
// text as CountPairs).
func (s *WireSource) field() ([]byte, error) {
	buf, pos := s.Buf, s.pos
	var l uint64
	var w int
	if pos < len(buf) && buf[pos] < 0x80 {
		l, w = uint64(buf[pos]), 1
	} else {
		l, w = binary.Uvarint(buf[pos:])
	}
	if w <= 0 {
		return nil, fmt.Errorf("kvio: bad length at %d", pos)
	}
	pos += w
	if l > uint64(len(buf)-pos) {
		return nil, fmt.Errorf("kvio: truncated payload at %d", pos)
	}
	s.pos = pos + int(l)
	return buf[pos:s.pos:s.pos], nil
}

// Merge performs a streaming k-way merge of sorted sources. Each
// source's head pair sits in a flat slice; the heap orders source
// indices, so advancing moves ints, not pairs.
type Merge struct {
	srcs  []Source
	heads []KV  // heads[i] is source i's next unmerged pair
	heap  []int // live source indices, least head first
	err   error // first source failure; the merge is dead after it
}

// NewMerge primes the merge with one pair from each source.
func NewMerge(sources []Source) (*Merge, error) {
	m := &Merge{
		srcs:  sources,
		heads: make([]KV, len(sources)),
		heap:  make([]int, 0, len(sources)),
	}
	for i, s := range sources {
		kv, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.heads[i] = kv
		m.heap = append(m.heap, i)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// less orders sources by (key, value, source index): the value
// tiebreak keeps the merged stream content-determined (the same total
// order Sort uses); the index only breaks exact duplicates.
func (m *Merge) less(a, b int) bool {
	x, y := &m.heads[a], &m.heads[b]
	if c := bytes.Compare(x.Key, y.Key); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(x.Value, y.Value); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *Merge) siftDown(i int) {
	h := m.heap
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && m.less(h[l], h[least]) {
			least = l
		}
		if r < len(h) && m.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Next returns the next pair in global key order, or io.EOF. A source
// error other than io.EOF is returned as is, now and on every later
// call: the stream is incomplete and must not be taken for drained.
func (m *Merge) Next() (KV, error) {
	if m.err != nil {
		return KV{}, m.err
	}
	if len(m.heap) == 0 {
		return KV{}, io.EOF
	}
	top := m.heap[0]
	out := m.heads[top]
	nxt, err := m.srcs[top].Next()
	switch {
	case err == nil:
		m.heads[top] = nxt
	case err == io.EOF:
		m.heads[top] = KV{}
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	default:
		m.err = err
		return KV{}, err
	}
	m.siftDown(0)
	return out, nil
}

// Grouper wraps a merged stream into key-grouped iteration.
type Grouper struct {
	src     Source
	next    KV // look-ahead: the first pair of the next group
	hasNext bool
	values  [][]byte // the current group's values, reused across groups
}

// NewGrouper wraps src (which must be globally key-sorted).
func NewGrouper(src Source) *Grouper { return &Grouper{src: src} }

// NextGroup returns the next key and all its values, or io.EOF. Both
// are valid until the next call, which reuses the values slice.
func (g *Grouper) NextGroup() ([]byte, [][]byte, error) {
	first := g.next
	if g.hasNext {
		g.hasNext = false
	} else {
		var err error
		first, err = g.src.Next()
		if err != nil {
			return nil, nil, err
		}
	}
	g.values = append(g.values[:0], first.Value)
	for {
		p, err := g.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(p.Key, first.Key) {
			g.next, g.hasNext = p, true
			break
		}
		g.values = append(g.values, p.Value)
	}
	return first.Key, g.values, nil
}
