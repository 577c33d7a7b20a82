package kvio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Run is the one in-memory sorted run of both engines: Hadoop's
// kvbuffer (the wire bytes of every pair, one contiguous arena in
// arrival order) and kvmeta (a fixed-width index over it). It is what a
// Hadoop map task collects into, what a DataMPI A task caches received
// blocks in, what the DataMPI combiner groups a Send Partition List
// block in, and where a Hadoop reduce task copies its segments to.
//
// Sort permutes the index only, under the caller's comparison; the run
// then writes its pairs out of the arena in index order, or is merged
// as a Source. Nothing in the arena or the index holds a pointer, so the
// collector sees a handful of objects however many pairs a run holds.
// Runs come from a process-wide pool (GetRun) and go back to it with
// Release, keeping their capacity across spills, tasks and jobs.
type Run struct {
	arena []byte     // wire-encoded pairs (and raw segments) in arrival order
	index []RunEntry // one entry per appended pair
	vals  [][]byte   // the values of the current group, reused across groups

	out *bufio.Writer // the file being written, Reset per Begin
	n   int64         // bytes written to it so far
	enc []byte        // wire scratch for pairs not written out of the arena
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
// keeps its capacity and nothing else: no pair, no file. Every pair and
// segment cut from the run is dead once it is released.
func (r *Run) Release() {
	r.Reset()
	if r.out != nil {
		r.out.Reset(nil)
	}
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

// Sort orders the index by cmp, the caller's ordering contract; the
// arena does not move. A key carrying thousands of values costs
// O(n log n) comparisons, where the []KV sort this replaced spent
// O(n²) on its values (kvio.Sort's equal-key insertion sort).
func (r *Run) Sort(cmp func(x, y RunEntry) int) { slices.SortFunc(r.index, cmp) }

// ByKeyValue is DataMPI's order: key bytes, then value bytes, so the
// result is a pure function of the pair multiset (the tie-break that
// makes reduce-side float partial sums reproducible whatever order the
// senders' blocks arrived in). Exact duplicates compare equal: their
// bytes are the same, so whichever order the sort leaves them in, what
// is written and merged is too, and pdqsort partitions a run of equal
// elements in linear time.
func (r *Run) ByKeyValue(x, y RunEntry) int {
	if c := bytes.Compare(r.Key(x), r.Key(y)); c != 0 {
		return c
	}
	return bytes.Compare(r.Value(x), r.Value(y))
}

// ByPartKey is Hadoop's order: partition tag, then key bytes, then
// arrival. The pairs of one key keep their emission order, which a
// combiner's float sums depend on; the arrival tie-break makes the
// comparison total, so the unstable sort has one result.
func (r *Run) ByPartKey(x, y RunEntry) int {
	if x.Part != y.Part {
		return x.Part - y.Part
	}
	if c := bytes.Compare(r.Key(x), r.Key(y)); c != 0 {
		return c
	}
	return x.koff - y.koff
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

// Begin points the run's writer at w, the run file about to be written.
// The writer's buffer is pooled with the run.
func (r *Run) Begin(w io.Writer) {
	if r.out == nil {
		r.out = bufio.NewWriterSize(w, 64<<10)
	} else {
		r.out.Reset(w)
	}
	r.n = 0
}

// Write writes wire bytes (typically Wire of an entry) to the file.
func (r *Run) Write(p []byte) error {
	n, err := r.out.Write(p)
	r.n += int64(n)
	return err
}

// WriteKV encodes one pair to the file.
func (r *Run) WriteKV(key, value []byte) error {
	r.enc = AppendKV(r.enc[:0], key, value)
	return r.Write(r.enc)
}

// Flush drains the writer's buffer into the file.
func (r *Run) Flush() error { return r.out.Flush() }

// Written is the number of bytes written since Begin.
func (r *Run) Written() int64 { return r.n }

// CreateRunFile creates a run file in dir: the first step of the one
// lifecycle every sorted run on local disk has — created here, written
// through a Run, then read back in place or promoted as it stands (a
// Hadoop task's lone spill becomes its file.out), and finally handed to
// DiscardRunFile, on success and on every failure path alike.
func CreateRunFile(dir, pattern string) (*os.File, error) {
	return os.CreateTemp(dir, pattern)
}

// DiscardRunFile closes and deletes a run file; nil is a no-op. A
// failure only leaks a temp file, so it is not reported.
func DiscardRunFile(f *os.File) {
	if f == nil {
		return
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
}
