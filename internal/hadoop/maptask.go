package hadoop

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// MapContext is the handle given to a map task body. Emit is the
// OutputCollector.collect analogue: pairs accumulate in the map-side
// sort buffer and are sorted and spilled to local disk when the buffer
// fills, exactly like Hadoop's MapOutputBuffer.
type MapContext struct {
	job     *Job
	taskID  int
	metrics *trace.Task

	buf        *collectBuffer // nil on a map-only job and once released
	spills     []*mapOutput
	emitCount  int64
	flushMarks []int64
}

// collectBuffer is the map-side sort buffer: Hadoop's kvbuffer (the
// serialized pairs, one contiguous arena) and kvmeta (a fixed-width
// index over it). Sorting permutes the index only, a spill writes pairs
// out of the arena in index order, and nothing in either holds a
// pointer, so the collector sees one object however many pairs a task
// emits. Buffers are recycled through collectBuffers across spills,
// tasks and jobs.
type collectBuffer struct {
	arena []byte   // wire-encoded pairs in emission order; len is Σ WireSize
	index []kvMeta // one entry per collected pair
	vals  [][]byte // the combiner's values argument, rebuilt per key
	enc   []byte   // wire scratch for pairs not written out of the arena

	out *bufio.Writer // the file being written, Reset per spill/file.out
	n   int64         // bytes written to it so far
}

// kvMeta locates one collected pair in the arena. The pair's wire
// bytes surround the key: length varints sit just before koff and
// between key and value.
type kvMeta struct {
	part int // reduce partition
	koff int // key offset; emission order, since the arena only grows
	klen int
	vlen int
}

var collectBuffers = sync.Pool{New: func() any {
	return &collectBuffer{out: bufio.NewWriterSize(nil, 64<<10)}
}}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// wire returns the pair's encoded bytes, value its value. Both are
// capped so an append by a combiner cannot reach the next pair.
func (b *collectBuffer) wire(e kvMeta) []byte {
	end := e.koff + e.klen + uvarintLen(e.vlen) + e.vlen
	return b.arena[e.koff-uvarintLen(e.klen) : end : end]
}

func (b *collectBuffer) key(e kvMeta) []byte {
	return b.arena[e.koff : e.koff+e.klen : e.koff+e.klen]
}

func (b *collectBuffer) value(e kvMeta) []byte {
	off := e.koff + e.klen + uvarintLen(e.vlen)
	return b.arena[off : off+e.vlen : off+e.vlen]
}

// begin points the writer at a new file.
func (b *collectBuffer) begin(f *os.File) {
	b.out.Reset(f)
	b.n = 0
}

func (b *collectBuffer) write(p []byte) error {
	n, err := b.out.Write(p)
	b.n += int64(n)
	return err
}

func (b *collectBuffer) writeKV(key, value []byte) error {
	b.enc = kvio.AppendKV(b.enc[:0], key, value)
	return b.write(b.enc)
}

// drain writes every pair of a merged stream. Only io.EOF ends the
// stream: any other error means pairs are missing, and the file must
// not be published.
func (b *collectBuffer) drain(src kvio.Source) error {
	for {
		kv, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("hadoop: merge spills: %w", err)
		}
		if err := b.writeKV(kv.Key, kv.Value); err != nil {
			return fmt.Errorf("hadoop: write map output: %w", err)
		}
	}
}

func (j *Job) newMapContext(taskID int) *MapContext {
	m := &MapContext{job: j, taskID: taskID, metrics: j.mapMetrics[taskID]}
	if j.cfg.NumReduces > 0 {
		m.buf = collectBuffers.Get().(*collectBuffer)
	}
	return m
}

// release hands the collect buffer back to the pool. The pooled buffer
// keeps its capacity and nothing else: no pair, no file.
func (m *MapContext) release() {
	b := m.buf
	if b == nil {
		return
	}
	m.buf = nil
	b.arena, b.index = b.arena[:0], b.index[:0]
	clear(b.vals[:cap(b.vals)])
	b.out.Reset(nil)
	collectBuffers.Put(b)
}

// TaskID returns the map task's index.
func (m *MapContext) TaskID() int { return m.taskID }

// NumReduces returns the job's reduce count.
func (m *MapContext) NumReduces() int { return m.job.cfg.NumReduces }

// Metrics exposes the task's trace record for engine-side counters.
func (m *MapContext) Metrics() *trace.Task { return m.metrics }

// Emit collects one intermediate pair. Key and value are copied into
// the sort buffer before Emit returns; the caller may reuse both.
func (m *MapContext) Emit(key, value []byte) error {
	if m.job.cfg.NumReduces == 0 {
		return errors.New("hadoop: Emit on a map-only job")
	}
	part := m.job.cfg.Partitioner(key, m.job.cfg.NumReduces)
	if part < 0 || part >= m.job.cfg.NumReduces {
		return fmt.Errorf("hadoop: partitioner returned %d for %d reduces", part, m.job.cfg.NumReduces)
	}
	b := m.buf
	start := len(b.arena)
	b.arena = binary.AppendUvarint(b.arena, uint64(len(key)))
	koff := len(b.arena)
	b.arena = append(b.arena, key...)
	b.arena = binary.AppendUvarint(b.arena, uint64(len(value)))
	b.arena = append(b.arena, value...)
	b.index = append(b.index, kvMeta{part: part, koff: koff, klen: len(key), vlen: len(value)})
	m.metrics.CollectSizes.Observe(len(key) + len(value))
	m.metrics.ShuffleOutPairs++
	m.metrics.PartitionBytes[part] += int64(len(b.arena) - start)
	m.emitCount++
	if len(b.arena) >= m.job.cfg.SortBufferBytes {
		return m.sortAndSpill()
	}
	return nil
}

// sortAndSpill sorts the buffer by (partition, key) and writes one spill
// run with a partition index, applying the combiner when configured.
func (m *MapContext) sortAndSpill() error {
	b := m.buf
	if len(b.index) == 0 {
		return nil
	}
	// Pairs of one key keep their emission order (a combiner's float
	// sums depend on it). The key offset is that order, so it makes the
	// comparison total and the sort need not be stable.
	arena := b.arena
	slices.SortFunc(b.index, func(x, y kvMeta) int {
		if x.part != y.part {
			return x.part - y.part
		}
		if c := bytes.Compare(arena[x.koff:x.koff+x.klen], arena[y.koff:y.koff+y.klen]); c != 0 {
			return c
		}
		return x.koff - y.koff
	})
	f, err := os.CreateTemp(m.job.cfg.SpillDir, "hadoop-spill-*.run")
	if err != nil {
		return fmt.Errorf("hadoop: create spill: %w", err)
	}
	sp := &mapOutput{file: f, offsets: make([]int64, m.job.cfg.NumReduces+1)}
	b.begin(f)
	i := 0
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		sp.offsets[p] = b.n
		j := i
		for j < len(b.index) && b.index[j].part == p {
			j++
		}
		if err := m.writePartition(b.index[i:j]); err != nil {
			sp.discard()
			return err
		}
		i = j
	}
	sp.offsets[m.job.cfg.NumReduces] = b.n
	if err := b.out.Flush(); err != nil {
		sp.discard()
		return fmt.Errorf("hadoop: flush spill: %w", err)
	}
	m.metrics.SpillCount++
	m.metrics.SpillBytes += b.n
	m.flushMarks = append(m.flushMarks, m.emitCount)
	m.spills = append(m.spills, sp)
	b.arena, b.index = b.arena[:0], b.index[:0]
	return nil
}

// writePartition writes one partition's sorted pairs, combining first
// when a combiner is configured. The combiner sees sub-slices of the
// arena, valid until it returns.
func (m *MapContext) writePartition(pairs []kvMeta) error {
	b := m.buf
	if m.job.cfg.Combiner == nil {
		for _, e := range pairs {
			if err := b.write(b.wire(e)); err != nil {
				return fmt.Errorf("hadoop: write spill: %w", err)
			}
		}
		return nil
	}
	i := 0
	for i < len(pairs) {
		key := b.key(pairs[i])
		b.vals = append(b.vals[:0], b.value(pairs[i]))
		j := i + 1
		for j < len(pairs) && bytes.Equal(b.key(pairs[j]), key) {
			b.vals = append(b.vals, b.value(pairs[j]))
			j++
		}
		m.metrics.CombineInPairs += int64(j - i)
		for _, v := range m.job.cfg.Combiner(key, b.vals) {
			if err := b.writeKV(key, v); err != nil {
				return fmt.Errorf("hadoop: write combined spill: %w", err)
			}
			m.metrics.CombineOutPairs++
		}
		i = j
	}
	return nil
}

// close runs the final spill and turns the task's spill runs into its
// partition-indexed output (Hadoop's file.out): several runs are
// merged, a single run already is that file and is promoted as it
// stands (MapTask.mergeParts renames a lone spill the same way).
func (m *MapContext) close() (*mapOutput, error) {
	if m.job.cfg.NumReduces == 0 {
		return nil, nil
	}
	if err := m.sortAndSpill(); err != nil {
		return nil, err
	}
	var mo *mapOutput
	switch len(m.spills) {
	case 0:
		mo = &mapOutput{offsets: make([]int64, m.job.cfg.NumReduces+1)}
	case 1:
		mo = m.spills[0]
	default:
		var err error
		if mo, err = m.mergeSpills(); err != nil {
			return nil, err
		}
	}
	m.metrics.ShuffleOutBytes = mo.offsets[m.job.cfg.NumReduces]
	m.metrics.MergeRuns = int64(len(m.spills))
	// Timeline reconstruction mirrors datampi: progress fraction at
	// each spill.
	for _, mark := range m.flushMarks {
		prog := 1.0
		if m.emitCount > 0 {
			prog = float64(mark) / float64(m.emitCount)
		}
		m.metrics.SendEvents = append(m.metrics.SendEvents, trace.SendEvent{
			Progress: prog,
			Bytes:    m.metrics.SpillBytes / int64(max(len(m.flushMarks), 1)),
		})
	}
	for _, sp := range m.spills {
		if sp != mo {
			sp.discard()
		}
	}
	m.spills = nil
	m.release()
	return mo, nil
}

// mergeSpills merges the spill runs partition by partition into a new
// file. Nothing is collected any more, so the arena holds the
// partition's segments while they are merged.
func (m *MapContext) mergeSpills() (*mapOutput, error) {
	out, err := os.CreateTemp(m.job.cfg.SpillDir, "hadoop-mapout-*.out")
	if err != nil {
		return nil, fmt.Errorf("hadoop: create map output: %w", err)
	}
	mo := &mapOutput{file: out, offsets: make([]int64, m.job.cfg.NumReduces+1)}
	b := m.buf
	b.begin(out)
	runs := make([]kvio.WireSource, len(m.spills))
	sources := make([]kvio.Source, 0, len(m.spills))
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		mo.offsets[p] = b.n
		total := 0
		for _, sp := range m.spills {
			total += sp.size(p)
		}
		rest := slices.Grow(b.arena[:0], total)[:total]
		b.arena = rest[:0] // keep what Grow allocated
		sources = sources[:0]
		for i, sp := range m.spills {
			n := sp.size(p)
			if n == 0 {
				continue
			}
			seg := rest[:n:n]
			rest = rest[n:]
			if err := sp.readPartition(p, seg); err != nil {
				mo.discard()
				return nil, fmt.Errorf("hadoop: read spill segment: %w", err)
			}
			if _, err := kvio.CountPairs(seg); err != nil {
				mo.discard()
				return nil, err
			}
			runs[i] = kvio.WireSource{Buf: seg}
			sources = append(sources, &runs[i])
		}
		merge, err := kvio.NewMerge(sources)
		if err == nil {
			err = b.drain(merge)
		}
		if err != nil {
			mo.discard()
			return nil, err
		}
	}
	mo.offsets[m.job.cfg.NumReduces] = b.n
	if err := b.out.Flush(); err != nil {
		mo.discard()
		return nil, fmt.Errorf("hadoop: flush map output: %w", err)
	}
	return mo, nil
}

// abandon discards a failed attempt's spill files and returns its
// collect buffer.
func (m *MapContext) abandon() {
	for _, sp := range m.spills {
		sp.discard()
	}
	m.spills = nil
	m.release()
}

// runMap executes one map task under the slot pool, retrying failed
// attempts up to MaxAttempts (Hadoop's speculative-free re-execution;
// the reduce side never observes a partial attempt because outputs
// publish atomically on success).
func (j *Job) runMap(taskID int, body MapBody) error {
	var lastErr error
	for attempt := 1; attempt <= j.cfg.MaxAttempts; attempt++ {
		ctx := j.newMapContext(taskID)
		if attempt > 1 {
			// Fresh metrics for the re-run so counters aren't doubled.
			host := j.mapMetrics[taskID].Host
			j.mapMetrics[taskID] = &trace.Task{ID: taskID, Kind: trace.KindMap,
				Host: host, CollectSizes: trace.NewSizeHistogram(),
				PartitionBytes: make([]int64, j.cfg.NumReduces)}
			ctx.metrics = j.mapMetrics[taskID]
		}
		// Attempt count survives into the stage trace so the perfmodel
		// can charge re-execution plus per-attempt retry backoff.
		ctx.metrics.Attempts = attempt
		if err := body(ctx); err != nil {
			ctx.abandon()
			lastErr = fmt.Errorf("map %d attempt %d: %w", taskID, attempt, err)
			continue
		}
		mo, err := ctx.close()
		if err != nil {
			ctx.abandon()
			lastErr = fmt.Errorf("map %d attempt %d close: %w", taskID, attempt, err)
			continue
		}
		j.mapOutputs[taskID] = mo
		return nil
	}
	return lastErr
}
