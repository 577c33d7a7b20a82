package hadoop

import (
	"errors"
	"fmt"
	"io"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// MapContext is the handle given to a map task body. Emit is the
// OutputCollector.collect analogue: pairs accumulate in the map-side
// sort buffer (a kvio.Run: Hadoop's kvbuffer arena plus kvmeta index)
// and are sorted and spilled into a sorted run when the buffer fills,
// exactly like Hadoop's MapOutputBuffer.
type MapContext struct {
	job     *Job
	taskID  int
	metrics *trace.Task

	buf        *kvio.Run // the sort buffer; nil on a map-only job and once released
	spills     []*mapOutput
	emitCount  int64
	flushMarks []int64
}

// drain appends every pair of a merged stream to out. Only io.EOF ends
// the stream: any other error means pairs are missing, and the run must
// not be published.
func drain(out *kvio.Run, src kvio.Source) error {
	for {
		kv, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("hadoop: merge spills: %w", err)
		}
		out.AppendWireKV(kv.Key, kv.Value)
	}
}

func (j *Job) newMapContext(taskID int) *MapContext {
	m := &MapContext{job: j, taskID: taskID, metrics: j.mapMetrics[taskID]}
	if j.cfg.NumReduces > 0 {
		m.buf = kvio.GetRun()
	}
	return m
}

// release hands the sort buffer back to the pool.
func (m *MapContext) release() {
	if m.buf != nil {
		m.buf.Release()
		m.buf = nil
	}
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
	start := b.Size()
	b.Append(part, key, value)
	m.metrics.CollectSizes.Observe(len(key) + len(value))
	m.metrics.ShuffleOutPairs++
	m.metrics.PartitionBytes[part] += int64(b.Size() - start)
	m.emitCount++
	if b.Size() >= m.job.cfg.SortBufferBytes {
		m.sortAndSpill()
	}
	return nil
}

// sortAndSpill sorts the buffer by (partition, key) and copies it into
// one spill run with a partition index, applying the combiner when
// configured.
func (m *MapContext) sortAndSpill() {
	b := m.buf
	if b.Len() == 0 {
		return
	}
	b.SortByPartKey()
	sp := &mapOutput{offsets: make([]int64, m.job.cfg.NumReduces+1)}
	index := b.Entries()
	i := 0
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		sp.offsets[p] = sp.written()
		j := i
		for j < len(index) && index[j].Part == p {
			j++
		}
		m.writePartition(sp, index[i:j])
		i = j
	}
	n := sp.written()
	sp.offsets[m.job.cfg.NumReduces] = n
	m.metrics.SpillCount++
	m.metrics.SpillBytes += n
	m.flushMarks = append(m.flushMarks, m.emitCount)
	m.spills = append(m.spills, sp)
	b.Reset()
}

// writePartition appends one partition's sorted pairs to the spill,
// combining first when a combiner is configured. Without a combiner the
// spill is exactly the buffer's size, reserved at once; a combiner's
// output size is known only once it has run. The combiner sees
// sub-slices of the sort buffer's arena, valid until it returns.
func (m *MapContext) writePartition(sp *mapOutput, pairs []kvio.RunEntry) {
	b := m.buf
	if m.job.cfg.Combiner == nil {
		for _, e := range pairs {
			sp.out(b.Size()).AppendWire(b.Wire(e))
		}
		return
	}
	// The callback cannot fail, so neither can the walk.
	_ = b.Groups(pairs, func(key []byte, vals [][]byte) error {
		m.metrics.CombineInPairs += int64(len(vals))
		for _, v := range m.job.cfg.Combiner(key, vals) {
			sp.out(0).AppendWireKV(key, v)
			m.metrics.CombineOutPairs++
		}
		return nil
	})
}

// close runs the final spill and turns the task's spill runs into its
// partition-indexed output (Hadoop's file.out): several runs are
// merged, a single run already is that output and is promoted as it
// stands (MapTask.mergeParts renames a lone spill the same way).
func (m *MapContext) close() (*mapOutput, error) {
	if m.job.cfg.NumReduces == 0 {
		return nil, nil
	}
	m.sortAndSpill()
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

// mergeSpills merges the spill runs partition by partition into one new
// run, reserved to their total size. Each partition's segments are
// merged where they lie in the spills; CountPairs proves a segment's
// framing before the merge reads it, so damage fails the task instead
// of ending its output early.
func (m *MapContext) mergeSpills() (*mapOutput, error) {
	total := 0
	for _, sp := range m.spills {
		total += int(sp.written())
	}
	mo := &mapOutput{offsets: make([]int64, m.job.cfg.NumReduces+1)}
	if total == 0 {
		return mo, nil // every spill was combined away
	}
	out := mo.out(total)
	runs := make([]kvio.WireSource, len(m.spills))
	sources := make([]kvio.Source, 0, len(m.spills))
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		mo.offsets[p] = mo.written()
		sources = sources[:0]
		for i, sp := range m.spills {
			seg := sp.segment(p)
			if len(seg) == 0 {
				continue
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
			err = drain(out, merge)
		}
		if err != nil {
			mo.discard()
			return nil, err
		}
	}
	mo.offsets[m.job.cfg.NumReduces] = mo.written()
	return mo, nil
}

// abandon discards a failed attempt's spill runs and returns its
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
