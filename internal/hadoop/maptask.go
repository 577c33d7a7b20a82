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
// and are sorted and spilled to local disk when the buffer fills,
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

// drain writes every pair of a merged stream to the run's file. Only
// io.EOF ends the stream: any other error means pairs are missing, and
// the file must not be published.
func drain(b *kvio.Run, src kvio.Source) error {
	for {
		kv, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("hadoop: merge spills: %w", err)
		}
		if err := b.WriteKV(kv.Key, kv.Value); err != nil {
			return fmt.Errorf("hadoop: write map output: %w", err)
		}
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
		return m.sortAndSpill()
	}
	return nil
}

// sortAndSpill sorts the buffer by (partition, key) and writes one spill
// run with a partition index, applying the combiner when configured.
func (m *MapContext) sortAndSpill() error {
	b := m.buf
	if b.Len() == 0 {
		return nil
	}
	b.Sort(b.ByPartKey)
	f, err := kvio.CreateRunFile(m.job.cfg.SpillDir, "hadoop-spill-*.run")
	if err != nil {
		return fmt.Errorf("hadoop: create spill: %w", err)
	}
	sp := &mapOutput{file: f, offsets: make([]int64, m.job.cfg.NumReduces+1)}
	b.Begin(f)
	index := b.Entries()
	i := 0
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		sp.offsets[p] = b.Written()
		j := i
		for j < len(index) && index[j].Part == p {
			j++
		}
		if err := m.writePartition(index[i:j]); err != nil {
			sp.discard()
			return err
		}
		i = j
	}
	sp.offsets[m.job.cfg.NumReduces] = b.Written()
	if err := b.Flush(); err != nil {
		sp.discard()
		return fmt.Errorf("hadoop: flush spill: %w", err)
	}
	m.metrics.SpillCount++
	m.metrics.SpillBytes += b.Written()
	m.flushMarks = append(m.flushMarks, m.emitCount)
	m.spills = append(m.spills, sp)
	b.Reset()
	return nil
}

// writePartition writes one partition's sorted pairs, combining first
// when a combiner is configured. The combiner sees sub-slices of the
// arena, valid until it returns.
func (m *MapContext) writePartition(pairs []kvio.RunEntry) error {
	b := m.buf
	if m.job.cfg.Combiner == nil {
		for _, e := range pairs {
			if err := b.Write(b.Wire(e)); err != nil {
				return fmt.Errorf("hadoop: write spill: %w", err)
			}
		}
		return nil
	}
	return b.Groups(pairs, func(key []byte, vals [][]byte) error {
		m.metrics.CombineInPairs += int64(len(vals))
		for _, v := range m.job.cfg.Combiner(key, vals) {
			if err := b.WriteKV(key, v); err != nil {
				return fmt.Errorf("hadoop: write combined spill: %w", err)
			}
			m.metrics.CombineOutPairs++
		}
		return nil
	})
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
// file. Nothing is collected any more, so the sort buffer's arena holds
// the partition's segments while they are merged.
func (m *MapContext) mergeSpills() (*mapOutput, error) {
	out, err := kvio.CreateRunFile(m.job.cfg.SpillDir, "hadoop-mapout-*.out")
	if err != nil {
		return nil, fmt.Errorf("hadoop: create map output: %w", err)
	}
	mo := &mapOutput{file: out, offsets: make([]int64, m.job.cfg.NumReduces+1)}
	b := m.buf
	b.Begin(out)
	runs := make([]kvio.WireSource, len(m.spills))
	sources := make([]kvio.Source, 0, len(m.spills))
	for p := 0; p < m.job.cfg.NumReduces; p++ {
		mo.offsets[p] = b.Written()
		total := 0
		for _, sp := range m.spills {
			total += sp.size(p)
		}
		b.Reset()
		rest := b.Grow(total)
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
			err = drain(b, merge)
		}
		if err != nil {
			mo.discard()
			return nil, err
		}
	}
	mo.offsets[m.job.cfg.NumReduces] = b.Written()
	if err := b.Flush(); err != nil {
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
