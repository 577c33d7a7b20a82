package hadoop

import (
	"fmt"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// ReduceContext is the handle given to a reduce task body after the
// copy and merge phases completed: NextGroup iterates key groups in
// global key order, mirroring Hive's ExecReducer input.
type ReduceContext struct {
	job     *Job
	taskID  int
	metrics *trace.Task
	grouper *kvio.Grouper
}

// TaskID returns the reduce task's index.
func (r *ReduceContext) TaskID() int { return r.taskID }

// NumReduces returns the job's reduce count.
func (r *ReduceContext) NumReduces() int { return r.job.cfg.NumReduces }

// Metrics exposes the task's trace record for engine-side counters.
func (r *ReduceContext) Metrics() *trace.Task { return r.metrics }

// NextGroup returns the next key and its values, or io.EOF. Both are
// valid until the next call.
func (r *ReduceContext) NextGroup() ([]byte, [][]byte, error) {
	k, vs, err := r.grouper.NextGroup()
	if err == nil {
		r.metrics.ReduceGroups++
	}
	return k, vs, err
}

// runReduce executes one reduce task: the copy phase pulls this task's
// partition from each map output as the map completes (never earlier —
// Hadoop's coarse-grained shuffle), then a k-way merge feeds the body.
func (j *Job) runReduce(taskID int, completions <-chan int, body ReduceBody) error {
	metrics := j.reduceMetrics[taskID]

	// Copy phase.
	type segment struct {
		mapID int
		data  []byte
	}
	segments := make([]segment, 0, j.cfg.NumMaps)
	for m := range completions {
		mo := j.mapOutputs[m]
		if mo == nil {
			// The producing map failed; the job error surfaces from it.
			continue
		}
		seg, err := mo.partition(taskID)
		if err != nil {
			return fmt.Errorf("reduce %d copy from map %d: %w", taskID, m, err)
		}
		if len(seg) > 0 {
			segments = append(segments, segment{mapID: m, data: seg})
			metrics.ShuffleInBytes += int64(len(seg))
			j.comm.AddMessage(m, taskID, int64(len(seg)))
		}
	}

	// Merge phase: each segment is key-sorted by the map-side merge.
	sources := make([]kvio.Source, 0, len(segments))
	for _, seg := range segments {
		kvs, err := kvio.DecodeAll(seg.data)
		if err != nil {
			return fmt.Errorf("reduce %d decode segment: %w", taskID, err)
		}
		metrics.ShuffleInPairs += int64(len(kvs))
		j.comm.AddRecords(seg.mapID, taskID, int64(len(kvs)))
		sources = append(sources, &kvio.SliceSource{KVs: kvs})
	}
	metrics.MergeRuns = int64(len(sources))
	merge, err := kvio.NewMerge(sources)
	if err != nil {
		return err
	}

	if body == nil {
		return nil
	}
	ctx := &ReduceContext{job: j, taskID: taskID, metrics: metrics, grouper: kvio.NewGrouper(merge)}
	if err := body(ctx); err != nil {
		return fmt.Errorf("reduce %d: %w", taskID, err)
	}
	return nil
}
