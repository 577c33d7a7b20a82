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
// partition from each map output once the maps have completed (never
// earlier — Hadoop's coarse-grained shuffle), then a k-way merge feeds
// the body.
func (j *Job) runReduce(taskID int, completions <-chan int, body ReduceBody) error {
	metrics := j.reduceMetrics[taskID]

	// Copy phase. A segment moves only once its map has completed
	// (Hadoop's coarse-grained shuffle). Each is key-sorted by the
	// map-side merge and is merged where it lies in the published run:
	// pairs are cut from its wire bytes on demand.
	runs := make([]kvio.WireSource, 0, j.cfg.NumMaps) // in completion order
	for m := range completions {
		// A nil output: the producing map failed; the job error surfaces
		// from it.
		mo := j.mapOutputs[m]
		if mo == nil || mo.size(taskID) == 0 {
			continue
		}
		seg := mo.segment(taskID)
		pairs, err := kvio.CountPairs(seg)
		if err != nil {
			return fmt.Errorf("reduce %d decode segment: %w", taskID, err)
		}
		metrics.ShuffleInBytes += int64(len(seg))
		metrics.ShuffleInPairs += int64(pairs)
		j.comm.AddMessage(m, taskID, int64(len(seg)))
		j.comm.AddRecords(m, taskID, int64(pairs))
		runs = append(runs, kvio.WireSource{Buf: seg})
	}
	sources := make([]kvio.Source, len(runs))
	for i := range runs {
		sources[i] = &runs[i]
	}

	// Merge phase.
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
