package exec

import (
	"fmt"
	"io"
	"strings"

	"hivempi/internal/storage"
	"hivempi/internal/trace"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// The engine-agnostic half of a stage. Both engine adapters (Hadoop in
// internal/mrengine, DataMPI in internal/core) call these functions and
// keep only what is theirs: the transport that moves the shuffle, task
// placement and retries, and the trace fields their transport measures.
// What runs here is Hive's own side of a task — ExecMapper for a
// map-only task, ExecReducer for a reduce task — and it is the same
// whichever engine launched the task.

// PlanStage validates stage and derives its geometry: the map tasks,
// the reducer count (the parallelism strategy's, or the adaptation's
// when it repartitions) and the partitioner the shuffle routes keys
// with.
func PlanStage(env *Env, stage *Stage, conf EngineConf) (tasks []MapTaskSpec, numReduces int,
	partition func(key []byte, n int) int, err error) {
	if err := stage.Validate(); err != nil {
		return nil, 0, nil, err
	}
	tasks, err = PlanMapTasks(env, stage, conf)
	if err != nil {
		return nil, 0, nil, err
	}
	numReduces = ReducerCount(stage, conf, len(tasks), SizingBytes(stage, tasks))
	numKeys, partKeys := 0, 0
	if stage.Shuffle != nil {
		numKeys = len(stage.Maps[0].Keys)
		partKeys = stage.Shuffle.PartitionKeys
	}
	partition = func(key []byte, n int) int {
		return PartitionForKey(key, partKeys, numKeys, n)
	}
	if ad := conf.Adaptation; ad.Repartitions() {
		// The adapt runtime re-sized the consumer side from the
		// producer's observed partition bytes; the planned count and
		// hash are superseded wholesale.
		numReduces = ad.NumTargets
		partition = func(key []byte, _ int) int {
			return ad.Partition(key, partKeys, numKeys)
		}
	}
	return tasks, numReduces, partition, nil
}

// AdmitTask admits one task attempt: the chaos plane's injected crash
// for (stage, role, id) first, then the check that host is UP. The
// empty host (no placement) is never checked.
func AdmitTask(env *Env, stage *Stage, role string, id int, host string) error {
	if err := env.Chaos.TaskCrash(stage.ID, role, id); err != nil {
		return err
	}
	if !env.NodeUp(host) {
		return fmt.Errorf("%w: %s rank %d on %s (stage %s)", ErrNodeLost, strings.ToUpper(role), id, host, stage.ID)
	}
	return nil
}

// RunMapOnlyTask runs one attempt of map-only task id (Hive's
// ExecMapper with a FileSink terminal): the task's batches go to its
// part file and, when the stage collects, to its shard of rows.
func RunMapOnlyTask(env *Env, conf EngineConf, stage *Stage, id int, task MapTaskSpec,
	rows *RowCollector, m *trace.Task) error {
	out, err := buildTaskOutput(env, stage, id, rows.start(id))
	if err != nil {
		return err
	}
	if err := RunMapTask(env, conf, stage, task.MapIdx, task.Split, nil, out, m); err != nil {
		return err
	}
	return out.Close()
}

// RunReduceTask runs one attempt of reduce task id (Hive's
// ExecReducer): next yields the transport's key groups in key order,
// the stage's reduce tree folds them, and its rows go to the task's
// part file and, when the stage collects, to its shard of rows. role is
// the task kind the chaos plane knows the engine's reduce tasks by.
func RunReduceTask(env *Env, conf EngineConf, stage *Stage, role string, id int,
	next func() ([]byte, [][]byte, error), rows *RowCollector, m *trace.Task) error {
	if conf.Adaptation.MarkPredictive(id) {
		// Predicted-heavy partition on a suspect/slow node: the backup
		// copy is already racing this one, so a straggler here is cut
		// at the predictive detection latency.
		m.PredictiveSpec = true
	}
	ApplyStraggler(m, env.Chaos.StragglerDelay(stage.ID, role, id), conf)
	out, err := buildTaskOutput(env, stage, id, rows.start(id))
	if err != nil {
		return err
	}
	driver, err := NewReduceDriver(env, stage.Reduce, out.Write, m)
	if err != nil {
		return err
	}
	for {
		key, vals, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := driver.Feed(key, vals); err != nil {
			return err
		}
		if driver.LimitReached() {
			break
		}
	}
	if err := driver.Close(); err != nil {
		return err
	}
	return out.Close()
}

// FinishStageTrace fills in what the engine-agnostic half knows of a
// finished stage: each producer's data locality, the adaptation's
// rewrite counts and cost, and the sink bytes each task wrote.
func FinishStageTrace(env *Env, stage *Stage, conf EngineConf, tasks []MapTaskSpec, st *trace.Stage) {
	for i, m := range st.Producers {
		m.LocalRead = tasks[i].Local
	}
	if ad := conf.Adaptation; ad != nil {
		st.AdaptSplit = ad.SplitParts
		st.AdaptFused = ad.FusedParts
		st.AdaptSec = ad.PlanCostSec
	}
	fillSinkWriteBytes(env, stage, st)
}

// RowCollector gathers a stage's collected rows from concurrently
// running tasks without a shared lock: each task appends to its own
// shard, and Rows merges the shards in task order, so the order never
// depends on the goroutine schedule. Starting a task's attempt empties
// its shard, so a retried attempt's rows replace the failed attempt's.
// The rows are exclusively owned by their producer (readers return
// fresh rows per record and every operator emits newly built rows), so
// no defensive Clone is taken.
type RowCollector struct {
	shards [][]types.Row
}

// NewRowCollector returns a collector for tasks 0..n-1.
func NewRowCollector(n int) *RowCollector {
	return &RowCollector{shards: make([][]types.Row, n)}
}

// start begins an attempt of task i: it drops the rows an earlier
// attempt collected and returns the task's private sink.
func (c *RowCollector) start(i int) RowSink {
	c.shards[i] = nil
	return func(r types.Row) error {
		c.shards[i] = append(c.shards[i], r)
		return nil
	}
}

// Rows merges the shards in task order.
func (c *RowCollector) Rows() []types.Row {
	total := 0
	for _, sh := range c.shards {
		total += len(sh)
	}
	if total == 0 {
		return nil
	}
	out := make([]types.Row, 0, total)
	for _, sh := range c.shards {
		out = append(out, sh...)
	}
	return out
}

// taskOutput is one task's output: the part file of the stage's sink,
// the task's collector shard when the stage collects, or both. Map-only
// tasks hand it batches: the part file's writer encodes them from the
// vectors, and rows are materialized only for the collector, which
// keeps them. Reduce tasks hand it rows.
type taskOutput struct {
	writer  storage.RowWriter
	collect RowSink
}

// buildTaskOutput wires one task's output: when the stage has a sink, a
// part file is created under the sink directory; when the stage
// collects, rows are also delivered to collect. Close finalizes the
// part file.
func buildTaskOutput(env *Env, stage *Stage, taskID int, collect RowSink) (*taskOutput, error) {
	o := &taskOutput{}
	if stage.Sink != nil {
		path := fmt.Sprintf("%s/part-%05d", stage.Sink.Dir, taskID)
		w, err := storage.CreateTableFile(env.FS, path, stage.Sink.Format, stage.Sink.Schema)
		if err != nil {
			return nil, fmt.Errorf("exec: create sink %s: %w", path, err)
		}
		o.writer = w
	}
	if stage.Collect {
		o.collect = collect
	}
	return o, nil
}

// Write delivers one row.
func (o *taskOutput) Write(row types.Row) error {
	if o.writer != nil {
		if err := o.writer.Write(row); err != nil {
			return err
		}
	}
	if o.collect != nil {
		return o.collect(row)
	}
	return nil
}

// WriteBatch delivers b's rows (the MapSink a map-only task writes to).
func (o *taskOutput) WriteBatch(b *vec.Batch) error {
	if o.writer != nil {
		if err := o.writer.WriteBatch(b); err != nil {
			return err
		}
	}
	if o.collect != nil {
		return o.collect.WriteBatch(b)
	}
	return nil
}

// Close finalizes the part file, if there is one.
func (o *taskOutput) Close() error {
	if o.writer != nil {
		return o.writer.Close()
	}
	return nil
}

// fillSinkWriteBytes attributes sink part-file sizes to the tasks that
// wrote them (consumers, or producers for map-only stages). Part files
// admitted to the memory tier are additionally counted as memory-tier
// writes and credited as cached intermediate bytes, so the perfmodel
// prices them at memory bandwidth.
func fillSinkWriteBytes(env *Env, stage *Stage, st *trace.Stage) {
	if stage.Sink == nil {
		return
	}
	owner := st.Consumers
	if len(owner) == 0 {
		owner = st.Producers
	}
	for i, t := range owner {
		path := fmt.Sprintf("%s/part-%05d", stage.Sink.Dir, i)
		sz, err := env.FS.Size(path)
		if err != nil {
			continue
		}
		t.WriteBytes = sz
		if env.FS.MemResident(path) {
			t.MemWriteBytes = sz
			t.MemoryCacheBytes += sz
		}
	}
}
