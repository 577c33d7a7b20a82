// Package mrengine is the Hive-on-Hadoop execution engine: it lowers a
// compiled plan stage onto the internal/hadoop MapReduce substrate,
// matching the baseline system of the paper's evaluation.
package mrengine

import (
	"fmt"

	"hivempi/internal/exec"
	"hivempi/internal/hadoop"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
)

// Engine executes stages on Hadoop MapReduce.
type Engine struct{}

var _ exec.Engine = (*Engine)(nil)

// New returns the engine.
func New() *Engine { return &Engine{} }

// Name implements exec.Engine.
func (e *Engine) Name() string { return "hadoop" }

// Run implements exec.Engine.
func (e *Engine) Run(env *exec.Env, stage *exec.Stage, conf exec.EngineConf) (*exec.StageResult, error) {
	tasks, numReduces, partition, err := exec.PlanStage(env, stage, conf)
	if err != nil {
		return nil, err
	}
	hosts := make([]string, len(tasks))
	for i, t := range tasks {
		hosts[i] = t.Host
	}
	// A map-only stage collects from its map tasks, a shuffle stage from
	// its reduce tasks.
	rows := exec.NewRowCollector(max(len(tasks), numReduces))
	job, err := hadoop.NewJob(hadoop.Config{
		NumMaps:         len(tasks),
		NumReduces:      numReduces,
		Partitioner:     partition,
		SortBufferBytes: conf.SortBufferBytes,
		MapSlots:        conf.MaxSlots(),
		ReduceSlots:     conf.MaxSlots(),
		Hosts:           hosts,
		MaxAttempts:     conf.MaxTaskAttempts,
	})
	if err != nil {
		return nil, err
	}

	// Admission checks no host: PlanMapTasks already placed map tasks
	// on UP replicas, and reduce hosts are assigned only in the trace.
	mapBody := func(m *hadoop.MapContext) error {
		id := m.TaskID()
		if err := exec.AdmitTask(env, stage, "map", id, ""); err != nil {
			return err
		}
		exec.ApplyStraggler(m.Metrics(), env.Chaos.StragglerDelay(stage.ID, "map", id), conf)
		if stage.Shuffle == nil {
			return exec.RunMapOnlyTask(env, conf, stage, id, tasks[id], rows, m.Metrics())
		}
		return exec.RunMapTask(env, conf, stage, tasks[id].MapIdx, tasks[id].Split, m.Emit, nil, m.Metrics())
	}

	var reduceBody hadoop.ReduceBody
	if stage.Reduce != nil {
		reduceBody = func(r *hadoop.ReduceContext) error {
			if err := exec.AdmitTask(env, stage, "reduce", r.TaskID(), ""); err != nil {
				return err
			}
			return exec.RunReduceTask(env, conf, stage, "reduce", r.TaskID(), r.NextGroup, rows, r.Metrics())
		}
	}

	if err := job.Run(mapBody, reduceBody); err != nil {
		return nil, fmt.Errorf("hadoop stage %s: %w", stage.ID, err)
	}

	st := &trace.Stage{
		Name:      stage.ID,
		Engine:    e.Name(),
		NumMaps:   len(tasks),
		NumReds:   numReduces,
		Producers: job.MapMetrics(),
		Consumers: job.ReduceMetrics(),
		Comm:      job.Comm(),
	}
	for i, r := range st.Consumers {
		if h := conf.Adaptation.HostFor(i); h != "" && env.NodeUp(h) {
			r.Host = h
		} else if len(conf.Slaves) > 0 {
			r.Host = conf.Slaves[i%len(conf.Slaves)]
		}
	}
	// Surface per-task re-executions at the stage level (the attempt
	// counts themselves stay on each task for the perfmodel).
	for _, t := range st.Producers {
		if t.Attempts > 1 {
			st.TaskRetries += t.Attempts - 1
		}
	}
	st.ChaosDelaySec = env.Chaos.DrainVirtualDelay()
	exec.FinishStageTrace(env, stage, conf, tasks, st)
	metrics.FoldStage(env.Metrics, st)
	return &exec.StageResult{Trace: st, Rows: rows.Rows()}, nil
}
