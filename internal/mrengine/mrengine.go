// Package mrengine is the Hive-on-Hadoop execution engine: it lowers a
// compiled plan stage onto the internal/hadoop MapReduce substrate,
// matching the baseline system of the paper's evaluation.
package mrengine

import (
	"fmt"
	"io"
	"sync"

	"hivempi/internal/exec"
	"hivempi/internal/hadoop"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
	"hivempi/internal/types"
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
	if err := stage.Validate(); err != nil {
		return nil, err
	}
	tasks, err := exec.PlanMapTasks(env, stage, conf)
	if err != nil {
		return nil, err
	}
	inputBytes := exec.SizingBytes(stage, tasks)
	hosts := make([]string, len(tasks))
	for i, t := range tasks {
		hosts[i] = t.Host
	}
	numReduces := exec.ReducerCount(stage, conf, len(tasks), inputBytes)
	ad := conf.Adaptation
	if ad.Repartitions() {
		numReduces = ad.NumTargets
	}

	var mu sync.Mutex
	var rows []types.Row
	collect := func(r types.Row) error {
		mu.Lock()
		defer mu.Unlock()
		rows = append(rows, r.Clone())
		return nil
	}

	numKeys := 0
	partKeys := 0
	if stage.Shuffle != nil {
		numKeys = len(stage.Maps[0].Keys)
		partKeys = stage.Shuffle.PartitionKeys
	}
	job, err := hadoop.NewJob(hadoop.Config{
		NumMaps:    len(tasks),
		NumReduces: numReduces,
		Partitioner: func(key []byte, n int) int {
			if ad.Repartitions() {
				return ad.Partition(key, partKeys, numKeys)
			}
			return exec.PartitionForKey(key, partKeys, numKeys, n)
		},
		SortBufferBytes: conf.SortBufferBytes,
		MapSlots:        conf.MaxSlots(),
		ReduceSlots:     conf.MaxSlots(),
		Hosts:           hosts,
		MaxAttempts:     conf.MaxTaskAttempts,
	})
	if err != nil {
		return nil, err
	}

	mapBody := func(m *hadoop.MapContext) error {
		t := tasks[m.TaskID()]
		if err := env.Chaos.TaskCrash(stage.ID, "map", m.TaskID()); err != nil {
			return err
		}
		exec.ApplyStraggler(m.Metrics(), env.Chaos.StragglerDelay(stage.ID, "map", m.TaskID()), conf)
		if stage.Shuffle == nil {
			out, err := exec.BuildTaskOutput(env, stage, m.TaskID(), collect)
			if err != nil {
				return err
			}
			if err := exec.RunMapTask(env, conf, stage, t.MapIdx, t.Split, nil, out, m.Metrics()); err != nil {
				return err
			}
			return out.Close()
		}
		return exec.RunMapTask(env, conf, stage, t.MapIdx, t.Split, m.Emit, nil, m.Metrics())
	}

	var reduceBody hadoop.ReduceBody
	if stage.Reduce != nil {
		reduceBody = func(r *hadoop.ReduceContext) error {
			if err := env.Chaos.TaskCrash(stage.ID, "reduce", r.TaskID()); err != nil {
				return err
			}
			if ad.MarkPredictive(r.TaskID()) {
				r.Metrics().PredictiveSpec = true
			}
			exec.ApplyStraggler(r.Metrics(), env.Chaos.StragglerDelay(stage.ID, "reduce", r.TaskID()), conf)
			out, err := exec.BuildTaskOutput(env, stage, r.TaskID(), collect)
			if err != nil {
				return err
			}
			driver, err := exec.NewReduceDriver(env, stage.Reduce, out.Write, r.Metrics())
			if err != nil {
				return err
			}
			for {
				key, vals, err := r.NextGroup()
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
	for i, m := range st.Producers {
		m.LocalRead = tasks[i].Local
	}
	for i, r := range st.Consumers {
		if h := ad.HostFor(i); h != "" && env.NodeUp(h) {
			r.Host = h
		} else if len(conf.Slaves) > 0 {
			r.Host = conf.Slaves[i%len(conf.Slaves)]
		}
	}
	if ad != nil {
		st.AdaptSplit = ad.SplitParts
		st.AdaptFused = ad.FusedParts
		st.AdaptSec = ad.PlanCostSec
	}
	// Surface per-task re-executions at the stage level (the attempt
	// counts themselves stay on each task for the perfmodel).
	for _, t := range st.Producers {
		if t.Attempts > 1 {
			st.TaskRetries += t.Attempts - 1
		}
	}
	st.ChaosDelaySec = env.Chaos.DrainVirtualDelay()
	exec.FillSinkWriteBytes(env, stage, st)
	metrics.FoldStage(env.Metrics, st)
	return &exec.StageResult{Trace: st, Rows: rows}, nil
}
