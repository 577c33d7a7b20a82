// Package core is the paper's primary contribution: Hive on DataMPI.
// It plugs the DataMPI bipartite communication library underneath the
// Hive compiler as a drop-in execution engine — the DataMPITask /
// DataMPICollector design of §IV-B:
//
//   - each plan stage becomes one DataMPI job; map-side operator trees
//     run inside O tasks, with the DataMPICollector forwarding every
//     produced pair through MPI_D_Send;
//   - A tasks receive, cache and merge intermediate data concurrently
//     with the O phase, then drive ExecReducer-style reduce trees over
//     the grouped iterator;
//   - the engine exposes the paper's tuning surface:
//     hive.datampi.parallelism (default/enhanced),
//     hive.datampi.memusedpercent, hive.datampi.sendqueue, and the
//     blocking/non-blocking shuffle styles.
package core

import (
	"fmt"
	"sync"

	"hivempi/internal/datampi"
	"hivempi/internal/exec"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// engine wiring for the serialized DataMPIWork flow lives in work.go.

// Engine executes stages on DataMPI.
type Engine struct{}

var _ exec.Engine = (*Engine)(nil)

// New returns the engine.
func New() *Engine { return &Engine{} }

// Name implements exec.Engine.
func (e *Engine) Name() string { return "datampi" }

// Run implements exec.Engine. It is the DataMPITask.execute() analogue:
// it derives the O/A geometry from the splits and the parallelism
// strategy, spawns the bipartite job (the mpidrun launch of the paper)
// and wires the operator trees into both sides.
func (e *Engine) Run(env *exec.Env, stage *exec.Stage, conf exec.EngineConf) (*exec.StageResult, error) {
	tasks, numA, partition, err := exec.PlanStage(env, stage, conf)
	if err != nil {
		return nil, err
	}

	if stage.Shuffle == nil {
		return e.runWithRetries(env, stage, conf, func(attempt int) (*trace.Stage, []types.Row, error) {
			return e.runMapOnly(env, stage, conf, tasks, attempt)
		})
	}

	// Serialize the DataMPIWork (plan + jobconf + splits) to the DFS;
	// every CommonProcess deserializes it before entering its MPI_D
	// context (paper §IV-B). The descriptor is written once: retries
	// reuse the same rank->split assignment, which is what makes the
	// per-rank O-task checkpoints replayable.
	workPath, cmdline, err := writeWork(env, stage, conf, tasks, numA)
	if err != nil {
		return nil, err
	}
	defer cleanupWork(env, stage.ID)
	var (
		workOnce sync.Once
		work     *DataMPIWork
		workErr  error
	)
	loadWork := func() (*DataMPIWork, error) {
		workOnce.Do(func() { work, workErr = readWork(env, workPath) })
		return work, workErr
	}

	// Host assignment per attempt. O tasks keep their planned locality
	// and A ranks round-robin over conf.Slaves (or take the adapt
	// runtime's skew-aware placement), but every attempt — including
	// the first — fails placement over to a surviving node when the
	// membership already knows the planned host is not UP. liveHost is
	// a no-op on a healthy cluster; skipping it on attempt 1 used to
	// make a cached plan re-executed after a node death (with the
	// default single-attempt budget) land ranks on the dead host and
	// fail outright instead of rescheduling.
	attemptHosts := func() []string {
		hosts := make([]string, 0, len(tasks)+numA)
		for _, t := range tasks {
			hosts = append(hosts, liveHost(env, t.Host, t.Split.Hosts))
		}
		for i := 0; i < numA; i++ {
			h := conf.Adaptation.HostFor(i)
			if h == "" && len(conf.Slaves) > 0 {
				h = conf.Slaves[i%len(conf.Slaves)]
			}
			hosts = append(hosts, liveHost(env, h, conf.Slaves))
		}
		return hosts
	}

	return e.runWithRetries(env, stage, conf, func(attempt int) (*trace.Stage, []types.Row, error) {
		// Each attempt is a fresh bipartite world: an MPI transport
		// failure is fatal to its communicator, so recovery means
		// relaunching the job, not patching the old one.
		hosts := attemptHosts()
		rows := exec.NewRowCollector(numA)
		job, err := datampi.NewJob(datampi.Config{
			NumO:            len(tasks),
			NumA:            numA,
			Partitioner:     partition,
			SendBufferBytes: conf.SendBufferBytes,
			SendQueueSize:   conf.SendQueueSize,
			MemUsedPercent:  conf.MemUsedPercent,
			TaskMemoryBytes: conf.TaskMemoryBytes,
			NonBlocking:     conf.NonBlocking,
			Hosts:           hosts,
			Chaos:           env.Chaos,
			Metrics:         env.Metrics,
		})
		if err != nil {
			return nil, nil, err
		}

		// The O body is the DataMPIHiveApplication map path: deserialize
		// the work, look up this rank's split, then run the ExecMapper
		// with the DataMPICollector as terminal operator. On retries a
		// committed checkpoint replaces the map work entirely.
		oBody := func(o *datampi.OContext) error {
			m := o.Metrics()
			m.Attempts = attempt
			if err := exec.AdmitTask(env, stage, "o", o.Rank(), hosts[o.Rank()]); err != nil {
				return err
			}
			if attempt > 1 {
				if meta, pairs, ok := readCheckpoint(env, stage.ID, o.Rank()); ok {
					m.Recovered = true
					env.Metrics.Counter(metrics.CtrCheckpointReplays).Inc()
					// Restore the salvaged attempt's input counters so
					// the perfmodel prices that work once, not zero times.
					m.InputBytes = meta.InputBytes
					m.InputRecords = meta.InputRecords
					for _, p := range pairs {
						m.OutputRecords++
						m.OutputBytes += int64(len(p.Key) + len(p.Value))
						if err := o.Send(p.Key, p.Value); err != nil {
							return err
						}
					}
					return nil
				}
			}
			exec.ApplyStraggler(m, env.Chaos.StragglerDelay(stage.ID, "o", o.Rank()), conf)
			w, err := loadWork()
			if err != nil {
				return err
			}
			split, mapIdx, err := w.splitFor(o.Rank())
			if err != nil {
				return err
			}
			var rec checkpointRecorder
			send := func(k, v []byte) error {
				rec.record(k, v)
				return o.Send(k, v)
			}
			if err := exec.RunMapTask(env, conf, stage, mapIdx, split, send, nil, m); err != nil {
				rec.release()
				return err
			}
			// Commit even when the task emitted nothing, so a retry
			// knows this split completed and skips it.
			rec.commit(env, stage.ID, o.Rank(), m)
			return nil
		}
		// The A body feeds the grouped iterator into the ExecReducer tree.
		aBody := func(a *datampi.AContext) error {
			m := a.Metrics()
			m.Attempts = attempt
			if err := exec.AdmitTask(env, stage, "a", a.Rank(), hosts[len(tasks)+a.Rank()]); err != nil {
				return err
			}
			return exec.RunReduceTask(env, conf, stage, "a", a.Rank(), a.NextGroup, rows, m)
		}

		if err := job.Run(oBody, aBody); err != nil {
			return nil, nil, fmt.Errorf("datampi stage %s: %w", stage.ID, err)
		}

		st := &trace.Stage{
			Name:           stage.ID,
			Engine:         e.Name(),
			NumMaps:        len(tasks),
			NumReds:        numA,
			Producers:      job.OMetrics(),
			Consumers:      job.AMetrics(),
			Comm:           job.Comm(),
			NonBlocking:    conf.NonBlocking,
			MemUsedPercent: conf.MemUsedPercent,
			SendQueueSize:  conf.SendQueueSize,
			LaunchCommand:  cmdline,
		}
		exec.FinishStageTrace(env, stage, conf, tasks, st)
		return st, rows.Rows(), nil
	})
}

// liveHost returns h when the membership considers it schedulable,
// otherwise the first UP fallback, otherwise "" (run hostless — the
// relaunched world places the rank wherever capacity remains).
func liveHost(env *exec.Env, h string, fallbacks []string) string {
	if env.NodeUp(h) {
		return h
	}
	for _, f := range fallbacks {
		if f != "" && env.NodeUp(f) {
			return f
		}
	}
	return ""
}

// runMapOnly executes one attempt of a map-only stage: O tasks run
// under a slot semaphore with no A side (DataMPI spawns only the O
// communicator).
func (e *Engine) runMapOnly(env *exec.Env, stage *exec.Stage, conf exec.EngineConf,
	tasks []exec.MapTaskSpec, attempt int) (*trace.Stage, []types.Row, error) {
	taskMetrics := make([]*trace.Task, len(tasks))
	errs := make([]error, len(tasks))
	rows := exec.NewRowCollector(len(tasks))
	sem := make(chan struct{}, conf.MaxSlots())
	var wg sync.WaitGroup
	for i := range tasks {
		// Fail dead planned hosts over on every attempt (no-op while the
		// planned host is UP), mirroring attemptHosts above.
		host := liveHost(env, tasks[i].Host, tasks[i].Split.Hosts)
		taskMetrics[i] = &trace.Task{ID: i, Kind: trace.KindOTask, Attempts: attempt,
			Host: host, CollectSizes: trace.NewSizeHistogram()}
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := exec.AdmitTask(env, stage, "o", i, host); err != nil {
				errs[i] = err
				return
			}
			exec.ApplyStraggler(taskMetrics[i], env.Chaos.StragglerDelay(stage.ID, "o", i), conf)
			errs[i] = exec.RunMapOnlyTask(env, conf, stage, i, tasks[i], rows, taskMetrics[i])
		}(i, host)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("datampi map-only stage %s: %w", stage.ID, err)
		}
	}
	st := &trace.Stage{
		Name:      stage.ID,
		Engine:    e.Name(),
		NumMaps:   len(tasks),
		Producers: taskMetrics,
	}
	exec.FinishStageTrace(env, stage, conf, tasks, st)
	return st, rows.Rows(), nil
}
