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
	"io"
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
	if err := stage.Validate(); err != nil {
		return nil, err
	}
	tasks, err := exec.PlanMapTasks(env, stage, conf)
	if err != nil {
		return nil, err
	}
	inputBytes := exec.SizingBytes(stage, tasks)
	numA := exec.ReducerCount(stage, conf, len(tasks), inputBytes)
	ad := conf.Adaptation
	if ad.Repartitions() {
		// The adapt runtime re-sized the consumer side from the
		// producer's observed partition bytes; the planned count is
		// superseded wholesale.
		numA = ad.NumTargets
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

	numKeys := len(stage.Maps[0].Keys)
	partKeys := stage.Shuffle.PartitionKeys

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
			h := ad.HostFor(i)
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
		sinks := newShardedRows(numA)
		job, err := datampi.NewJob(datampi.Config{
			NumO: len(tasks),
			NumA: numA,
			Partitioner: func(key []byte, n int) int {
				if ad.Repartitions() {
					return ad.Partition(key, partKeys, numKeys)
				}
				return exec.PartitionForKey(key, partKeys, numKeys, n)
			},
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
			if err := env.Chaos.TaskCrash(stage.ID, "o", o.Rank()); err != nil {
				return err
			}
			if h := hosts[o.Rank()]; !env.NodeUp(h) {
				return fmt.Errorf("%w: O rank %d on %s (stage %s)", exec.ErrNodeLost, o.Rank(), h, stage.ID)
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
			if err := env.Chaos.TaskCrash(stage.ID, "a", a.Rank()); err != nil {
				return err
			}
			if h := hosts[len(tasks)+a.Rank()]; !env.NodeUp(h) {
				return fmt.Errorf("%w: A rank %d on %s (stage %s)", exec.ErrNodeLost, a.Rank(), h, stage.ID)
			}
			if ad.MarkPredictive(a.Rank()) {
				// Predicted-heavy partition on a suspect/slow node: the
				// backup copy is already racing this one, so a straggler
				// here is cut at the predictive detection latency.
				m.PredictiveSpec = true
			}
			exec.ApplyStraggler(m, env.Chaos.StragglerDelay(stage.ID, "a", a.Rank()), conf)
			out, err := exec.BuildTaskOutput(env, stage, a.Rank(), sinks.sink(a.Rank()))
			if err != nil {
				return err
			}
			driver, err := exec.NewReduceDriver(env, stage.Reduce, out.Write, m)
			if err != nil {
				return err
			}
			for {
				key, vals, err := a.NextGroup()
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
		if ad != nil {
			st.AdaptSplit = ad.SplitParts
			st.AdaptFused = ad.FusedParts
			st.AdaptSec = ad.PlanCostSec
		}
		for i, m := range st.Producers {
			m.LocalRead = tasks[i].Local
		}
		exec.FillSinkWriteBytes(env, stage, st)
		return st, sinks.rows(), nil
	})
}

// shardedRows collects rows from concurrently running tasks without a
// shared lock: each task appends to its own shard, and the shards are
// merged in task order when the attempt completes. The collected rows
// are exclusively owned by their producer (readers return fresh rows
// per record and every operator emits newly built rows), so no
// defensive Clone is taken.
type shardedRows struct {
	shards [][]types.Row
}

func newShardedRows(n int) *shardedRows {
	return &shardedRows{shards: make([][]types.Row, n)}
}

// sink returns task i's private collector.
func (s *shardedRows) sink(i int) exec.RowSink {
	return func(r types.Row) error {
		s.shards[i] = append(s.shards[i], r)
		return nil
	}
}

// rows merges the shards in task order.
func (s *shardedRows) rows() []types.Row {
	total := 0
	for _, sh := range s.shards {
		total += len(sh)
	}
	if total == 0 {
		return nil
	}
	out := make([]types.Row, 0, total)
	for _, sh := range s.shards {
		out = append(out, sh...)
	}
	return out
}

// retryBackoffBase is the first virtual-time retry delay; subsequent
// attempts back off exponentially (2s, 4s, 8s, ...).
const retryBackoffBase = 2.0

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

// runWithRetries executes attempts of one stage until success or the
// conf.MaxTaskAttempts budget is spent. Every attempt builds a fresh
// sharded row collector (partial rows from failed attempts are
// discarded) and the stage sink is wiped between attempts; recovery
// costs — exponential backoff and injected message delay — are recorded
// on the stage trace for the perfmodel to charge.
func (e *Engine) runWithRetries(env *exec.Env, stage *exec.Stage, conf exec.EngineConf,
	run func(attempt int) (*trace.Stage, []types.Row, error)) (*exec.StageResult, error) {
	attempts := conf.MaxTaskAttempts
	if attempts < 1 {
		attempts = 1
	}
	var backoff, chaosDelay float64
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		st, rows, err := run(attempt)
		chaosDelay += env.Chaos.DrainVirtualDelay()
		if err == nil {
			st.Attempts = attempt
			st.RetryBackoffSec = backoff
			st.ChaosDelaySec = chaosDelay
			// Fold exactly once per successful stage — failed attempts'
			// partial traces are discarded with their rows.
			metrics.FoldStage(env.Metrics, st)
			return &exec.StageResult{Trace: st, Rows: rows}, nil
		}
		lastErr = err
		// Wipe partial sink output so the retry (or a driver-level
		// engine fallback) starts from a clean slate.
		resetStageSink(env, stage)
		if attempt < attempts {
			backoff += retryBackoffBase * float64(int(1)<<(attempt-1))
		}
	}
	return nil, lastErr
}

// resetStageSink removes the stage's partial output files; only this
// stage writes under its sink directory.
func resetStageSink(env *exec.Env, stage *exec.Stage) {
	if stage.Sink != nil && stage.Sink.Dir != "" {
		env.FS.DeleteDir(stage.Sink.Dir)
	}
}

// runMapOnly executes one attempt of a map-only stage: O tasks run
// under a slot semaphore with no A side (DataMPI spawns only the O
// communicator).
func (e *Engine) runMapOnly(env *exec.Env, stage *exec.Stage, conf exec.EngineConf,
	tasks []exec.MapTaskSpec, attempt int) (*trace.Stage, []types.Row, error) {
	taskMetrics := make([]*trace.Task, len(tasks))
	errs := make([]error, len(tasks))
	sinks := newShardedRows(len(tasks))
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
			if err := env.Chaos.TaskCrash(stage.ID, "o", i); err != nil {
				errs[i] = err
				return
			}
			if !env.NodeUp(host) {
				errs[i] = fmt.Errorf("%w: O rank %d on %s (stage %s)", exec.ErrNodeLost, i, host, stage.ID)
				return
			}
			exec.ApplyStraggler(taskMetrics[i], env.Chaos.StragglerDelay(stage.ID, "o", i), conf)
			out, err := exec.BuildTaskOutput(env, stage, i, sinks.sink(i))
			if err != nil {
				errs[i] = err
				return
			}
			if err := exec.RunMapTask(env, conf, stage, tasks[i].MapIdx, tasks[i].Split,
				nil, out, taskMetrics[i]); err != nil {
				errs[i] = err
				return
			}
			errs[i] = out.Close()
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
	for i, m := range st.Producers {
		m.LocalRead = tasks[i].Local
	}
	exec.FillSinkWriteBytes(env, stage, st)
	return st, sinks.rows(), nil
}
