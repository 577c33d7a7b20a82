package hive

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"hivempi/internal/adapt"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/metrics"
)

// Stage DAG scheduling. The planner emits stages in a valid topological
// order (every stage reads either base tables or the sink directories
// of earlier stages), but multi-join queries like TPC-H Q2/Q8/Q9
// contain independent branches — per-table pre-aggregations feeding a
// final join — that a serial driver needlessly serializes. The
// scheduler derives the dependency graph from source/sink paths and
// launches every ready stage concurrently, bounded by
// MaxConcurrentStages, so independent branches overlap the way a
// DAG-parallel engine overlaps them.

// StageDeps derives the stage dependency graph: stage i depends on
// stage j (j < i) when one of i's inputs — a map work's scan directory
// or a map join's small-table directory — is stage j's sink directory.
// The planner assigns each intermediate a unique tmp directory, so
// exact string equality identifies the producer. Dependencies always
// point backwards in plan order, which keeps the graph acyclic.
func StageDeps(stages []*exec.Stage) [][]int {
	sinkOf := make(map[string]int, len(stages))
	deps := make([][]int, len(stages))
	for i, st := range stages {
		seen := make(map[int]bool)
		for _, dir := range stageInputDirs(st) {
			if j, ok := sinkOf[dir]; ok && !seen[j] {
				seen[j] = true
				deps[i] = append(deps[i], j)
			}
		}
		sort.Ints(deps[i])
		if st.Sink != nil && st.Sink.Dir != "" {
			sinkOf[st.Sink.Dir] = i
		}
	}
	return deps
}

// stageInputDirs lists every directory the stage scans: each map work's
// input and any map-join small tables, including map joins nested in a
// small side's own load chain. (The reduce-side post chain holds no map
// join: buildPost runs filters and projections only.)
func stageInputDirs(st *exec.Stage) []string {
	var dirs []string
	var fromOps func(ops []exec.MapOp)
	fromOps = func(ops []exec.MapOp) {
		for _, op := range ops {
			if mj, ok := op.(*exec.MapJoinOp); ok {
				if mj.Small.Dir != "" {
					dirs = append(dirs, mj.Small.Dir)
				}
				fromOps(mj.SmallOps)
			}
		}
	}
	for i := range st.Maps {
		if st.Maps[i].Input.Dir != "" {
			dirs = append(dirs, st.Maps[i].Input.Dir)
		}
		fromOps(st.Maps[i].Ops)
	}
	return dirs
}

// engineState is the engine selection shared by a query's stages: once
// any stage exhausts the primary engine's retry budget, the whole rest
// of the query degrades to the fallback engine, exactly as the serial
// driver degraded.
type engineState struct {
	mu       sync.Mutex
	engine   exec.Engine
	degraded string // fallback engine name once degraded, else ""

	// Skew-adaptive context, set once before any stage runs: the full
	// plan (for reader-safety analysis) and the driver's adapt runtime
	// (nil = adaptation off). The runtime locks internally.
	stages []*exec.Stage
	adapt  *adapt.Runtime

	// query, when non-empty, labels this query's stage executions in
	// wall-clock pprof profiles (Driver.ProfileLabels). Immutable after
	// construction, so stage goroutines read it without the mutex.
	query string
}

func (es *engineState) current() exec.Engine {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.engine
}

func (es *engineState) degrade(to exec.Engine) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.engine = to
	es.degraded = to.Name()
}

func (es *engineState) degradedName() string {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.degraded
}

// runOneStage executes one stage on the currently selected engine,
// degrading to the fallback (and re-running the stage there) when the
// primary spends its whole retry budget. Safe for concurrent use by
// the DAG scheduler's stage goroutines.
func (d *Driver) runOneStage(st *exec.Stage, es *engineState) (*exec.StageResult, error) {
	engine := es.current()
	conf := d.Conf
	if es.adapt != nil {
		// Per-stage conf copy: the adaptation is computed from producer
		// stages observed so far (upstream stages always complete — and
		// are observed — before the DAG scheduler releases a consumer).
		conf.Adaptation = es.adapt.Decide(st, es.stages, &conf)
	}
	sr, err := d.runLabeled(es, st, engine, conf)
	if err != nil && d.Fallback != nil && d.Fallback.Name() != engine.Name() && !nodeLossError(err) {
		// Graceful degradation: wipe the stage's partial output and run
		// it (and, via the shared state, the rest of the query) on the
		// fallback engine. Node-loss failures are excluded — a lost block
		// or dead host fails on any engine; those route to the DAG
		// scheduler's relaunch path instead.
		if st.Sink != nil && st.Sink.Dir != "" {
			d.Env.FS.DeleteDir(st.Sink.Dir)
		}
		es.degrade(d.Fallback)
		sr, err = d.runLabeled(es, st, d.Fallback, conf)
	}
	if err != nil {
		return nil, fmt.Errorf("stage %s: %w", st.ID, err)
	}
	if es.adapt != nil {
		es.adapt.Observe(st, sr.Trace)
	}
	d.tickCluster(sr)
	return sr, nil
}

// runLabeled executes one stage on one engine, tagging the execution
// with pprof labels (query/stage/engine) when the driver asked for
// them — so `benchsuite -cpuprofile` samples group by query and stage
// in `go tool pprof -tagfocus`. The unlabeled path adds no allocation:
// virtual-time runs never pay for wall-clock observability.
func (d *Driver) runLabeled(es *engineState, st *exec.Stage, engine exec.Engine,
	conf exec.EngineConf) (*exec.StageResult, error) {
	if es.query == "" {
		return engine.Run(d.Env, st, conf)
	}
	var sr *exec.StageResult
	var err error
	labels := pprof.Labels("query", es.query, "stage", st.ID, "engine", engine.Name())
	pprof.Do(context.Background(), labels, func(context.Context) {
		sr, err = engine.Run(d.Env, st, conf)
	})
	return sr, err
}

// nodeLossError reports failures caused by node death rather than by
// the engine itself: a block whose replicas all died, or a rank whose
// host died with its retry budget spent.
func nodeLossError(err error) bool {
	return errors.Is(err, dfs.ErrBlockUnavailable) || errors.Is(err, exec.ErrNodeLost)
}

// lostInputProducer maps a lost-block failure to the plan index of the
// stage whose sink directory held the block (-1 when the block belongs
// to no stage in this query — base table data, unrecoverable here).
func lostInputProducer(stages []*exec.Stage, err error) int {
	var lost *dfs.BlockLostError
	if !errors.As(err, &lost) {
		return -1
	}
	for j, st := range stages {
		if st.Sink == nil || st.Sink.Dir == "" {
			continue
		}
		if strings.HasPrefix(lost.Path, st.Sink.Dir+"/") || lost.Path == st.Sink.Dir {
			return j
		}
	}
	return -1
}

// stageConcurrency is the bound on concurrently running stages: the
// configured limit, else one stage per worker node (each stage fans its
// tasks across the cluster's slots, so node count is the point where
// extra stage-level concurrency stops buying overlap).
func (d *Driver) stageConcurrency() int {
	if d.MaxConcurrentStages > 0 {
		return d.MaxConcurrentStages
	}
	n := len(d.Conf.Slaves)
	if n < 2 {
		n = 2
	}
	return n
}

// runStagesDAG executes the stages with DAG overlap: every stage whose
// dependencies completed is launched, lowest plan index first, up to
// the concurrency bound. Results are returned in plan order regardless
// of completion order, so traces and collected rows stay deterministic.
// On failure the scheduler stops launching, drains every in-flight
// stage (no goroutine outlives the call) and returns the lowest-index
// error alongside the partial results — completed stages keep their
// entries so the driver can preserve their traces.
//
// Lost-node recovery: a stage failing because an input block died with
// its nodes (BlockLostError naming a producer's sink) does not fail the
// query. The producer is re-executed — its surviving partial sink is
// wiped first — and the failed consumer waits on the relaunch instead
// of the normal dependency edges (which already fired when the producer
// completed the first time). Cascading losses recurse naturally: a
// relaunched producer whose own inputs are gone relaunches *its*
// producer, bounded by a total relaunch budget so a wedged cluster
// (base data lost, no live replicas) still fails cleanly.
func (d *Driver) runStagesDAG(stages []*exec.Stage, deps [][]int, es *engineState) ([]*exec.StageResult, error) {
	n := len(stages)
	results := make([]*exec.StageResult, n)
	errs := make([]error, n)
	waiting := make([]int, n) // unfinished dependencies per stage
	dependents := make([][]int, n)
	for i, ds := range deps {
		waiting[i] = len(ds)
		for _, j := range ds {
			dependents[j] = append(dependents[j], i)
		}
	}

	var ready []int
	for i := 0; i < n; i++ {
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}

	doneCh := make(chan int)
	running := 0
	launched := 0 // distinct stages ever launched (relaunches excluded)
	everLaunched := make([]bool, n)
	failed := false
	maxConc := d.stageConcurrency()

	// Relaunch bookkeeping. relaunching[j] marks a producer being
	// re-executed for its output, with the consumers parked in
	// relaunchWaiters[j] until the fresh output exists; the budget
	// bounds total re-executions per query.
	relaunching := make([]bool, n)
	relaunchWaiters := make([][]int, n)
	relaunchBudget := n + 2

	// recoverLostInput reroutes stage i's lost-block failure to a
	// producer relaunch; false means the failure stands.
	recoverLostInput := func(i int) bool {
		j := lostInputProducer(stages, errs[i])
		if j < 0 || j == i || relaunchBudget <= 0 {
			return false
		}
		relaunchBudget--
		errs[i] = nil
		results[i] = nil
		relaunchWaiters[j] = append(relaunchWaiters[j], i)
		if !relaunching[j] {
			relaunching[j] = true
			// Wipe the surviving partial output so the re-execution
			// publishes a complete, fresh sink.
			d.Env.FS.DeleteDir(stages[j].Sink.Dir)
			ready = insertSorted(ready, j)
		}
		return true
	}

	for {
		for !failed && running < maxConc && len(ready) > 0 {
			// ready is kept ascending: stages launch in plan order so
			// equal-priority branches schedule deterministically.
			i := ready[0]
			ready = ready[1:]
			running++
			if !everLaunched[i] {
				everLaunched[i] = true
				launched++
			}
			go func(i int) {
				results[i], errs[i] = d.runOneStage(stages[i], es)
				doneCh <- i
			}(i)
		}
		if running == 0 {
			break
		}
		i := <-doneCh
		running--
		if errs[i] != nil {
			if errors.Is(errs[i], dfs.ErrBlockUnavailable) && recoverLostInput(i) {
				continue
			}
			failed = true
			continue
		}
		if relaunching[i] {
			// A producer re-executed for its lost output: only the parked
			// consumers resume — the normal dependency edges fired when
			// the stage completed the first time, and firing them again
			// would corrupt the waiting counts.
			relaunching[i] = false
			if tr := results[i].Trace; tr != nil {
				tr.Relaunched = true
				d.Env.Metrics.Counter(metrics.CtrTasksRelaunched).
					Add(int64(len(tr.Producers) + len(tr.Consumers)))
			}
			for _, w := range relaunchWaiters[i] {
				ready = insertSorted(ready, w)
			}
			relaunchWaiters[i] = nil
			continue
		}
		for _, dep := range dependents[i] {
			waiting[dep]--
			if waiting[dep] == 0 {
				ready = insertSorted(ready, dep)
			}
		}
	}

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	if launched < n {
		// Unreachable for planner output (dependencies point backwards),
		// kept as a guard against a malformed graph.
		return nil, fmt.Errorf("hive: stage graph deadlock: %d of %d stages ran", launched, n)
	}
	return results, nil
}

// insertSorted inserts v into ascending slice s.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
