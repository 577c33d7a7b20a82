package hive

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hivempi/internal/core"
	"hivempi/internal/exec"
	"hivempi/internal/mrengine"
	"hivempi/internal/testutil/leakcheck"
	"hivempi/internal/types"
)

// stageWith builds a minimal stage scanning the given dirs (the first
// via Maps[].Input, the rest as map-join small tables) and sinking to
// sink.
func stageWith(id, sink string, inputs ...string) *exec.Stage {
	st := &exec.Stage{ID: id}
	if len(inputs) > 0 {
		mw := exec.MapWork{Input: exec.TableInput{Dir: inputs[0]}}
		for _, small := range inputs[1:] {
			mw.Ops = append(mw.Ops, &exec.MapJoinOp{Small: exec.TableInput{Dir: small}})
		}
		st.Maps = []exec.MapWork{mw}
	}
	if sink != "" {
		st.Sink = &exec.FileSinkSpec{Dir: sink}
	}
	return st
}

func TestStageDeps(t *testing.T) {
	defer leakcheck.Check(t)()
	stages := []*exec.Stage{
		stageWith("s0", "/tmp/q/stage1", "/warehouse/a"),
		stageWith("s1", "/tmp/q/stage2", "/warehouse/b"),
		// Reads both branch outputs: the big side via Input, the small
		// side via a map join.
		stageWith("s2", "/tmp/q/stage3", "/tmp/q/stage1", "/tmp/q/stage2"),
		// Chain off the top join.
		stageWith("s3", "/tmp/q/stage4", "/tmp/q/stage3"),
	}
	got := StageDeps(stages)
	want := [][]int{nil, nil, {0, 1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StageDeps = %v, want %v", got, want)
	}
}

func TestStageDepsNestedMapJoin(t *testing.T) {
	defer leakcheck.Check(t)()
	// A map join whose small side itself map-joins another stage's
	// output: both dirs must count.
	st := stageWith("s2", "/tmp/q/out", "/warehouse/fact")
	inner := &exec.MapJoinOp{Small: exec.TableInput{Dir: "/tmp/q/stage1"}}
	st.Maps[0].Ops = append(st.Maps[0].Ops,
		&exec.MapJoinOp{
			Small:    exec.TableInput{Dir: "/tmp/q/stage2"},
			SmallOps: []exec.MapOp{inner},
		})
	stages := []*exec.Stage{
		stageWith("a", "/tmp/q/stage1", "/warehouse/d1"),
		stageWith("b", "/tmp/q/stage2", "/warehouse/d2"),
		st,
	}
	got := StageDeps(stages)
	want := [][]int{nil, nil, {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StageDeps = %v, want %v", got, want)
	}
}

// seedChain loads four tables joined pairwise by distinct keys, so the
// bushy planner can split the query into two independent join branches.
func seedChain(t *testing.T, d *Driver) {
	t.Helper()
	script := `
		CREATE TABLE t1 (k1 int, v1 int);
		CREATE TABLE t2 (k1 int, k2 int);
		CREATE TABLE t3 (k2 int, k3 int);
		CREATE TABLE t4 (k3 int, v4 int);
	`
	if _, err := d.Run(script); err != nil {
		t.Fatal(err)
	}
	load := func(name string, mk func(i int64) types.Row) {
		var rows []types.Row
		for i := int64(0); i < 300; i++ {
			rows = append(rows, mk(i))
		}
		if err := d.LoadTableData(name, 0, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("t1", func(i int64) types.Row { return types.Row{types.Int(i), types.Int(i * 2)} })
	load("t2", func(i int64) types.Row { return types.Row{types.Int(i), types.Int(i % 100)} })
	load("t3", func(i int64) types.Row { return types.Row{types.Int(i % 100), types.Int(i % 50)} })
	load("t4", func(i int64) types.Row { return types.Row{types.Int(i % 50), types.Int(i + 7)} })
}

const chainQuery = `
	SELECT count(*), sum(a.v1)
	FROM t1 a JOIN t2 b ON a.k1 = b.k1
	  JOIN t3 c ON b.k2 = c.k2
	  JOIN t4 d ON c.k3 = d.k3`

// TestBushyPlanRunsIndependentBranches: the four-table chain splits
// into two branch joins with no dependency between them, both feeding
// the top join, and the DAG run returns the same rows as serial.
func TestBushyPlanRunsIndependentBranches(t *testing.T) {
	defer leakcheck.Check(t)()
	d := newTestDriver(t, core.New())
	d.MapJoinThresholdBytes = 1 // force shuffle joins
	seedChain(t, d)
	res := query(t, d, chainQuery)

	var joins []*struct {
		name string
		deps []string
	}
	for _, st := range res.Stages {
		if len(st.Name) >= 4 && st.Name[:4] == "join" {
			joins = append(joins, &struct {
				name string
				deps []string
			}{st.Name, st.DependsOn})
		}
	}
	if len(joins) != 3 {
		t.Fatalf("expected 2 branch joins + 1 top join, got %d join stages", len(joins))
	}
	if len(joins[0].deps) != 0 || len(joins[1].deps) != 0 {
		t.Errorf("branch joins should be independent, deps = %v / %v",
			joins[0].deps, joins[1].deps)
	}
	if len(joins[2].deps) != 2 {
		t.Errorf("top join should depend on both branches, deps = %v", joins[2].deps)
	}

	// Serial mode returns identical rows.
	ds := newTestDriver(t, core.New())
	ds.MapJoinThresholdBytes = 1
	ds.SerialStages = true
	seedChain(t, ds)
	want := query(t, ds, chainQuery)
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Errorf("DAG rows %v != serial rows %v", res.Rows, want.Rows)
	}
}

// TestDAGFallbackMidQuery: a fault in one branch of a DAG-parallel
// query degrades the whole rest of the query to the fallback engine
// without changing the result.
func TestDAGFallbackMidQuery(t *testing.T) {
	defer leakcheck.Check(t)()
	clean := newTestDriver(t, core.New())
	clean.MapJoinThresholdBytes = 1
	seedChain(t, clean)
	want := query(t, clean, chainQuery)

	d := newTestDriver(t, core.New())
	d.MapJoinThresholdBytes = 1
	d.Fallback = mrengine.New()
	seedChain(t, d)
	t4, err := d.MS.Get("t4")
	if err != nil {
		t.Fatal(err)
	}
	// One fault, no retry budget: the branch reading t4 fails on
	// DataMPI mid-DAG and the query degrades.
	d.Env.FS.InjectReadFault(t4.DataPaths(d.Env.FS)[0], 1)
	res := query(t, d, chainQuery)
	if res.Degraded != "hadoop" {
		t.Fatalf("Degraded = %q, want \"hadoop\"", res.Degraded)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Errorf("degraded rows %v != clean rows %v", res.Rows, want.Rows)
	}
	// Stages that ran after the degradation point report the fallback
	// engine in the trace.
	sawHadoop := false
	for _, st := range res.Stages {
		if st.Engine == "hadoop" {
			sawHadoop = true
		}
	}
	if !sawHadoop {
		t.Error("no stage trace reports the fallback engine")
	}
}

// TestDAGFailureDrainsAndKeepsTraces: when a mid-DAG stage fails with
// no fallback engine, the scheduler drains every in-flight stage (no
// goroutine survives the query) and the stages that did complete keep
// their traces in the collector instead of vanishing with the error.
func TestDAGFailureDrainsAndKeepsTraces(t *testing.T) {
	defer leakcheck.Check(t)()
	d := newTestDriver(t, core.New())
	d.MapJoinThresholdBytes = 1 // force the bushy two-branch DAG
	seedChain(t, d)
	t4, err := d.MS.Get("t4")
	if err != nil {
		t.Fatal(err)
	}
	// One fault, no retry budget, no fallback: the branch reading t4
	// fails while the independent t1-t2 branch is in flight.
	d.Env.FS.InjectReadFault(t4.DataPaths(d.Env.FS)[0], 1)

	before := runtime.NumGoroutine()
	if _, err := d.Execute(chainQuery); err == nil {
		t.Fatal("query with an unrecoverable stage fault should fail")
	}

	// The concurrently running branch completed and its trace survived.
	qs := d.Collector.Queries()
	if len(qs) == 0 {
		t.Fatal("collector recorded no query")
	}
	partial := qs[len(qs)-1].Stages
	if len(partial) == 0 {
		t.Error("no completed-stage traces preserved from the failed DAG run")
	}
	for _, st := range partial {
		if st.Name == "" || st.Engine == "" {
			t.Errorf("preserved trace incomplete: %+v", st)
		}
	}

	// Every stage goroutine drained. Allow the runtime a moment to
	// retire finished goroutines before calling it a leak.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before query, %d after drain",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxConcurrentStagesOne serializes the DAG scheduler itself: with
// a concurrency bound of one the event loop still completes the graph
// in dependency order.
func TestMaxConcurrentStagesOne(t *testing.T) {
	defer leakcheck.Check(t)()
	d := newTestDriver(t, core.New())
	d.MapJoinThresholdBytes = 1
	d.MaxConcurrentStages = 1
	seedChain(t, d)
	res := query(t, d, chainQuery)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}
