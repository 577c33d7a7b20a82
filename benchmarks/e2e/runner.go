package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hivempi/internal/hive"
	"hivempi/internal/metrics"
	"hivempi/internal/perfmodel"
	"hivempi/internal/refexec"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64 // measured time per workload
	sizeGB  int     // >0 overrides every dataset's size (smoke scale)
	trace   bool    // add the traced and replay passes
	outDir  string  // result and span files ("" = none)
	tmpDir  string  // spill files; created and removed by main
}

// The measurement protocol is fixed, so that any two result files are
// comparable: the measured time is cut into measuredRounds rounds (their
// spread is the run's own noise), and set-up is repeated at least
// minSetups times and for setupFloor, so that a 0.2 s load gets as steady
// a median as a 1.3 s one. Smoke scale (-gb, what the tests use) runs one
// round and sets up once.
const (
	measuredRounds = 4
	minSetups      = 3
	setupFloor     = 2 * time.Second
)

func (c config) smoke() bool { return c.sizeGB > 0 }

func (c config) rounds() int {
	if c.smoke() {
		return 1
	}
	return measuredRounds
}

// params is the virtual clock: the paper's cluster at the data scale.
func params() perfmodel.Params {
	p := perfmodel.DefaultParams()
	p.ScaleUp = float64(1<<30) / bytesPerGB
	return p
}

// passSample is one pass through the workload's statements.
type passSample struct {
	wallNs   int64
	cpuNs    int64
	refNs    int64 // the reference kernel, timed just before the pass
	mallocs  uint64
	allocB   uint64
	gcPause  uint64
	gcCycles uint32
	virtualS float64
	counts   map[string]float64 // exact counts + virtual breakdown
	queries  []*trace.Query
}

// run is the state of one workload's measurement.
type run struct {
	cfg    config
	w      workload
	sizeGB int
	stmts  []statement
	cl     *cluster
	d      *hive.Driver
	p      perfmodel.Params

	want   [][]types.Row // per statement: reference rows in sortCanon order
	digest []tableDigest // per statement: warm-up table digest

	attempted, failed int
	failures          []string
	verifyNs          int64
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func abbrev(sql string) string {
	if len(sql) > 60 {
		return sql[:60] + "..."
	}
	return sql
}

// newRun sets a workload up: dataset generated and loaded (repeatedly,
// for the set-up time's median; the last cluster is kept), references
// computed, and one untimed warm-up pass run with the strong answer
// check so the plan cache is warm and lazy set-up is done.
func newRun(cfg config, w workload) (*run, []float64, error) {
	r := &run{cfg: cfg, w: w, stmts: w.statements(), p: params(), sizeGB: w.data.sizeGB}
	if cfg.smoke() {
		r.sizeGB = cfg.sizeGB
	}
	var setupS []float64
	for start := time.Now(); ; {
		r.cl = nil
		t0 := time.Now()
		cl, err := load(w.data, r.sizeGB, cfg.seed, cfg.tmpDir)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		r.cl = cl
		if cfg.smoke() || (len(setupS) >= minSetups && time.Since(start) >= setupFloor) {
			break
		}
	}
	r.d = newDriver(r.cl, w.engine, cfg.tmpDir)
	if err := r.buildReferences(); err != nil {
		return nil, nil, err
	}
	r.pass(true)
	runtime.GC()
	return r, setupS, nil
}

// runWorkload measures one workload from a fresh set-up to its result.
func runWorkload(cfg config, w workload) (*workloadResult, error) {
	r, setupS, err := newRun(cfg, w)
	if err != nil {
		return nil, err
	}

	// Measured rounds: passes back to back, each behind one run of the
	// reference kernel, until the round's share of the time is used; at
	// least one pass each.
	var samples []passSample
	var roundOf []int
	rounds := cfg.rounds()
	slice := time.Duration(cfg.seconds / float64(rounds) * float64(time.Second))
	for round := 0; round < rounds; round++ {
		for start := time.Now(); ; {
			ref := referenceKernel()
			s := r.pass(false)
			s.refNs = ref
			samples = append(samples, s)
			roundOf = append(roundOf, round)
			if time.Since(start) >= slice {
				break
			}
		}
	}

	res := &workloadResult{Name: w.name, Engine: w.engine, Dataset: w.data.name, SizeGB: r.sizeGB,
		Passes: len(samples), Statements: len(r.stmts)}
	res.fillEndToEnd(samples, roundOf, rounds, setupS)

	if cfg.trace {
		if err := r.tracedPasses(res, samples); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	return res, nil
}

// buildReferences computes the expected answer of every checked
// statement: refexec for TPC-H, the other engine for materialised
// tables.
func (r *run) buildReferences() error {
	t0 := time.Now()
	defer func() { r.verifyNs += since(t0) }()
	r.want = make([][]types.Row, len(r.stmts))
	r.digest = make([]tableDigest, len(r.stmts))
	var db *refexec.DB
	var other *hive.Driver
	for i, st := range r.stmts {
		switch {
		case st.tpchQ > 0:
			if db == nil {
				db = refexec.Load(tpchSF(r.sizeGB), r.cfg.seed)
			}
			rows, err := refexec.Query(db, st.tpchQ)
			if err != nil {
				return fmt.Errorf("refexec Q%d: %w", st.tpchQ, err)
			}
			r.want[i] = sortCanon(rows)
		case st.table != "":
			if other == nil {
				// Run the whole sequence once on the other engine,
				// capturing each table right after its statement.
				other = newDriver(r.cl, otherEngine(r.w.engine), r.cfg.tmpDir)
				for j, sj := range r.stmts {
					if _, err := other.Execute(sj.sql); err != nil {
						return fmt.Errorf("reference run on %s: %q: %w", otherEngine(r.w.engine), abbrev(sj.sql), err)
					}
					if sj.table != "" {
						rows, err := readTable(r.cl, sj.table)
						if err != nil {
							return err
						}
						r.want[j] = sortCanon(rows)
					}
				}
			}
		}
	}
	return nil
}

// execute runs the workload's statements once, in order, and samples
// the host around them. With a recorder it also installs the span
// engine for exactly that long and wraps every statement in a span.
func (r *run) execute(rec *recorder) ([]*hive.Result, []error, passSample) {
	d := r.d
	d.Collector.Reset()
	results := make([]*hive.Result, len(r.stmts))
	errs := make([]error, len(r.stmts))
	root := 0
	if rec != nil {
		engine := d.Engine
		d.Engine = &tracedEngine{inner: engine, rec: rec}
		defer func() { d.Engine = engine }()
		root = rec.begin("pass", r.w.name, 0)
	}

	reg0 := d.Env.Metrics.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	for i, st := range r.stmts {
		id := 0
		if rec != nil {
			id = rec.beginStatement(abbrev(st.sql), root)
		}
		results[i], errs[i] = d.Execute(st.sql)
		if rec != nil {
			rec.end(id)
		}
	}
	s := passSample{wallNs: since(t0)}
	s.cpuNs = cpuNow() - cpu0
	runtime.ReadMemStats(&m1)
	if rec != nil {
		rec.end(root)
	}
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	s.gcCycles = m1.NumGC - m0.NumGC

	queries := d.Collector.Queries()
	s.counts, s.virtualS = r.counts(results, queries, reg0, d.Env.Metrics.Snapshot())
	if rec != nil {
		s.queries = queries // only the traced pass keeps its traces alive
	}
	return results, errs, s
}

// pass is execute plus the answer check, after the clock has stopped.
// strong adds the checks that read tables back.
func (r *run) pass(strong bool) passSample {
	results, errs, s := r.execute(nil)
	r.check(results, errs, strong)
	return s
}

// check compares every statement's outcome with its reference.
func (r *run) check(results []*hive.Result, errs []error, strong bool) {
	t0 := time.Now()
	defer func() { r.verifyNs += since(t0) }()
	for i, st := range r.stmts {
		r.attempted++
		if errs[i] != nil {
			r.fail("%s: %q: %v", r.w.name, abbrev(st.sql), errs[i])
			continue
		}
		switch {
		case st.tpchQ > 0:
			if err := rowsMatch(results[i].Rows, r.want[i]); err != nil {
				r.fail("%s: Q%d: %v", r.w.name, st.tpchQ, err)
			}
		case st.table != "":
			dg, err := digestTable(r.cl, st.table)
			if err != nil {
				r.fail("%s: %s: %v", r.w.name, st.table, err)
				continue
			}
			if !strong {
				if dg != r.digest[i] {
					r.fail("%s: %s: %+v differs from the warm-up's %+v", r.w.name, st.table, dg, r.digest[i])
				}
				continue
			}
			r.digest[i] = dg
			rows, err := readTable(r.cl, st.table)
			if err == nil {
				err = rowsMatch(rows, r.want[i])
			}
			if err != nil {
				r.fail("%s: %s vs %s: %v", r.w.name, st.table, otherEngine(r.w.engine), err)
			}
			if st.source != "" {
				r.checkCopy(st)
			}
		}
	}
}

// checkCopy compares count(*) and sum of a copy against its source,
// both read back through the engine.
func (r *run) checkCopy(st statement) {
	agg := func(table string) ([]types.Row, error) {
		r.attempted++
		res, err := r.d.Execute(fmt.Sprintf("SELECT count(*), sum(%s) FROM %s", st.sumCol, table))
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	src, err := agg(st.source)
	if err != nil {
		r.fail("%s: aggregate of %s: %v", r.w.name, st.source, err)
		return
	}
	cp, err := agg(st.table)
	if err == nil {
		err = rowsMatch(cp, sortCanon(src))
	}
	if err != nil {
		r.fail("%s: %s vs its source %s: %v", r.w.name, st.table, st.source, err)
	}
}

const mb = 1 << 20

// counts folds one pass's traces and metric deltas into the exact count
// metrics and the virtual-time breakdown, and returns the pass's virtual
// time (what perfmodel.SimulateQueries sums).
func (r *run) counts(results []*hive.Result, queries []*trace.Query, reg0, reg1 map[string]int64) (map[string]float64, float64) {
	c := map[string]float64{}
	var inB, shufB, spillB, writeB int64
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, st := range res.Stages {
			for _, t := range st.Producers {
				c["exec.input_rows"] += float64(t.InputRecords)
				inB += t.InputBytes
				shufB += t.ShuffleOutBytes
				c["exec.shuffle_out_pairs"] += float64(t.ShuffleOutPairs)
				c["exec.batches"] += float64(t.Batches)
			}
			for _, tasks := range [][]*trace.Task{st.Producers, st.Consumers} {
				for _, t := range tasks {
					c["exec.combine_in_pairs"] += float64(t.CombineInPairs)
					c["exec.combine_out_pairs"] += float64(t.CombineOutPairs)
					spillB += t.SpillBytes
				}
			}
			for _, t := range st.Consumers {
				c["exec.reduce_groups"] += float64(t.ReduceGroups)
			}
			writeB += st.TotalOutputBytes()
		}
	}
	// Registry deltas over the whole pass: Result.Metrics cannot carry
	// the plan-cache counters, which move before its baseline is taken.
	delta := func(name string) float64 { return float64(reg1[name] - reg0[name]) }
	c["dfs.read_mb"] = delta(metrics.CtrDFSReadBytes) / mb
	c["dfs.write_mb"] = delta(metrics.CtrDFSWriteBytes) / mb
	c["datampi.send_flushes"] = delta(metrics.CtrMPISendFlushes)
	c["datampi.forced_flushes"] = delta(metrics.CtrMPIForcedFlushes)
	c["hive.plancache_hits"] = delta(metrics.CtrPlanCacheHits)
	c["hive.plancache_misses"] = delta(metrics.CtrPlanCacheMisses)
	c["exec.input_mb"] = float64(inB) / mb
	c["exec.shuffle_out_mb"] = float64(shufB) / mb
	c["exec.spill_mb"] = float64(spillB) / mb
	c["exec.write_mb"] = float64(writeB) / mb
	var virtualS float64
	for _, q := range queries {
		sim := r.p.SimulateQuery(q)
		virtualS += sim.Total
		c["perfmodel.virtual_compile_s"] += sim.Compile
		for _, st := range sim.Stages {
			c["perfmodel.virtual_startup_s"] += st.Startup
			c["perfmodel.virtual_mapshuffle_s"] += st.MapShuffle
			c["perfmodel.virtual_others_s"] += st.Others
		}
	}
	return c, virtualS
}

// tracedPasses adds the per-layer numbers: one pass with a span around
// every statement and stage, then one pass whose engine replays each
// stage's layers. Neither touches the end-to-end samples.
func (r *run) tracedPasses(res *workloadResult, samples []passSample) error {
	rec := newRecorder()
	rec.pass = len(samples) + 1
	results, errs, traced := r.execute(rec)
	r.check(results, errs, true)

	var parseNs int64
	for _, st := range r.stmts {
		t0 := time.Now()
		if _, err := hive.Parse(st.sql); err != nil {
			return fmt.Errorf("parse %q: %w", abbrev(st.sql), err)
		}
		parseNs += since(t0)
	}
	t0 := time.Now()
	r.p.SimulateQueries(traced.queries)
	simNs := since(t0)

	rp := &replayEngine{inner: r.d.Engine, spillDir: r.cfg.tmpDir}
	r.d.Engine = rp
	for _, st := range r.stmts {
		r.attempted++
		if _, err := r.d.Execute(st.sql); err != nil {
			r.fail("%s: replay pass: %q: %v", r.w.name, abbrev(st.sql), err)
		}
	}
	r.d.Engine = rp.inner
	if rp.err != nil {
		return rp.err
	}

	res.fillPerLayer(rec.totals(), rp.tot, parseNs, simNs, traced.counts, samples, r.verifyNs)
	if r.cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.dump(filepath.Join(r.cfg.outDir, "trace."+r.w.name+".json"))
}
