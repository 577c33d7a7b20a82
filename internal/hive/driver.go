package hive

import (
	"fmt"
	"strings"

	"hivempi/internal/adapt"
	"hivempi/internal/cluster"
	"hivempi/internal/exec"
	"hivempi/internal/imstore"
	"hivempi/internal/metrics"
	"hivempi/internal/obs/comm"
	"hivempi/internal/perfmodel"
	"hivempi/internal/storage"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// Driver is the Hive front door: it parses HiveQL, plans statements and
// executes the resulting stage DAGs on the configured engine, mirroring
// the paper's Hive Driver with a pluggable execution engine.
type Driver struct {
	Env       *exec.Env
	MS        *Metastore
	Engine    exec.Engine
	Conf      exec.EngineConf
	Collector *trace.Collector

	// Fallback, when set, is the engine queries degrade to after the
	// primary engine exhausts its hive.datampi.maxattempts
	// (Conf.MaxTaskAttempts) budget on a stage: the failed stage and the
	// rest of the query rerun there instead of failing the query
	// (typically DataMPI -> Hadoop).
	Fallback exec.Engine

	// WarehouseRoot holds managed table data; TmpRoot holds
	// intermediate stage output (cleaned after each query).
	WarehouseRoot string
	TmpRoot       string

	// MapJoinThresholdBytes is forwarded to the planner.
	MapJoinThresholdBytes int64

	// ProfileLabels wraps each stage execution in pprof labels
	// (query/stage/engine) so wall-clock CPU and heap profiles can be
	// sliced per query and per stage. Off by default: the labels cost a
	// context allocation per stage, and the virtual-time plane never
	// needs them.
	ProfileLabels bool

	// SerialStages disables DAG stage scheduling: stages run strictly
	// one after another in plan order (the pre-DAG driver behaviour,
	// kept for baselines and A/B benchmarks).
	SerialStages bool
	// MaxConcurrentStages bounds how many stages the DAG scheduler runs
	// at once; 0 picks one stage per worker node.
	MaxConcurrentStages int

	// InMemBytes is the hive.exec.inmem.bytes budget: when positive,
	// intermediate stage output under TmpRoot is held in the in-memory
	// tier up to this many bytes, transparently spilling to the disk
	// tier beyond it.
	InMemBytes int64

	// Ablation switches forwarded to the planner (benchmarks only).
	DisableMapAggregation bool
	DisableProjection     bool
	DisablePushdown       bool

	// DisablePlanCache turns off the compiled-plan cache (on by
	// default, DefaultPlanCacheEntries plans).
	DisablePlanCache bool

	// AdaptiveSkew enables the skew-adaptive runtime (internal/adapt):
	// completed stages' partition statistics feed repartitioning,
	// placement, combiner sizing and predictive speculation of
	// downstream stages. A producer counts as skewed past
	// adapt.DefaultCVThreshold (hive.skew.cv.threshold).
	AdaptiveSkew bool
	adaptRT      *adapt.Runtime

	// Cluster is the node-membership failure detector (nil = no node
	// failure domain). Attach with AttachCluster, which also wires the
	// DFS liveness watcher and the re-replication pricing.
	Cluster *cluster.Membership

	querySeq    int
	memAttached bool
	memStore    *imstore.Store

	planCache    *PlanCache
	pcEvReported int64
	// Plan-cache counter handles, cached by ensureMetrics so the
	// per-statement path never pays a registry lookup (metricshot).
	pcHits, pcMisses, pcEvictions *metrics.Counter

	metricsAttached bool
	perfParams      *perfmodel.Params
}

// NewDriver builds a driver with the default layout.
func NewDriver(env *exec.Env, engine exec.Engine, conf exec.EngineConf) *Driver {
	return &Driver{
		Env:           env,
		MS:            NewMetastore(),
		Engine:        engine,
		Conf:          conf,
		Collector:     trace.NewCollector(),
		WarehouseRoot: "/warehouse",
		TmpRoot:       "/tmp/hive",
	}
}

// Result is one executed statement's output.
type Result struct {
	Statement string
	Schema    *types.Schema
	Rows      []types.Row
	Stages    []*trace.Stage
	Plan      string // EXPLAIN text when requested
	// Degraded names the fallback engine when the query finished there
	// after the primary engine failed ("" = primary throughout).
	Degraded string
	// Analyzed marks an EXPLAIN ANALYZE result: the statement really
	// executed and Stages/Metrics carry its runtime profile.
	Analyzed bool
	// CachedPlan marks that the statement was served from the
	// compiled-plan cache (parse and plan were skipped).
	CachedPlan bool
	// Overlapped reports that the stages ran DAG-parallel, so virtual
	// time follows the critical path rather than the serial sum.
	Overlapped bool
	// Metrics is the observability snapshot for this statement: counter
	// deltas (shuffle/spill/checkpoint/dfs traffic, per-engine task
	// counts) plus the imstore gauges sampled at completion.
	Metrics map[string]int64
}

// Run executes a multi-statement script, stopping at the first error.
func (d *Driver) Run(script string) ([]*Result, error) {
	var results []*Result
	for _, stmt := range SplitStatements(script) {
		res, err := d.Execute(stmt)
		if err != nil {
			return results, fmt.Errorf("statement %q: %w", abbreviate(stmt), err)
		}
		results = append(results, res)
	}
	return results, nil
}

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// Execute runs one statement. Cacheable SELECTs consult the
// compiled-plan cache first: a hit skips parse and plan entirely and
// re-executes the cached stage DAG (byte-identical output — only the
// compile work disappears).
func (d *Driver) Execute(sql string) (*Result, error) {
	if res, hit, err := d.executeCachedPlan(sql); hit {
		return res, err
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return d.executeStmt(sql, stmt)
}

// executeCachedPlan tries to serve sql from the plan cache. hit
// reports whether the cache answered (res/err are only meaningful
// then); a miss falls through to the normal parse/plan path.
func (d *Driver) executeCachedPlan(sql string) (res *Result, hit bool, err error) {
	if d.DisablePlanCache {
		return nil, false, nil
	}
	key, lits, analyzed, cacheable := normalizePlanKey(sql)
	if !cacheable {
		return nil, false, nil
	}
	d.ensureMetrics()
	if d.planCache == nil {
		d.planCache = NewPlanCache(DefaultPlanCacheEntries)
	}
	e := d.planCache.lookup(key, lits, d.MS.Version(), d.planFingerprint())
	d.foldPlanCacheEvictions()
	if e == nil {
		d.pcMisses.Inc()
		return nil, false, nil
	}
	d.pcHits.Inc()
	res, _, err = d.executePlan(sql, e.stages, e.outSch, e.qtmp, true)
	if res != nil {
		// An EXPLAIN ANALYZE served from the cache still renders the
		// annotated plan — with the compile span gone.
		res.Analyzed = analyzed
	}
	return res, true, err
}

// foldPlanCacheEvictions publishes the cache's eviction count into the
// registry as a delta since the last fold.
func (d *Driver) foldPlanCacheEvictions() {
	_, _, ev := d.planCache.Stats()
	if ev > d.pcEvReported {
		d.pcEvictions.Add(ev - d.pcEvReported)
		d.pcEvReported = ev
	}
}

func (d *Driver) executeStmt(sql string, stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *Explain:
		if s.Analyze {
			res, err := d.executeStmt(sql, s.Stmt)
			if err != nil {
				return nil, err
			}
			res.Analyzed = true
			return res, nil
		}
		return d.explain(sql, s.Stmt)
	case *CreateTable:
		return d.createTable(sql, s)
	case *DropTable:
		if !d.MS.Exists(s.Name) {
			if s.IfExists {
				return &Result{Statement: sql}, nil
			}
			return nil, fmt.Errorf("hive: table %s not found", s.Name)
		}
		t, _ := d.MS.Get(s.Name)
		d.MS.Drop(s.Name)
		d.Env.FS.DeleteDir(t.Location)
		return &Result{Statement: sql}, nil
	case *InsertOverwrite:
		t, err := d.MS.Get(s.Table)
		if err != nil {
			return nil, err
		}
		d.Env.FS.DeleteDir(t.Location)
		res, outSch, err := d.runQuery(sql, s.Select,
			dest{sinkDir: t.Location, format: t.Format})
		if err != nil {
			return nil, err
		}
		if len(outSch) != t.Schema.Len() {
			return nil, fmt.Errorf("hive: INSERT produces %d columns, table %s has %d",
				len(outSch), t.Name, t.Schema.Len())
		}
		t.Stats = gatherStats(res, t.Schema)
		d.MS.BumpVersion() // new data + stats invalidate cached plans
		return res, nil
	case *SelectStmt:
		res, _, err := d.runQuery(sql, s, dest{collect: true})
		return res, err
	default:
		return nil, fmt.Errorf("hive: unsupported statement %T", stmt)
	}
}

func (d *Driver) createTable(sql string, s *CreateTable) (*Result, error) {
	if d.MS.Exists(s.Name) {
		if s.IfNotExists {
			return &Result{Statement: sql}, nil
		}
		return nil, fmt.Errorf("hive: table %s already exists", s.Name)
	}
	format := storage.FormatText
	if s.Format != "" {
		f, err := storage.ParseFormat(s.Format)
		if err != nil {
			return nil, err
		}
		format = f
	}
	location := s.Location
	if location == "" {
		location = d.WarehouseRoot + "/" + s.Name
	}

	if s.AsSelect != nil { // CTAS
		res, outSch, err := d.runQuery(sql, s.AsSelect,
			dest{sinkDir: location, format: format})
		if err != nil {
			return nil, err
		}
		schema := outSch.toSchema()
		if err := d.MS.Create(&Table{
			Name:     s.Name,
			Schema:   schema,
			Format:   format,
			Location: location,
			Stats:    gatherStats(res, schema),
		}); err != nil {
			return nil, err
		}
		return res, nil
	}

	cols := make([]types.Column, len(s.Columns))
	for i, c := range s.Columns {
		k, err := types.ParseKind(c.Type)
		if err != nil {
			return nil, fmt.Errorf("hive: column %s: %w", c.Name, err)
		}
		cols[i] = types.Col(c.Name, k)
	}
	if err := d.MS.Create(&Table{
		Name:     s.Name,
		Schema:   &types.Schema{Columns: cols},
		Format:   format,
		Location: location,
	}); err != nil {
		return nil, err
	}
	return &Result{Statement: sql}, nil
}

// runQuery plans and executes a SELECT, returning the result and the
// output schema.
func (d *Driver) runQuery(sql string, s *SelectStmt, dst dest) (*Result, relSchema, error) {
	d.querySeq++
	qtmp := fmt.Sprintf("%s/q%05d", d.TmpRoot, d.querySeq)
	planner := &Planner{
		Env:                   d.Env,
		MS:                    d.MS,
		MapJoinThresholdBytes: d.MapJoinThresholdBytes,
		TmpRoot:               qtmp,
		DisableMapAggregation: d.DisableMapAggregation,
		DisableProjection:     d.DisableProjection,
		DisablePushdown:       d.DisablePushdown,
	}
	stages, outSch, err := planner.PlanQuery(s, dst)
	if err != nil {
		return nil, nil, err
	}
	if !d.DisablePlanCache && dst.collect {
		if key, lits, _, cacheable := normalizePlanKey(sql); cacheable {
			d.ensureMetrics()
			if d.planCache == nil {
				d.planCache = NewPlanCache(DefaultPlanCacheEntries)
			}
			d.planCache.put(&planEntry{
				key: key, literals: lits,
				msVersion:   d.MS.Version(),
				fingerprint: d.planFingerprint(),
				stages:      stages, outSch: outSch, qtmp: qtmp,
			})
			d.foldPlanCacheEvictions()
		}
	}
	return d.executePlan(sql, stages, outSch, qtmp, false)
}

// executePlan runs a planned stage DAG: the tail of runQuery, shared
// with cached-plan re-execution (cached marks the trace so the
// perfmodel drops the compile charge).
func (d *Driver) executePlan(sql string, stages []*exec.Stage, outSch relSchema,
	qtmp string, cached bool) (*Result, relSchema, error) {
	d.ensureMemTier()
	d.ensureMetrics()
	before := d.Env.Metrics.Snapshot()
	if d.Collector != nil {
		d.Collector.BeginQuery(sql)
		if cached {
			d.Collector.MarkCachedPlan()
		}
	}
	defer d.Env.FS.DeleteDir(qtmp)

	res := &Result{Statement: sql, Schema: outSch.toSchema(), CachedPlan: cached}
	deps := StageDeps(stages)
	es := &engineState{engine: d.Engine, stages: stages, adapt: d.adaptRuntime()}
	if d.ProfileLabels {
		es.query = abbreviate(sql)
	}

	var results []*exec.StageResult
	var err error
	if d.SerialStages || len(stages) < 2 {
		for _, st := range stages {
			sr, err := d.runOneStage(st, es)
			if err != nil {
				d.recordPartial(stages, deps, results)
				return nil, nil, err
			}
			results = append(results, sr)
		}
	} else {
		results, err = d.runStagesDAG(stages, deps, es)
		if err != nil {
			d.recordPartial(stages, deps, results)
			return nil, nil, err
		}
		if d.Collector != nil {
			d.Collector.MarkOverlapped()
		}
		res.Overlapped = true
	}
	res.Degraded = es.degradedName()
	// Fold each shuffle stage's virtual per-rank receive waits into the
	// registry before the snapshot so the distribution reaches this
	// statement's metrics delta.
	for _, sr := range results {
		comm.FoldWaits(d.Env.Metrics, comm.AnalyzeStage(sr.Trace, nil))
	}
	d.sampleIMGauges()
	res.Metrics = metricsDelta(before, d.Env.Metrics.Snapshot())

	// Traces and rows are assembled in plan order whatever order the
	// stages finished in, so results stay deterministic.
	for i, sr := range results {
		for _, j := range deps[i] {
			sr.Trace.DependsOn = append(sr.Trace.DependsOn, stages[j].ID)
		}
		if d.Collector != nil {
			d.Collector.AddStage(sr.Trace)
		}
		res.Stages = append(res.Stages, sr.Trace)
		if stages[i].Collect {
			res.Rows = append(res.Rows, sr.Rows...)
		}
	}
	return res, outSch, nil
}

// adaptRuntime lazily builds the skew-adaptive runtime. It lives for
// the driver's lifetime, not one statement's: warehouse directories
// persist across queries, so partition statistics observed while
// materializing a table adapt every later statement that reads it
// (and cached-plan re-runs learn from their own earlier executions).
func (d *Driver) adaptRuntime() *adapt.Runtime {
	if !d.AdaptiveSkew {
		return nil
	}
	if d.adaptRT == nil {
		d.adaptRT = adapt.New()
	}
	d.adaptRT.Cluster = d.Cluster
	d.adaptRT.Params = d.perfParams
	return d.adaptRT
}

// AttachCluster wires the node-level failure domain into the driver:
// the membership becomes the engines' host-liveness view, its state
// transitions drive the DFS (SUSPECT fails reads over, DEAD drops the
// node's replicas and queues re-replication, UP readmits), and the
// re-replication pipeline is priced through the perfmodel params (nil =
// defaults). The detector advances one heartbeat interval per completed
// stage — the query execution clock and the failure detector share the
// same virtual time.
func (d *Driver) AttachCluster(m *cluster.Membership, p *perfmodel.Params) {
	if p == nil {
		def := perfmodel.DefaultParams()
		p = &def
	}
	d.Cluster = m
	d.perfParams = p
	d.Env.Nodes = m
	d.ensureMetrics()
	m.SetMetrics(d.Env.Metrics)
	fs := d.Env.FS
	fs.SetRepairCharge(p.RereplicationSeconds)
	m.Subscribe(func(ev cluster.Event) {
		switch ev.To {
		case cluster.Dead:
			fs.NodeDead(ev.Node)
		case cluster.Suspect:
			fs.NodeSuspect(ev.Node)
		case cluster.Up:
			fs.NodeUp(ev.Node)
		}
	})
}

// tickCluster advances the failure detector by one heartbeat interval
// and runs one bandwidth-bounded re-replication pass, attributing the
// recovery charge to the stage that just completed (the repair traffic
// shares the fabric with the query). No-op without an attached cluster.
func (d *Driver) tickCluster(sr *exec.StageResult) {
	m := d.Cluster
	if m == nil {
		return
	}
	interval := m.Interval()
	m.Advance(interval)
	c := d.perfParams.Cluster
	bw := c.DiskReadBW
	if c.NetBW < bw {
		bw = c.NetBW
	}
	if c.DiskWriteBW < bw {
		bw = c.DiskWriteBW
	}
	st := d.Env.FS.Repair(int64(bw * interval))
	if st.Seconds > 0 && sr != nil && sr.Trace != nil {
		sr.Trace.RereplicationSec += st.Seconds
	}
}

// ensureMemTier lazily attaches the in-memory intermediate store
// covering TmpRoot once a hive.exec.inmem.bytes budget is configured.
func (d *Driver) ensureMemTier() {
	if d.InMemBytes <= 0 || d.memAttached {
		return
	}
	s := imstore.New(d.InMemBytes)
	s.AddRoot(d.TmpRoot)
	d.Env.FS.SetMemTier(s)
	d.memStore = s
	d.memAttached = true
}

// ensureMetrics guarantees the query runs with a live observability
// registry (creating one when the caller supplied none) and wires it
// into the filesystem's byte counters once.
func (d *Driver) ensureMetrics() {
	if d.Env.Metrics == nil {
		d.Env.Metrics = metrics.NewRegistry()
	}
	if !d.metricsAttached {
		d.Env.FS.SetMetrics(d.Env.Metrics)
		d.metricsAttached = true
	}
	if d.pcHits == nil {
		d.pcHits = d.Env.Metrics.Counter(metrics.CtrPlanCacheHits)
		d.pcMisses = d.Env.Metrics.Counter(metrics.CtrPlanCacheMisses)
		d.pcEvictions = d.Env.Metrics.Counter(metrics.CtrPlanCacheEvictions)
	}
}

// sampleIMGauges refreshes the imstore gauges from the memory tier's
// accounting (no-op without an attached tier).
func (d *Driver) sampleIMGauges() {
	if d.memStore == nil {
		return
	}
	st := d.memStore.Stats()
	r := d.Env.Metrics
	r.Gauge(metrics.GaugeIMUsedBytes).Set(st.Used)
	r.Gauge(metrics.GaugeIMHWMBytes).Set(st.HighWater)
	r.Gauge(metrics.GaugeIMAdmitted).Set(st.Admitted)
	r.Gauge(metrics.GaugeIMRejected).Set(st.Rejected)
	r.Gauge(metrics.GaugeIMFiles).Set(int64(st.Files))
}

// metricsDelta extracts one statement's slice of the cumulative
// registry: counters as after-minus-before deltas, imstore gauges as
// their sampled absolute values. Zero entries are dropped.
func metricsDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		if strings.HasPrefix(k, "imstore.") {
			if v != 0 {
				out[k] = v
			}
			continue
		}
		if metrics.IsDistributionKey(k) {
			// Quantiles and maxima do not subtract: report the cumulative
			// value, and only when the underlying distribution grew during
			// this statement.
			base := k[:strings.LastIndex(k, ".")]
			if v != 0 && after[base+".count"] != before[base+".count"] {
				out[k] = v
			}
			continue
		}
		if dv := v - before[k]; dv != 0 {
			out[k] = dv
		}
	}
	return out
}

// recordPartial preserves the traces of the stages that did complete
// when a mid-query stage failed, so a failed DAG run still contributes
// its finished stages to the collector (annotated with their
// dependencies, like the success path).
func (d *Driver) recordPartial(stages []*exec.Stage, deps [][]int, results []*exec.StageResult) {
	if d.Collector == nil {
		return
	}
	for i, sr := range results {
		if sr == nil {
			continue
		}
		for _, j := range deps[i] {
			sr.Trace.DependsOn = append(sr.Trace.DependsOn, stages[j].ID)
		}
		d.Collector.AddStage(sr.Trace)
	}
}

// explain plans the statement and renders the stage DAG.
func (d *Driver) explain(sql string, stmt Statement) (*Result, error) {
	var sel *SelectStmt
	var dst dest
	switch s := stmt.(type) {
	case *SelectStmt:
		sel, dst = s, dest{collect: true}
	case *InsertOverwrite:
		t, err := d.MS.Get(s.Table)
		if err != nil {
			return nil, err
		}
		sel, dst = s.Select, dest{sinkDir: t.Location, format: t.Format}
	case *CreateTable:
		if s.AsSelect == nil {
			return &Result{Statement: sql, Plan: "DDL: CREATE TABLE " + s.Name}, nil
		}
		sel, dst = s.AsSelect, dest{sinkDir: "/explain", format: storage.FormatText}
	default:
		return &Result{Statement: sql, Plan: fmt.Sprintf("DDL: %T", stmt)}, nil
	}
	planner := &Planner{
		Env:                   d.Env,
		MS:                    d.MS,
		MapJoinThresholdBytes: d.MapJoinThresholdBytes,
		TmpRoot:               d.TmpRoot + "/explain",
	}
	stages, _, err := planner.PlanQuery(sel, dst)
	if err != nil {
		return nil, err
	}
	return &Result{Statement: sql, Plan: RenderPlan(stages)}, nil
}

// RenderPlan renders a stage DAG as indented text (EXPLAIN output).
func RenderPlan(stages []*exec.Stage) string {
	var sb strings.Builder
	for i, st := range stages {
		fmt.Fprintf(&sb, "STAGE %d: %s", i+1, st.ID)
		if st.LastStage {
			sb.WriteString(" (final)")
		}
		sb.WriteByte('\n')
		for mi, mw := range st.Maps {
			src := mw.Input.Table
			if src == "" {
				src = mw.Input.Dir
			}
			fmt.Fprintf(&sb, "  Map %d: scan %s [%s]", mi, src, mw.Input.Format)
			if mw.Input.Projection != nil {
				fmt.Fprintf(&sb, " project=%v", mw.Input.Projection)
			}
			if mw.Input.Predicate != nil {
				sb.WriteString(" pushdown")
			}
			sb.WriteByte('\n')
			for _, op := range mw.Ops {
				fmt.Fprintf(&sb, "    %s\n", op)
			}
			if mw.Keys != nil {
				fmt.Fprintf(&sb, "    ReduceSink[tag=%d, %d keys, %d values]\n",
					mw.Tag, len(mw.Keys), len(mw.Values))
			}
		}
		if st.Reduce != nil {
			fmt.Fprintf(&sb, "  Reduce: %s", st.Reduce.Op)
			if st.Reduce.Limit > 0 {
				fmt.Fprintf(&sb, " limit=%d", st.Reduce.Limit)
			}
			sb.WriteByte('\n')
			for _, op := range st.Reduce.Post {
				fmt.Fprintf(&sb, "    %s\n", op)
			}
		}
		switch {
		case st.Sink != nil && st.Collect:
			fmt.Fprintf(&sb, "  Sink: %s [%s] + collect\n", st.Sink.Dir, st.Sink.Format)
		case st.Sink != nil:
			fmt.Fprintf(&sb, "  Sink: %s [%s]\n", st.Sink.Dir, st.Sink.Format)
		default:
			sb.WriteString("  Collect\n")
		}
	}
	return sb.String()
}

// LoadTableData writes rows directly into a table's location (the
// datagen path; LOAD DATA analogue).
func (d *Driver) LoadTableData(table string, part int, rows []types.Row) error {
	t, err := d.MS.Get(table)
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/part-%05d", t.Location, part)
	w, err := storage.CreateTableFile(d.Env.FS, path, t.Format, t.Schema)
	if err != nil {
		return err
	}
	var raw int64
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return err
		}
		raw += int64(len(r.Text('|'))) + 1
	}
	t.Stats.Rows += int64(len(rows))
	t.Stats.RawBytes += raw
	d.MS.BumpVersion() // new data + stats invalidate cached plans
	return w.Close()
}

// gatherStats derives write-time table statistics from the final
// stage's trace (rows out x estimated row width).
func gatherStats(res *Result, schema *types.Schema) TableStats {
	if len(res.Stages) == 0 {
		return TableStats{}
	}
	last := res.Stages[len(res.Stages)-1]
	owner := last.Consumers
	if len(owner) == 0 {
		owner = last.Producers
	}
	var rows int64
	for _, t := range owner {
		rows += t.OutputRecords
	}
	return TableStats{Rows: rows, RawBytes: rows * EstimateRowBytes(schema)}
}
