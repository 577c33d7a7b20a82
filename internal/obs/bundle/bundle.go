// Package bundle is the run-record plane of the observability stack: it
// serializes one complete run — the span tree with virtual-time phases,
// per-statement metric deltas (including histogram quantiles), per-stage
// communication matrices and skew statistics, adapt decisions, cluster
// membership events, plan-cache hit state and the perfmodel cost
// breakdown — into a single versioned JSON document
// (hivempi.bundle/v1). Bundles are written by `hiveql -bundle` and
// `benchsuite -bundle`, and diffed by cmd/tracediff (diff.go), which
// aligns two bundles stage-by-stage over structural plan keys and
// attributes the end-to-end virtual-time delta to named categories.
//
// Every stage's virtual time is decomposed into categories that sum —
// exactly, by construction — to the stage's simulated total, so a
// critical-path walk over the bundle reconciles with the query's
// makespan and attribution is never "roughly" right.
package bundle

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hivempi/internal/obs"
	"hivempi/internal/obs/comm"
	"hivempi/internal/perfmodel"
	"hivempi/internal/trace"
)

// Schema identifies the bundle layout; bump on breaking changes so
// tracediff can reject bundles it cannot parse.
const Schema = "hivempi.bundle/v1"

// Attribution categories. Every stage's simulated total decomposes into
// these (compile is query-level); the order here is the canonical
// rendering order.
const (
	CatCompile   = "compile"    // parse + plan (absent on plan-cache hits)
	CatStartup   = "startup"    // job submit -> first task launch
	CatScan      = "scan"       // producer-side input read (launch+read)
	CatCompute   = "compute"    // operator CPU, map and reduce side
	CatCombiner  = "combiner"   // map-side combine share of the map CPU
	CatShuffle   = "shuffle"    // wire time: O/copy tail + consumer merge
	CatAwaitSkew = "await_skew" // reduce-phase excess over balanced work
	CatWrite     = "write"      // spill + sink materialization
	CatRecovery  = "recovery"   // retries, chaos delays, re-replication
	CatAdapt     = "adapt"      // skew-adaptive replanning charge
)

// Categories lists every category in canonical rendering order.
var Categories = []string{
	CatCompile, CatStartup, CatScan, CatCompute, CatCombiner,
	CatShuffle, CatAwaitSkew, CatWrite, CatRecovery, CatAdapt,
}

// Bundle is one serialized run record.
type Bundle struct {
	Schema  string         `json:"schema"`
	Label   string         `json:"label,omitempty"` // e.g. "skew.off"
	Queries []*QueryRecord `json:"queries"`
	// Events are cluster membership transitions observed during the run
	// (empty when no failure domain was attached).
	Events []ClusterEvent `json:"cluster_events,omitempty"`
}

// ClusterEvent mirrors cluster.Event without importing the package.
type ClusterEvent struct {
	Node string  `json:"node"`
	From string  `json:"from"`
	To   string  `json:"to"`
	At   float64 `json:"at_sec"`
}

// QueryRecord is one statement's complete run record.
type QueryRecord struct {
	Statement  string `json:"statement"`
	PlanKey    string `json:"plan_key"` // stage keys joined in plan order
	Overlapped bool   `json:"overlapped,omitempty"`
	CachedPlan bool   `json:"cached_plan,omitempty"`
	Degraded   string `json:"degraded,omitempty"`

	CompileSec float64 `json:"compile_sec"`
	TotalSec   float64 `json:"total_sec"`

	// Metrics is the statement's registry delta (counters, histogram
	// quantiles, imstore gauges), as reported by the driver.
	Metrics map[string]int64 `json:"metrics,omitempty"`

	Stages []*StageRecord `json:"stages"`
	// Spans is the reconstructed query->stage->task->phase tree.
	Spans *SpanRecord `json:"spans,omitempty"`
}

// StageRecord is one stage's virtual-time and communication record.
type StageRecord struct {
	Name      string   `json:"name"`
	Engine    string   `json:"engine"`
	PlanKey   string   `json:"plan_key"` // structural, rename-robust
	DependsOn []string `json:"depends_on,omitempty"`
	NumMaps   int      `json:"num_maps"`
	NumReds   int      `json:"num_reds"`

	StartSec float64 `json:"start_sec"` // launch offset within the query
	TotalSec float64 `json:"total_sec"`

	// The paper's startup / Map-Shuffle / others breakdown.
	StartupSec    float64 `json:"startup_sec"`
	MapShuffleSec float64 `json:"map_shuffle_sec"`
	OthersSec     float64 `json:"others_sec"`

	// Categories decomposes TotalSec exactly (see categorize).
	Categories map[string]float64 `json:"categories"`

	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"` // scaled to paper size

	// Comm is the analyzed communication matrix with skew statistics
	// and per-rank waits (nil for stages without a shuffle).
	Comm *comm.StageComm `json:"comm,omitempty"`

	Adapt    *AdaptRecord    `json:"adapt,omitempty"`
	Recovery *RecoveryRecord `json:"recovery,omitempty"`
}

// AdaptRecord is the stage's skew-adaptive decision.
type AdaptRecord struct {
	Split   int     `json:"split"` // heavy buckets split onto extra ranks
	Fused   int     `json:"fused"` // light buckets folded together
	PlanSec float64 `json:"plan_sec"`
}

// RecoveryRecord is the stage's fault-tolerance accounting.
type RecoveryRecord struct {
	Attempts         int     `json:"attempts,omitempty"`
	TaskRetries      int     `json:"task_retries,omitempty"`
	RetryBackoffSec  float64 `json:"retry_backoff_sec,omitempty"`
	ChaosDelaySec    float64 `json:"chaos_delay_sec,omitempty"`
	RereplicationSec float64 `json:"rereplication_sec,omitempty"`
	Relaunched       bool    `json:"relaunched,omitempty"`
}

// SpanRecord serializes one node of the obs span tree.
type SpanRecord struct {
	Name     string            `json:"name"`
	Kind     string            `json:"kind"`
	Start    float64           `json:"start_sec"`
	End      float64           `json:"end_sec"`
	Engine   string            `json:"engine,omitempty"`
	Slot     int               `json:"slot,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanRecord     `json:"children,omitempty"`
}

// StatementInfo carries the driver-side facts about one executed
// statement (hive.Result fields, flattened so this package does not
// import the driver). Statements are matched to collector queries by
// exact statement string, in order.
type StatementInfo struct {
	Statement string
	Metrics   map[string]int64
	Degraded  string
}

// BuildInput is everything Build needs beyond the model params.
type BuildInput struct {
	Label      string
	Queries    []*trace.Query
	Statements []StatementInfo // optional; matched in order by statement
	Events     []ClusterEvent
}

// Build simulates every recorded query under p and assembles the run
// bundle. A nil params builds against perfmodel defaults. DDL and
// EXPLAIN statements produce no collector query, so Statements may be a
// superset of Queries; the match is a forward scan by statement string.
func Build(in BuildInput, p *perfmodel.Params) *Bundle {
	if p == nil {
		def := perfmodel.DefaultParams()
		p = &def
	}
	b := &Bundle{Schema: Schema, Label: in.Label, Events: in.Events}
	si := 0
	for _, q := range in.Queries {
		var info *StatementInfo
		for j := si; j < len(in.Statements); j++ {
			if in.Statements[j].Statement == q.Statement {
				info = &in.Statements[j]
				si = j + 1
				break
			}
		}
		b.Queries = append(b.Queries, buildQuery(q, info, p))
	}
	return b
}

func buildQuery(q *trace.Query, info *StatementInfo, p *perfmodel.Params) *QueryRecord {
	span, sim := obs.BuildQuerySpans(q, p)
	keys := planKeys(q.Stages)
	qr := &QueryRecord{
		Statement:  q.Statement,
		PlanKey:    strings.Join(keys, "+"),
		Overlapped: q.Overlapped,
		CachedPlan: q.CachedPlan,
		CompileSec: sim.Compile,
		TotalSec:   sim.Total,
		Spans:      spanRecord(span),
	}
	if info != nil {
		qr.Metrics = info.Metrics
		qr.Degraded = info.Degraded
	}
	for i, st := range q.Stages {
		if i >= len(sim.Stages) {
			break
		}
		qr.Stages = append(qr.Stages, buildStage(st, sim.Stages[i], keys[i], p))
	}
	return qr
}

func buildStage(st *trace.Stage, sim *perfmodel.StageTiming, key string, p *perfmodel.Params) *StageRecord {
	sr := &StageRecord{
		Name:          st.Name,
		Engine:        st.Engine,
		PlanKey:       key,
		DependsOn:     append([]string(nil), st.DependsOn...),
		NumMaps:       st.NumMaps,
		NumReds:       st.NumReds,
		StartSec:      sim.StartAt,
		TotalSec:      sim.Total,
		StartupSec:    sim.Startup,
		MapShuffleSec: sim.MapShuffle,
		OthersSec:     sim.Others,
		Categories:    categorize(st, sim, p),
		ShuffleBytes:  int64(float64(st.TotalShuffleBytes()) * p.ScaleUp),
		Comm:          comm.AnalyzeStage(st, p),
	}
	if st.AdaptSplit != 0 || st.AdaptFused != 0 || st.AdaptSec > 0 {
		sr.Adapt = &AdaptRecord{Split: st.AdaptSplit, Fused: st.AdaptFused, PlanSec: st.AdaptSec}
	}
	if st.Attempts > 1 || st.TaskRetries > 0 || st.RetryBackoffSec > 0 ||
		st.ChaosDelaySec > 0 || st.RereplicationSec > 0 || st.Relaunched {
		sr.Recovery = &RecoveryRecord{
			Attempts:         st.Attempts,
			TaskRetries:      st.TaskRetries,
			RetryBackoffSec:  st.RetryBackoffSec,
			ChaosDelaySec:    st.ChaosDelaySec,
			RereplicationSec: st.RereplicationSec,
			Relaunched:       st.Relaunched,
		}
	}
	return sr
}

// categorize decomposes one stage's simulated total into the named
// attribution categories. The decomposition is exact: the parts are
// derived from the same boundaries SimulateStage placed (startup |
// map phase | shuffle tail | reduce phase | recovery+adapt extras), the
// map and reduce phases are split proportionally over the task spans'
// read/compute/write segments, the reduce phase's excess over its
// balanced work (total consumer seconds / distinct slots) lands in
// await_skew, and the float residual is folded into compute so the sum
// equals TotalSec bit-for-bit within epsilon. This is a hivelint hot
// root (HotRootMethods): it runs per stage on every bundle capture and
// must stay allocation-clean in its loops.
func categorize(st *trace.Stage, sim *perfmodel.StageTiming, p *perfmodel.Params) map[string]float64 {
	e := p.Hadoop
	if st.Engine == "datampi" {
		e = p.DataMPI
	}

	// Extras charged after the reduce phase by SimulateStage.
	recovery := st.RetryBackoffSec + st.ChaosDelaySec + st.RereplicationSec
	if st.Attempts > 1 {
		recovery += float64(st.Attempts-1) * e.JobStartup
	}
	adaptSec := st.AdaptSec

	// Map phase wall time, split over the producers' segment sums.
	mapPhase := sim.MapEnd - sim.MapStart
	if mapPhase < 0 {
		mapPhase = 0
	}
	var readSum, compSum, writeSum float64
	for i := range sim.Producers {
		sp := &sim.Producers[i]
		readSum += sp.ReadEnd - sp.Start
		compSum += sp.ComputeEnd - sp.ReadEnd
		writeSum += sp.End - sp.ComputeEnd
	}
	scan, mapComp, mapWrite := splitProportional(mapPhase, readSum, compSum, writeSum)

	// Combiner share carved out of the map compute: priced like the
	// model prices per-record CPU over the pairs the combiner consumed.
	var combPairs float64
	for _, t := range st.Producers {
		combPairs += float64(t.CombineInPairs)
	}
	combiner := combPairs * p.ScaleUp * p.Cluster.CPUPerRecord * e.CPUFactor
	if combiner > mapComp {
		combiner = mapComp
	}
	mapComp -= combiner

	// Shuffle tail beyond the last map.
	shuffle := sim.ShuffleEnd - sim.MapEnd
	if shuffle < 0 {
		shuffle = 0
	}

	// Reduce phase: the balanced share is the total consumer seconds
	// spread over the distinct slots actually used; anything beyond it
	// is serialization behind heavy ranks — the skew/A-wait excess.
	reduceEnd := sim.Total - recovery - adaptSec
	reducePhase := reduceEnd - sim.ShuffleEnd
	if reducePhase < 0 {
		reducePhase = 0
	}
	maxSlot := -1
	for i := range sim.Consumers {
		if sim.Consumers[i].Slot > maxSlot {
			maxSlot = sim.Consumers[i].Slot
		}
	}
	used := make([]bool, maxSlot+1)
	distinct := 0
	var rMerge, rComp, rWrite, rDur float64
	for i := range sim.Consumers {
		sp := &sim.Consumers[i]
		rMerge += sp.ReadEnd - sp.Start
		rComp += sp.ComputeEnd - sp.ReadEnd
		rWrite += sp.End - sp.ComputeEnd
		rDur += sp.End - sp.Start
		if !used[sp.Slot] {
			used[sp.Slot] = true
			distinct++
		}
	}
	balanced := 0.0
	if distinct > 0 {
		balanced = rDur / float64(distinct)
	}
	if balanced > reducePhase {
		balanced = reducePhase
	}
	skew := reducePhase - balanced
	redMerge, redComp, redWrite := splitProportional(balanced, rMerge, rComp, rWrite)

	cat := make(map[string]float64, len(Categories))
	cat[CatStartup] = sim.Startup
	cat[CatScan] = scan
	cat[CatCompute] = mapComp + redComp
	cat[CatCombiner] = combiner
	cat[CatShuffle] = shuffle + redMerge
	cat[CatAwaitSkew] = skew
	cat[CatWrite] = mapWrite + redWrite
	cat[CatRecovery] = recovery
	cat[CatAdapt] = adaptSec

	// Fold the float residual into compute so the category sum equals
	// the stage total exactly.
	sum := cat[CatStartup] + cat[CatScan] + cat[CatCompute] + cat[CatCombiner] +
		cat[CatShuffle] + cat[CatAwaitSkew] + cat[CatWrite] + cat[CatRecovery] + cat[CatAdapt]
	cat[CatCompute] += sim.Total - sum
	return cat
}

// splitProportional divides total over three weights, returning parts
// that sum to total (modulo float error; callers fold the residual).
func splitProportional(total, a, b, c float64) (pa, pb, pc float64) {
	w := a + b + c
	if w <= 0 {
		return 0, total, 0 // no segments recorded: attribute to compute
	}
	return total * a / w, total * b / w, total * c / w
}

// planKeys derives a structural key per stage: a short hash over the
// stage's shape (map-only vs reduce, engine) and its dependencies'
// keys — never the stage name — so two runs of the same plan align even
// when the planner numbered the stages differently. Identical siblings
// are disambiguated with an ordinal suffix in plan order (which the
// planner emits deterministically).
func planKeys(stages []*trace.Stage) []string {
	index := make(map[string]int, len(stages))
	for i, st := range stages {
		index[st.Name] = i
	}
	keys := make([]string, len(stages))
	for i, st := range stages {
		h := fnv.New64a()
		if st.NumReds > 0 || len(st.Consumers) > 0 {
			io.WriteString(h, "reduce|")
		} else {
			io.WriteString(h, "map|")
		}
		io.WriteString(h, st.Engine)
		deps := make([]string, 0, len(st.DependsOn))
		for _, dep := range st.DependsOn {
			if j, ok := index[dep]; ok && j < i {
				deps = append(deps, keys[j])
			}
		}
		sortStrings(deps)
		for _, dk := range deps {
			io.WriteString(h, "|")
			io.WriteString(h, dk)
		}
		keys[i] = strconv.FormatUint(h.Sum64()&0xffffffff, 16)
	}
	counts := make(map[string]int, len(keys))
	for i, k := range keys {
		n := counts[k]
		counts[k] = n + 1
		if n > 0 {
			keys[i] = k + "#" + strconv.Itoa(n)
		}
	}
	return keys
}

// sortStrings is an insertion sort over the (tiny) dependency key
// lists, keeping planKeys free of sort.Slice closures.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func spanRecord(s *obs.Span) *SpanRecord {
	if s == nil {
		return nil
	}
	r := &SpanRecord{
		Name:   s.Name,
		Kind:   string(s.Kind),
		Start:  s.Start,
		End:    s.End,
		Engine: s.Engine,
		Slot:   s.Slot,
	}
	if len(s.Attrs) > 0 {
		r.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			r.Attrs[k] = v
		}
	}
	for _, c := range s.Children {
		r.Children = append(r.Children, spanRecord(c))
	}
	return r
}

// reconcileTol is the relative tolerance for category-sum checks; the
// decomposition folds its residual, so anything beyond float noise is a
// construction bug.
const reconcileTol = 1e-6

// Validate checks the bundle's internal consistency: schema tag, that
// every stage's categories sum to its total, that the critical path's
// category sums reconcile with the query total, finite values
// throughout, and valid embedded comm matrices.
func (b *Bundle) Validate() error {
	if b == nil {
		return fmt.Errorf("bundle: nil")
	}
	if b.Schema != Schema {
		return fmt.Errorf("bundle: schema %q, want %q", b.Schema, Schema)
	}
	for qi, q := range b.Queries {
		if err := q.validate(); err != nil {
			return fmt.Errorf("bundle: query %d (%s): %w", qi, abbreviate(q.Statement), err)
		}
	}
	return nil
}

func (q *QueryRecord) validate() error {
	if !isFinite(q.TotalSec) || !isFinite(q.CompileSec) {
		return fmt.Errorf("non-finite totals: total=%v compile=%v", q.TotalSec, q.CompileSec)
	}
	var commStages []*comm.StageComm
	for _, st := range q.Stages {
		var sum float64
		for _, c := range Categories {
			v := st.Categories[c]
			if !isFinite(v) {
				return fmt.Errorf("stage %s: category %s is %v, want finite", st.Name, c, v)
			}
			if v < -reconcileTol {
				return fmt.Errorf("stage %s: category %s is negative (%v)", st.Name, c, v)
			}
			sum += v
		}
		for c := range st.Categories {
			if !knownCategory(c) {
				return fmt.Errorf("stage %s: unknown category %q", st.Name, c)
			}
		}
		if d := math.Abs(sum - st.TotalSec); d > reconcileTol*(1+st.TotalSec) {
			return fmt.Errorf("stage %s: categories sum to %v, total is %v (off by %v)",
				st.Name, sum, st.TotalSec, d)
		}
		if st.Comm != nil {
			commStages = append(commStages, st.Comm)
		}
	}
	// The critical-path categories plus compile must reconcile with the
	// query's virtual makespan — this is the invariant tracediff's
	// attribution rests on.
	pc := q.PathCategories()
	var sum float64
	for _, c := range Categories {
		sum += pc[c]
	}
	if d := math.Abs(sum - q.TotalSec); d > reconcileTol*(1+q.TotalSec) {
		return fmt.Errorf("critical-path categories sum to %v, query total is %v (off by %v)",
			sum, q.TotalSec, d)
	}
	if len(commStages) > 0 {
		rep := &comm.Report{Schema: comm.Schema, Queries: []*comm.QueryComm{
			{Statement: q.Statement, Stages: commStages},
		}}
		if err := rep.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func knownCategory(c string) bool {
	for _, k := range Categories {
		if k == c {
			return true
		}
	}
	return false
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// WriteJSON serializes the bundle deterministically (indented, fixed
// field order; map keys sort under encoding/json).
func WriteJSON(w io.Writer, b *Bundle) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadJSON decodes and validates a bundle, rejecting unknown schema
// versions before touching the rest of the document.
func ReadJSON(r io.Reader) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if probe.Schema != Schema {
		return nil, fmt.Errorf("bundle: unknown schema %q (this tool reads %q)", probe.Schema, Schema)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// ReadFile loads and validates a bundle from path.
func ReadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// WriteFile serializes a validated bundle to path.
func WriteFile(path string, b *Bundle) error {
	if err := b.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
