// Package adapt is the skew-adaptive runtime: it closes the loop from
// the communication plane (obs/comm partition statistics of completed
// stages) back into the planning and scheduling of downstream stages.
// The paper's thesis is that Hive loses time to irregular shuffle
// communication; PR 5 built the instrumentation to see the
// irregularity, and this package acts on it:
//
//  1. adaptive repartitioning — when a completed producer stage's
//     partition-bytes CV exceeds hive.skew.cv.threshold, heavy
//     partitions are split by a secondary key hash across several
//     consumer ranks and light ones fused onto shared ranks, rewriting
//     the consumer stage's reducer count and partition map before it
//     launches;
//  2. skew-aware A-task placement — predicted-heavy target ranks go to
//     the nodes with the lowest observed load instead of round-robin;
//  3. combiner-strength selection — the map-side hash-aggregation
//     capacity is re-sized per stage from the record-compression
//     ratios observed on earlier runs of the same stage;
//  4. predictive speculation — a target rank predicted heavy and
//     placed on a SUSPECT or historically slow node gets its backup
//     launched at stage start (exec.PredictiveDetectSec) instead of
//     waiting for observed lag.
//
// Correctness: the rewritten partition map is a pure function of the
// shuffle key's partition prefix, so no key group ever straddles two
// consumer ranks, and the kvio merge order is content-determined (key
// bytes then value bytes) — downstream shuffle consumers therefore
// produce byte-identical results under any repartitioning. The only
// order-sensitive readers are map-side LIMITs and map-only collected
// stages, which Decide gates out conservatively; combiner re-sizing
// changes the partial-row multiset, so it is applied only when every
// affected aggregate merges exactly (count/min/max).
package adapt

import (
	"sort"
	"sync"

	"hivempi/internal/cluster"
	"hivempi/internal/exec"
	"hivempi/internal/obs/comm"
	"hivempi/internal/perfmodel"
	"hivempi/internal/trace"
)

// DefaultCVThreshold is the partition-bytes coefficient-of-variation
// above which a producer's distribution counts as skewed
// (hive.skew.cv.threshold).
const DefaultCVThreshold = 0.8

// Combiner-strength bounds: observed-compression feedback re-sizes the
// map-side hash aggregation capacity within [MinHashAggEntries,
// MaxHashAggEntries] around exec.DefaultHashAggEntries.
const (
	MinHashAggEntries = 1 << 10
	MaxHashAggEntries = 1 << 20
)

// producerStats is what Observe retains about one completed stage,
// keyed by its sink directory (= the downstream stages' input dir).
type producerStats struct {
	// partBytes[b] is the observed weight of partition b: the bytes the
	// b-th consumer materialized to the sink when known, else its
	// shuffle column bytes.
	partBytes []int64
	cv        float64
}

// combinerStats accumulates a stage's map-side record compression
// (output records / input records) across runs, keyed by stage
// identity.
type combinerStats struct {
	inRecords  int64
	outRecords int64
}

// Runtime carries the observations and hands out per-stage
// adaptations. Safe for concurrent use: the DAG scheduler calls
// Observe/Decide from concurrently running stage goroutines.
type Runtime struct {
	// Cluster, when set, supplies node states for placement and
	// predictive speculation.
	Cluster *cluster.Membership
	// Params prices the replanning cost (nil = perfmodel defaults).
	Params *perfmodel.Params

	mu       sync.Mutex
	byDir    map[string]*producerStats
	byStage  map[string]*combinerStats
	nodeLoad map[string]int64 // observed bytes processed per host
	nodeSlow map[string]bool  // hosts with observed straggler delay
}

// New builds a runtime with no observations.
func New() *Runtime {
	return &Runtime{
		byDir:    make(map[string]*producerStats),
		byStage:  make(map[string]*combinerStats),
		nodeLoad: make(map[string]int64),
		nodeSlow: make(map[string]bool),
	}
}

// stageKey identifies a stage across executions of the same compiled
// plan (the sink dir is baked into cached plans, so re-runs of a
// cached statement accumulate onto the same entry).
func stageKey(stage *exec.Stage) string {
	key := stage.ID
	if stage.Sink != nil {
		key += "|" + stage.Sink.Dir
	}
	return key
}

// Observe folds one completed stage's trace into the runtime: the
// partition-byte distribution at its sink (for downstream
// repartitioning), its map-side record compression (for combiner
// selection), and per-host load/straggler profiles (for placement).
func (rt *Runtime) Observe(stage *exec.Stage, st *trace.Stage) {
	if rt == nil || stage == nil || st == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	if stage.Sink != nil && stage.Shuffle != nil {
		if sc := comm.AnalyzeStage(st, rt.Params); sc != nil && sc.PartitionSkew != nil {
			weights := append([]int64(nil), sc.ColBytes...)
			// Prefer the materialized sink sizes: they are exactly what
			// the downstream stage will read per part file.
			matched := len(st.Consumers) == len(weights)
			if matched {
				for i, t := range st.Consumers {
					if t.WriteBytes > 0 {
						weights[i] = t.WriteBytes
					}
				}
			}
			rt.byDir[stage.Sink.Dir] = &producerStats{
				partBytes: weights,
				cv:        sc.PartitionSkew.CV,
			}
		}
	} else if stage.Sink != nil && len(stage.Maps) > 0 {
		// A map-only materialization (the mover a CTAS/INSERT plans to
		// copy its last shuffle's output into the table location) keeps
		// the key distribution of what it copies: carry the observed
		// histogram through to the sink, so queries over the created
		// table see the producer's skew. The histogram is a hash-space
		// profile, not a file layout, so repacking part files is fine.
		dir := stage.Maps[0].Input.Dir
		carried := dir != ""
		for i := 1; i < len(stage.Maps); i++ {
			if stage.Maps[i].Input.Dir != dir {
				carried = false
				break
			}
		}
		if carried {
			if s := rt.byDir[dir]; s != nil {
				rt.byDir[stage.Sink.Dir] = &producerStats{
					partBytes: append([]int64(nil), s.partBytes...),
					cv:        s.cv,
				}
			}
		}
	}

	cs := rt.byStage[stageKey(stage)]
	if cs == nil {
		cs = &combinerStats{}
		rt.byStage[stageKey(stage)] = cs
	}
	for _, t := range st.Producers {
		cs.inRecords += t.InputRecords
		cs.outRecords += t.OutputRecords
		rt.noteTaskLocked(t)
	}
	for _, t := range st.Consumers {
		rt.noteTaskLocked(t)
	}
}

func (rt *Runtime) noteTaskLocked(t *trace.Task) {
	if t == nil || t.Host == "" {
		return
	}
	rt.nodeLoad[t.Host] += t.InputBytes + t.ShuffleInBytes
	if t.StragglerDelaySec > 0 {
		rt.nodeSlow[t.Host] = true
	}
}

// NodeLoad reports the observed bytes processed on host (tests and
// diagnostics).
func (rt *Runtime) NodeLoad(host string) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodeLoad[host]
}

// Decide computes the adaptation for a stage about to launch, or nil
// when the stage must run its planned geometry. allStages is the full
// plan (for reader-safety analysis of the stage's sink consumers).
func (rt *Runtime) Decide(stage *exec.Stage, allStages []*exec.Stage, conf *exec.EngineConf) *exec.ShuffleAdaptation {
	if rt == nil || stage == nil || conf == nil {
		return nil
	}
	if !eligible(stage, allStages, conf) {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	ad := rt.repartitionLocked(stage, conf)
	if entries := rt.combinerEntriesLocked(stage); entries > 0 {
		if ad == nil {
			ad = &exec.ShuffleAdaptation{}
		}
		ad.HashAggEntries = entries
	}
	return ad
}

// eligible gates adaptation to stages whose results are invariant
// under a partition-map rewrite (see the package comment).
func eligible(stage *exec.Stage, allStages []*exec.Stage, conf *exec.EngineConf) bool {
	if stage.Shuffle == nil || len(stage.Maps) == 0 {
		return false
	}
	if conf.Parallelism != exec.ParallelismDefault {
		// Enhanced mode ties the reducer count to the map count by
		// definition; rewriting it would change the strategy under test.
		return false
	}
	if stage.LastStage || stage.Collect {
		// Collected/final row order follows the consumer-rank order.
		return false
	}
	if stage.Shuffle.NumReducers == 1 {
		// Semantically bound to a single reducer (ORDER BY, global agg).
		return false
	}
	if stage.Maps[0].Keys != nil && len(stage.Maps[0].Keys) == 0 {
		return false // global aggregation: one group, one reducer
	}
	if stage.Reduce != nil {
		if stage.Reduce.Limit > 0 || !opsOrderSafe(stage.Reduce.Post) {
			// Per-rank LIMIT cuts depend on the partition map.
			return false
		}
	}
	if stage.Sink != nil && !readersSafe(stage.Sink.Dir, allStages, 0) {
		return false
	}
	return true
}

// readersSafe reports whether every stage reading dir produces
// identical results when the rows of dir are rearranged across part
// files (the multiset is always preserved). Shuffle consumers absorb
// any arrangement (content-determined merge order); map-only readers
// re-expose their own output arrangement and recurse.
func readersSafe(dir string, allStages []*exec.Stage, depth int) bool {
	if depth > len(allStages) {
		return false // defensive: a sink cycle cannot happen in a DAG
	}
	for _, r := range allStages {
		reads := false
		for i := range r.Maps {
			mw := &r.Maps[i]
			if mw.Input.Dir != dir && !mapJoinReads(mw.Ops, dir) {
				continue
			}
			reads = true
			if !opsOrderSafe(mw.Ops) {
				return false
			}
		}
		if !reads {
			continue
		}
		if r.Shuffle != nil {
			continue
		}
		if r.Collect || r.LastStage {
			return false // collected row order = task order x file order
		}
		if r.Sink != nil && !readersSafe(r.Sink.Dir, allStages, depth+1) {
			return false
		}
	}
	return true
}

// mapJoinReads reports whether any map-join in ops builds its small
// side from dir.
func mapJoinReads(ops []exec.MapOp, dir string) bool {
	for _, op := range ops {
		if mj, ok := op.(*exec.MapJoinOp); ok {
			if mj.Small.Dir == dir || mapJoinReads(mj.SmallOps, dir) {
				return true
			}
		}
	}
	return false
}

// opsOrderSafe rejects op chains whose output depends on input row
// order or grouping: per-task LIMITs, and partial aggregations whose
// merge is not exact (float sums regroup inexactly).
func opsOrderSafe(ops []exec.MapOp) bool {
	for _, op := range ops {
		switch o := op.(type) {
		case *exec.LimitOp:
			return false
		case *exec.GroupByPartialOp:
			if !exactPartials(o) {
				return false
			}
		case *exec.MapJoinOp:
			if !opsOrderSafe(o.SmallOps) {
				return false
			}
		}
	}
	return true
}

// exactPartials reports whether every aggregate of a partial group-by
// merges exactly under any regrouping of its inputs.
func exactPartials(op *exec.GroupByPartialOp) bool {
	for _, a := range op.Aggs {
		if a.Distinct {
			return false
		}
		switch a.Kind {
		case exec.AggCount, exec.AggCountStar, exec.AggMin, exec.AggMax:
		default:
			return false // sum/avg: float partials re-associate
		}
	}
	return true
}

// repartitionLocked builds the split/fuse target map for the stage
// from its heaviest observed input distribution, or nil when no input
// is skewed past the threshold.
func (rt *Runtime) repartitionLocked(stage *exec.Stage, conf *exec.EngineConf) *exec.ShuffleAdaptation {
	var stats *producerStats
	for i := range stage.Maps {
		s := rt.byDir[stage.Maps[i].Input.Dir]
		if s == nil || s.cv < DefaultCVThreshold {
			continue
		}
		if stats == nil || totalOf(s.partBytes) > totalOf(stats.partBytes) {
			stats = s
		}
	}
	if stats == nil {
		return nil
	}
	base := len(stats.partBytes)
	total := totalOf(stats.partBytes)
	if base == 0 || total <= 0 {
		return nil
	}

	slots := conf.MaxSlots()
	unit := total / int64(slots)
	if unit <= 0 {
		unit = 1
	}
	mean := total / int64(base)

	// Shares per base bucket: ~weight/unit consumer ranks each, at
	// least one, at most the slot count.
	shares := make([]int, base)
	sumShares := 0
	for i, w := range stats.partBytes {
		s := int((float64(w) + 0.5*float64(unit)) / float64(unit))
		if s < 1 {
			s = 1
		}
		if s > slots {
			s = slots
		}
		shares[i] = s
		sumShares += s
	}
	// Keep the rewritten consumer count within one wave of slots by
	// shaving the largest splits.
	for sumShares > slots {
		maxI, maxS := -1, 1
		for i, s := range shares {
			if s > maxS {
				maxI, maxS = i, s
			}
		}
		if maxI < 0 {
			break
		}
		shares[maxI]--
		sumShares--
	}

	// Fuse light pass-through buckets (weight < mean/2) onto shared
	// ranks, first-fit in index order up to ~unit bytes per fused rank.
	fuseBin := make([]int, base) // -1 = not fused
	binCount := 0
	binMembers := map[int]int{}
	var binBytes int64
	curBin := -1
	for i, w := range stats.partBytes {
		fuseBin[i] = -1
		if shares[i] != 1 || w >= mean/2 {
			continue
		}
		if curBin < 0 || binBytes+w > unit {
			curBin = binCount
			binCount++
			binBytes = 0
		}
		fuseBin[i] = curBin
		binBytes += w
		binMembers[curBin]++
	}

	// Assign consumer ranks in bucket order; a fused bin takes one rank
	// shared by its members, a split bucket a contiguous run.
	targets := make([][]int, base)
	binRank := make(map[int]int, binCount)
	rank := 0
	split, fused := 0, 0
	loads := []int64{}
	for i := range stats.partBytes {
		w := stats.partBytes[i]
		if b := fuseBin[i]; b >= 0 && binMembers[b] > 1 {
			r, ok := binRank[b]
			if !ok {
				r = rank
				rank++
				binRank[b] = r
				loads = append(loads, 0)
			}
			targets[i] = []int{r}
			loads[r] += w
			fused++
			continue
		}
		n := shares[i]
		rs := make([]int, n)
		for j := 0; j < n; j++ {
			rs[j] = rank + j
			loads = append(loads, w/int64(n))
		}
		targets[i] = rs
		rank += n
		if n > 1 {
			split++
		}
	}
	if split == 0 && fused == 0 {
		return nil // observed distribution needs no rewrite
	}

	params := rt.Params
	if params == nil {
		def := perfmodel.DefaultParams()
		params = &def
	}
	ad := &exec.ShuffleAdaptation{
		BaseParts:   base,
		Targets:     targets,
		NumTargets:  rank,
		SplitParts:  split,
		FusedParts:  fused,
		PlanCostSec: params.AdaptPlanSeconds(base, rank),
	}
	ad.Hosts, ad.Speculate = rt.placeLocked(loads, unit, conf)
	return ad
}

// placeLocked assigns target ranks to hosts, heaviest predicted load
// onto the least-loaded live nodes, and flags heavy ranks landing on
// suspect or historically slow hosts for predictive speculation.
func (rt *Runtime) placeLocked(loads []int64, unit int64, conf *exec.EngineConf) ([]string, []bool) {
	candidates := make([]string, 0, len(conf.Slaves))
	for _, h := range conf.Slaves {
		if rt.Cluster != nil {
			if s, ok := rt.Cluster.State(h); ok && s != cluster.Up {
				continue
			}
		}
		candidates = append(candidates, h)
	}
	if len(candidates) == 0 {
		candidates = append(candidates, conf.Slaves...)
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	// Least observed load first; ties keep the slaves-order for
	// determinism.
	sort.SliceStable(candidates, func(a, b int) bool {
		return rt.nodeLoad[candidates[a]] < rt.nodeLoad[candidates[b]]
	})

	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return loads[order[a]] > loads[order[b]]
	})

	hosts := make([]string, len(loads))
	spec := make([]bool, len(loads))
	for pos, r := range order {
		h := candidates[pos%len(candidates)]
		hosts[r] = h
		if loads[r] >= 2*unit && rt.riskyHostLocked(h) {
			spec[r] = true
		}
	}
	return hosts, spec
}

func (rt *Runtime) riskyHostLocked(h string) bool {
	if rt.nodeSlow[h] {
		return true
	}
	if rt.Cluster != nil {
		if s, ok := rt.Cluster.State(h); ok && s != cluster.Up {
			return true
		}
	}
	return false
}

// combinerEntriesLocked re-sizes the stage's map-side hash aggregation
// from observed record compression, or 0 to keep the planned value.
// Strong compression (few output records per input) earns a larger
// hash so more rows combine before the shuffle; no compression
// (ratio near 1, high-cardinality keys) shrinks it so the map side
// stops paying for a hash that never hits.
func (rt *Runtime) combinerEntriesLocked(stage *exec.Stage) int {
	hasPartial := false
	for i := range stage.Maps {
		for _, op := range stage.Maps[i].Ops {
			if gb, ok := op.(*exec.GroupByPartialOp); ok {
				if !exactPartials(gb) {
					return 0 // resizing would regroup inexact partials
				}
				hasPartial = true
			}
		}
	}
	if !hasPartial {
		return 0
	}
	cs := rt.byStage[stageKey(stage)]
	if cs == nil || cs.inRecords == 0 || cs.outRecords == 0 {
		return 0
	}
	ratio := float64(cs.outRecords) / float64(cs.inRecords)
	entries := exec.DefaultHashAggEntries
	switch {
	case ratio >= 0.9:
		entries = MinHashAggEntries
	case ratio <= 0.1:
		entries = MaxHashAggEntries
	default:
		return 0 // planned capacity is fine
	}
	return entries
}

func totalOf(v []int64) int64 {
	var t int64
	for _, w := range v {
		t += w
	}
	return t
}
