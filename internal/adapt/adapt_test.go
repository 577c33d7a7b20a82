package adapt

import (
	"fmt"
	"testing"

	"hivempi/internal/exec"
	"hivempi/internal/testutil/leakcheck"
	"hivempi/internal/trace"
)

// testConf is a 4-node, 2-slot cluster (8 slots).
func testConf() exec.EngineConf {
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"n1", "n2", "n3", "n4"}
	conf.SlotsPerNode = 2
	return conf
}

// observeProducer feeds the runtime a completed shuffle stage whose
// sink is dir and whose consumers materialized the given per-partition
// byte weights.
func observeProducer(rt *Runtime, dir string, parts []int64) {
	prod := &exec.Stage{
		ID:      "prod_" + dir,
		Maps:    []exec.MapWork{{Input: exec.TableInput{Table: "base"}, Keys: make([]exec.Expr, 1)}},
		Shuffle: &exec.ShuffleSpec{NumReducers: len(parts)},
		Reduce:  &exec.ReduceWork{},
		Sink:    &exec.FileSinkSpec{Dir: dir},
	}
	st := &trace.Stage{
		Name:    prod.ID,
		Engine:  "datampi",
		NumMaps: 1,
		NumReds: len(parts),
		Producers: []*trace.Task{
			{ID: 0, Host: "n1", PartitionBytes: append([]int64(nil), parts...)},
		},
	}
	for i, w := range parts {
		st.Consumers = append(st.Consumers, &trace.Task{ID: i, WriteBytes: w})
	}
	rt.Observe(prod, st)
}

// consumerStage is an adaptation-eligible shuffle stage reading dir.
func consumerStage(dir string, numReds int) *exec.Stage {
	return &exec.Stage{
		ID:      "cons_" + dir,
		Maps:    []exec.MapWork{{Input: exec.TableInput{Dir: dir}, Keys: make([]exec.Expr, 1)}},
		Shuffle: &exec.ShuffleSpec{NumReducers: numReds},
		Reduce:  &exec.ReduceWork{},
		Sink:    &exec.FileSinkSpec{Dir: dir + "_out"},
	}
}

// A 10x-heavy partition must split across several consumer ranks, and
// those ranks must land on distinct hosts (the ISSUE's unit test).
func TestHeavyPartitionSplitsOntoDistinctRanks(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	observeProducer(rt, "tmp/skew", []int64{1000, 100, 100, 100})

	stage := consumerStage("tmp/skew", 4)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		t.Fatalf("skewed input did not repartition: %+v", ad)
	}
	if ad.SplitParts != 1 {
		t.Fatalf("SplitParts = %d, want 1", ad.SplitParts)
	}
	heavy := ad.Targets[0]
	if len(heavy) < 2 {
		t.Fatalf("heavy bucket got %d target ranks, want several", len(heavy))
	}
	seenRank := map[int]bool{}
	seenHost := map[string]bool{}
	for _, r := range heavy {
		if seenRank[r] {
			t.Fatalf("heavy bucket repeats rank %d: %v", r, heavy)
		}
		seenRank[r] = true
		if r < 0 || r >= ad.NumTargets {
			t.Fatalf("rank %d out of range [0,%d)", r, ad.NumTargets)
		}
		seenHost[ad.HostFor(r)] = true
	}
	// 5 ranks over 4 nodes: every node serves part of the heavy bucket.
	if want := min(len(heavy), len(conf.Slaves)); len(seenHost) != want {
		t.Fatalf("heavy ranks landed on %d distinct hosts, want %d: %v", len(seenHost), want, ad.Hosts)
	}
	if ad.NumTargets > conf.MaxSlots() {
		t.Fatalf("NumTargets %d exceeds one wave of %d slots", ad.NumTargets, conf.MaxSlots())
	}
	if ad.PlanCostSec <= 0 {
		t.Fatal("replanning cost not charged")
	}
}

// Partition must be a pure function of the key (one rank per key, no
// straddling) and must actually spread a heavy bucket's distinct keys
// over its target ranks.
func TestPartitionSpreadsKeysDeterministically(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	observeProducer(rt, "tmp/spread", []int64{1000, 100, 100, 100})
	stage := consumerStage("tmp/spread", 4)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		t.Fatal("no repartitioning")
	}
	hits := make([]int, ad.NumTargets)
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		r := ad.Partition(key, 0, 1)
		if r2 := ad.Partition(key, 0, 1); r2 != r {
			t.Fatalf("key %q mapped to both rank %d and %d", key, r, r2)
		}
		if r < 0 || r >= ad.NumTargets {
			t.Fatalf("key %q mapped out of range: %d", key, r)
		}
		hits[r]++
	}
	for r, n := range hits {
		if n == 0 {
			t.Fatalf("rank %d received no keys: %v", r, hits)
		}
	}
}

// Light partitions (pass-through weight below half the mean) fuse onto
// a shared rank.
func TestLightPartitionsFuse(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	// 2 slots: the heavy bucket cannot split, so the light buckets'
	// fusion is the whole rewrite and the consumer count shrinks.
	conf.Slaves = []string{"n1", "n2"}
	conf.SlotsPerNode = 1
	observeProducer(rt, "tmp/fuse", []int64{100, 10, 10, 10, 10})
	stage := consumerStage("tmp/fuse", 5)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		t.Fatal("no repartitioning")
	}
	if ad.FusedParts != 4 {
		t.Fatalf("FusedParts = %d, want 4", ad.FusedParts)
	}
	shared := ad.Targets[1][0]
	for b := 1; b <= 4; b++ {
		if len(ad.Targets[b]) != 1 || ad.Targets[b][0] != shared {
			t.Fatalf("light bucket %d targets %v, want shared rank %d", b, ad.Targets[b], shared)
		}
	}
	if ad.NumTargets >= 5 {
		t.Fatalf("fusion did not shrink the consumer count: %d", ad.NumTargets)
	}
}

// A balanced distribution below the CV threshold keeps its planned
// geometry.
func TestBalancedInputNotRepartitioned(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	observeProducer(rt, "tmp/flat", []int64{100, 110, 100, 120})
	stage := consumerStage("tmp/flat", 4)
	if ad := rt.Decide(stage, []*exec.Stage{stage}, &conf); ad != nil {
		t.Fatalf("balanced input adapted: %+v", ad)
	}
}

// Decide must refuse every stage shape whose output depends on the
// partition map.
func TestEligibilityGates(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	observeProducer(rt, "tmp/gate", []int64{1000, 100, 100, 100})

	cases := []struct {
		name string
		mut  func(stage *exec.Stage, all *[]*exec.Stage, conf *exec.EngineConf)
	}{
		{"last stage", func(s *exec.Stage, _ *[]*exec.Stage, _ *exec.EngineConf) { s.LastStage = true }},
		{"collected", func(s *exec.Stage, _ *[]*exec.Stage, _ *exec.EngineConf) { s.Collect = true }},
		{"single reducer", func(s *exec.Stage, _ *[]*exec.Stage, _ *exec.EngineConf) { s.Shuffle.NumReducers = 1 }},
		{"global aggregation", func(s *exec.Stage, _ *[]*exec.Stage, _ *exec.EngineConf) { s.Maps[0].Keys = []exec.Expr{} }},
		{"reduce limit", func(s *exec.Stage, _ *[]*exec.Stage, _ *exec.EngineConf) { s.Reduce.Limit = 10 }},
		{"enhanced parallelism", func(_ *exec.Stage, _ *[]*exec.Stage, c *exec.EngineConf) { c.Parallelism = exec.ParallelismEnhanced }},
		{"order-sensitive reader", func(s *exec.Stage, all *[]*exec.Stage, _ *exec.EngineConf) {
			*all = append(*all, &exec.Stage{
				ID: "reader",
				Maps: []exec.MapWork{{
					Input: exec.TableInput{Dir: s.Sink.Dir},
					Ops:   []exec.MapOp{&exec.LimitOp{N: 3}},
				}},
				Collect: true,
			})
		}},
		{"collecting map-only reader", func(s *exec.Stage, all *[]*exec.Stage, _ *exec.EngineConf) {
			*all = append(*all, &exec.Stage{
				ID:      "reader",
				Maps:    []exec.MapWork{{Input: exec.TableInput{Dir: s.Sink.Dir}}},
				Collect: true,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conf := testConf()
			stage := consumerStage("tmp/gate", 4)
			all := []*exec.Stage{stage}
			tc.mut(stage, &all, &conf)
			if ad := rt.Decide(stage, all, &conf); ad != nil && ad.Repartitions() {
				t.Fatalf("ineligible stage adapted: %+v", ad)
			}
		})
	}

	// Control: the unmutated stage does adapt — the gates above are what
	// blocked it, not the fixture.
	conf := testConf()
	stage := consumerStage("tmp/gate", 4)
	if ad := rt.Decide(stage, []*exec.Stage{stage}, &conf); !ad.Repartitions() {
		t.Fatal("control stage did not adapt; gate cases prove nothing")
	}

	// A shuffle reader absorbs any arrangement and must NOT block.
	conf = testConf()
	stage = consumerStage("tmp/gate", 4)
	all := []*exec.Stage{stage, consumerStage(stage.Sink.Dir, 4)}
	if ad := rt.Decide(stage, all, &conf); !ad.Repartitions() {
		t.Fatal("shuffle reader wrongly blocked adaptation")
	}
}

// The heaviest predicted rank must go to the host with the least
// observed load.
func TestPlacementPrefersLeastLoadedHost(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	rt.Observe(&exec.Stage{ID: "warm"}, &trace.Stage{Producers: []*trace.Task{
		{Host: "n1", InputBytes: 5000},
		{Host: "n2", InputBytes: 10},
		{Host: "n3", InputBytes: 100},
		{Host: "n4", InputBytes: 1000},
	}})
	observeProducer(rt, "tmp/place", []int64{1000, 100, 100, 100})
	stage := consumerStage("tmp/place", 4)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		t.Fatal("no repartitioning")
	}
	// observeProducer's map task also ran on n1, but n2 stays lightest.
	if h := ad.HostFor(ad.Targets[0][0]); h != "n2" {
		t.Fatalf("heaviest rank placed on %q, want least-loaded n2 (hosts %v)", h, ad.Hosts)
	}
	if rt.NodeLoad("n1") <= rt.NodeLoad("n2") {
		t.Fatal("load accounting did not register the warm-up stage")
	}
}

// A heavy rank forced onto a historically slow host gets its backup
// pre-launched (predictive speculation).
func TestPredictiveSpeculationOnSlowHost(t *testing.T) {
	defer leakcheck.Check(t)()
	rt := New()
	conf := testConf()
	conf.Slaves = []string{"n1", "n2"}
	rt.Observe(&exec.Stage{ID: "warm"}, &trace.Stage{Producers: []*trace.Task{
		{Host: "n1", InputBytes: 10, StragglerDelaySec: 2},
		{Host: "n2", InputBytes: 20, StragglerDelaySec: 2},
	}})
	// One dominant bucket whose share gets shaved back to a single rank:
	// its load stays far above 2x the per-slot unit, and both hosts are
	// slow, so wherever it lands it must be flagged.
	observeProducer(rt, "tmp/spec", []int64{8000, 500, 500, 500})
	stage := consumerStage("tmp/spec", 4)
	ad := rt.Decide(stage, []*exec.Stage{stage}, &conf)
	if !ad.Repartitions() {
		t.Fatal("no repartitioning")
	}
	heavyRank := ad.Targets[0][0]
	if !ad.MarkPredictive(heavyRank) {
		t.Fatalf("heavy rank %d on a slow host not flagged: %v", heavyRank, ad.Speculate)
	}
	lightRank := ad.Targets[1][0]
	if ad.MarkPredictive(lightRank) {
		t.Fatal("light rank flagged for predictive speculation")
	}
}

// Combiner strength follows observed record compression: exact
// aggregates only, larger hash when the combiner compresses well,
// smaller when it never hits.
func TestCombinerStrengthSelection(t *testing.T) {
	defer leakcheck.Check(t)()
	mkStage := func(kind exec.AggKind) *exec.Stage {
		s := consumerStage("tmp/comb", 4)
		s.Maps[0].Ops = []exec.MapOp{&exec.GroupByPartialOp{
			Keys: make([]exec.Expr, 1),
			Aggs: []exec.AggSpec{{Kind: kind}},
		}}
		return s
	}
	observe := func(rt *Runtime, s *exec.Stage, in, out int64) {
		rt.Observe(s, &trace.Stage{Producers: []*trace.Task{
			{Host: "n1", InputRecords: in, OutputRecords: out},
		}})
	}

	rt := New()
	conf := testConf()
	s := mkStage(exec.AggCount)
	observe(rt, s, 1000, 50) // strong compression
	ad := rt.Decide(s, []*exec.Stage{s}, &conf)
	if ad == nil || ad.HashAggEntries != MaxHashAggEntries {
		t.Fatalf("compressing combiner: got %+v, want HashAggEntries=%d", ad, MaxHashAggEntries)
	}
	if ad.Repartitions() {
		t.Fatal("combiner-only adaptation must not rewrite the partition map")
	}

	rt = New()
	s = mkStage(exec.AggCount)
	observe(rt, s, 1000, 980) // high-cardinality keys: combiner useless
	if ad := rt.Decide(s, []*exec.Stage{s}, &conf); ad == nil || ad.HashAggEntries != MinHashAggEntries {
		t.Fatalf("non-compressing combiner: got %+v, want HashAggEntries=%d", ad, MinHashAggEntries)
	}

	rt = New()
	s = mkStage(exec.AggCount)
	observe(rt, s, 1000, 500) // unremarkable ratio: keep the plan
	if ad := rt.Decide(s, []*exec.Stage{s}, &conf); ad != nil {
		t.Fatalf("mid-range ratio adapted: %+v", ad)
	}

	rt = New()
	s = mkStage(exec.AggSum) // float partials: never resized
	observe(rt, s, 1000, 50)
	if ad := rt.Decide(s, []*exec.Stage{s}, &conf); ad != nil && ad.HashAggEntries != 0 {
		t.Fatalf("inexact aggregate resized: %+v", ad)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
