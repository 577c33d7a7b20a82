package bench

import (
	"strings"
	"testing"
)

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	cfg := QuickConfig()
	return NewRunner(cfg)
}

func TestTableI(t *testing.T) {
	r := quickRunner(t)
	res, err := r.TableI([]int{5}, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if res.HiBench[5]["uservisits"] <= res.HiBench[5]["rankings"] {
		t.Error("uservisits should dominate rankings (Table I)")
	}
	if res.TPCH[10]["lineitem"] <= res.TPCH[10]["orders"] {
		t.Error("lineitem should dominate orders")
	}
	if !strings.Contains(res.String(), "lineitem") {
		t.Error("rendering incomplete")
	}
}

func TestFigure1MotivationShape(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	var su, ms, tot float64
	var aggMS, aggTot float64
	for _, w := range res.Workloads {
		for _, j := range w.Jobs {
			su += j.Startup
			ms += j.MapShuffle
			tot += j.Total()
			if w.Workload == "AGGREGATE" {
				aggMS += j.MapShuffle
				aggTot += j.Total()
			}
		}
	}
	// The paper's >50% average holds cleanly for AGGREGATE; our JOIN's
	// first job is reduce-skew-bound (the Zipfian hot key), which drags
	// the combined share down — EXPERIMENTS.md discusses the deviation.
	if aggMS/aggTot < 0.5 {
		t.Errorf("AGGREGATE Map-Shuffle share %.0f%% too low (paper: >50%%)", 100*aggMS/aggTot)
	}
	if ms/tot < 0.3 {
		t.Errorf("overall Map-Shuffle share %.0f%% too low", 100*ms/tot)
	}
	if su/tot > 0.25 {
		t.Errorf("startup share %.0f%% too high (paper: ~5%%)", 100*su/tot)
	}
	// JOIN has 3 jobs, AGGREGATE 1 (paper Fig. 1).
	for _, w := range res.Workloads {
		want := 1
		if w.Workload == "JOIN" {
			want = 3
		}
		if len(w.Jobs) != want {
			t.Errorf("%s has %d jobs, want %d", w.Workload, len(w.Jobs), want)
		}
	}
	t.Log("\n" + res.String())
}

func TestFigure2Characteristics(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.AggSpread <= res.TeraSpread {
		t.Errorf("Hive end-time spread %.3f should exceed TeraSort %.3f (Fig. 2a/2b)",
			res.AggSpread, res.TeraSpread)
	}
	if len(res.AggTopSizes) == 0 || len(res.Q3TopSizes) == 0 {
		t.Error("KV size modes missing")
	}
	t.Log("\n" + res.String())
}

func TestFigure6BlockingShape(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.BlockingOPhase / res.NonBlockingOPhase
	if ratio < 1.3 || ratio > 4.0 {
		t.Errorf("blocking/non-blocking ratio %.2f outside [1.3, 4.0] (paper ~2.0)", ratio)
	}
	t.Log("\n" + res.String())
}

func TestFigure8TuningShape(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if res.MemPercent[0.4] >= res.MemPercent[1.0] {
		t.Errorf("memusedpercent=0.4 (%.1f) should beat 1.0 (%.1f, GC side)",
			res.MemPercent[0.4], res.MemPercent[1.0])
	}
	if res.SendQueue[2] < res.SendQueue[6] {
		t.Errorf("queue=2 (%.1f) should be slower than queue=6 (%.1f)",
			res.SendQueue[2], res.SendQueue[6])
	}
	if diff := res.SendQueue[6] - res.SendQueue[10]; diff > res.SendQueue[6]*0.05 {
		t.Errorf("queue 6 vs 10 should be stable, got %.1f vs %.1f",
			res.SendQueue[6], res.SendQueue[10])
	}
	t.Log("\n" + res.String())
}

func TestFigure9GainBand(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure9([]int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	gain := res.AverageGain()
	if gain < 0.10 || gain > 0.60 {
		t.Errorf("HiBench average gain %.0f%% outside [10%%, 60%%] (paper ~30%%)", 100*gain)
	}
	t.Log("\n" + res.String())
}

func TestFigure10MSGains(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	gains := res.MSGains()
	if len(gains) < 3 {
		t.Fatalf("too few per-job comparisons: %v", gains)
	}
	positive := 0
	for _, g := range gains {
		if g > 0 {
			positive++
		}
	}
	if positive*2 < len(gains) {
		t.Errorf("most MS gains should be positive (paper 20-70%%): %v", gains)
	}
	t.Log("\n" + res.String())
}

func TestTableIIShape(t *testing.T) {
	r := quickRunner(t)
	qs := []int{1, 3, 6, 12}
	res, err := r.TableII(qs)
	if err != nil {
		t.Fatal(err)
	}
	m := cellMap(res.Cells)
	orcGain := formatGain(m, "hadoop", qs)
	if orcGain <= 0 {
		t.Errorf("ORC should beat Text on Hadoop, gain %.0f%%", 100*orcGain)
	}
	dmORC := avgGain(m, "hadoop", "datampi", "orc", 40, qs)
	if dmORC <= 0.05 {
		t.Errorf("DataMPI ORC gain %.0f%% too small (paper ~32%%)", 100*dmORC)
	}
	t.Log("\n" + res.String())
}

func TestFigure11ParallelismShape(t *testing.T) {
	r := quickRunner(t)
	// Q9 is the paper's skew example; include a flat query too.
	res, err := r.Figure11([]int{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	dmGain := res.StrategyGain("datampi")
	if dmGain < -0.05 {
		t.Errorf("enhanced strategy should not hurt datampi: %.0f%%", 100*dmGain)
	}
	if g := res.EnhancedGainOverHadoop(); g <= 0 {
		t.Errorf("datampi should beat hadoop under enhanced: %.0f%%", 100*g)
	}
	t.Log("\n" + res.String())
}

func TestFigure12BestCase(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure12([]int{10, 20}, []int{3, 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, gain := res.BestCase()
	if gain < 0.15 {
		t.Errorf("best-case gain %.0f%% too small (paper: 53%%)", 100*gain)
	}
	t.Log("\n" + res.String())
}

func TestFigure13Utilization(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if res.DataMPISeconds >= res.HadoopSeconds {
		t.Errorf("Q9: datampi %.0fs should beat hadoop %.0fs (paper 598 vs 802)",
			res.DataMPISeconds, res.HadoopSeconds)
	}
	_, hNet, _, _, _, _ := seriesStats(res.Hadoop)
	_, dNet, _, _, _, _ := seriesStats(res.DataMPI)
	if dNet <= hNet {
		t.Errorf("datampi avg net %.1f should exceed hadoop %.1f (paper 30 vs 20 MB/s)",
			dNet/1e6, hNet/1e6)
	}
	t.Log("\n" + res.String())
}

func TestTableIIIProductivity(t *testing.T) {
	r := quickRunner(t)
	res, err := r.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreLines == 0 || res.MREngineLines == 0 {
		t.Fatal("embedded source counting failed")
	}
	// The plug-in should stay small (paper: ~0.3K changed lines).
	if res.CoreLines > 800 {
		t.Errorf("DataMPI plug-in is %d lines; the productivity claim wants a small adapter",
			res.CoreLines)
	}
	t.Log("\n" + res.String())
}

func TestAblationsEveryOptimizationHelps(t *testing.T) {
	r := quickRunner(t)
	res, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range res.Rows {
		with, without := v[0], v[1]
		if without < with*0.98 {
			t.Errorf("%s: disabling it helped (%.1f -> %.1f); the design choice is unjustified",
				name, with, without)
		}
	}
	// The headline optimizations must show a clear penalty when removed.
	for _, name := range []string{"map-side aggregation", "non-blocking shuffle",
		"orc column projection"} {
		v, ok := res.Rows[name]
		if !ok {
			t.Errorf("missing ablation %s", name)
			continue
		}
		if v[1] < v[0]*1.03 {
			t.Errorf("%s: penalty only %.1f%% (want >= 3%%)", name, 100*(v[1]-v[0])/v[0])
		}
	}
	t.Log("\n" + res.String())
}

func TestFaultRecoveryFigure(t *testing.T) {
	r := quickRunner(t)
	res, err := r.FaultRecovery(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FaultScenario{}
	for _, sc := range res.Scenarios {
		byName[sc.Name] = sc
	}
	clean := byName["clean"]
	if clean.Seconds <= 0 || clean.Fired != 0 {
		t.Fatalf("clean baseline malformed: %+v", clean)
	}
	rec := byName["retry+checkpoint"]
	if rec.Fired == 0 {
		t.Error("recovery scenario injected no faults")
	}
	if rec.Seconds <= clean.Seconds {
		t.Errorf("recovery (%.1fs) should cost more than clean (%.1fs)",
			rec.Seconds, clean.Seconds)
	}
	spec := byName["straggler+speculation"]
	noSpec := byName["straggler, no speculation"]
	if noSpec.Seconds <= spec.Seconds {
		t.Errorf("speculation off (%.1fs) should be slower than on (%.1fs)",
			noSpec.Seconds, spec.Seconds)
	}
	fb := byName["fallback to hadoop"]
	if !fb.Degraded || fb.Engine != "hadoop" {
		t.Errorf("fallback scenario should degrade to hadoop: %+v", fb)
	}
	out := res.String()
	if !strings.Contains(out, "Fault recovery") || !strings.Contains(out, "overhead") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

func TestNodeLossRecoveryFigure(t *testing.T) {
	r := quickRunner(t)
	res, err := r.NodeLossRecovery(5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]NodeLossScenario{}
	for _, sc := range res.Scenarios {
		byName[sc.Name] = sc
	}
	clean := byName["fault-free"]
	if clean.Seconds <= 0 || clean.Fired != 0 || clean.Rerepl != 0 {
		t.Fatalf("fault-free baseline malformed: %+v", clean)
	}
	one := byName["one node lost"]
	if one.Fired != 1 || one.DeadNodes != 1 {
		t.Fatalf("single-crash scenario malformed: %+v", one)
	}
	if one.Rerepl == 0 || one.RecoverySec <= 0 {
		t.Errorf("node death billed no re-replication: %+v", one)
	}
	if one.Seconds <= clean.Seconds {
		t.Errorf("node loss (%.1fs) should cost more than fault-free (%.1fs)",
			one.Seconds, clean.Seconds)
	}
	double := byName["loss during repair"]
	if double.DeadNodes != 2 || double.Rerepl <= one.Rerepl {
		t.Errorf("double death should copy more than one (%+v vs %+v)", double, one)
	}
	flap := byName["slow-node flap"]
	if flap.DeadNodes != 0 || flap.Rerepl != 0 {
		t.Errorf("a flap must not kill nodes or move replicas: %+v", flap)
	}
	if flap.Fired == 0 {
		t.Error("slow-node schedule injected nothing")
	}
	out := res.String()
	if !strings.Contains(out, "Node-loss recovery") || !strings.Contains(out, "overhead") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}
