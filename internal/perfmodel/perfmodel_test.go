package perfmodel_test

import (
	"math"
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hibench"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/perfmodel"
	"hivempi/internal/trace"
)

var _ = trace.KindMap

// runAggregate executes HiBench AGGREGATE at "20 GB" (1:1000) on the
// given engine and returns the collected trace.
func runAggregate(t *testing.T, engine exec.Engine, mut func(*exec.EngineConf)) []*trace.Query {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10, // 64 MB at 1:1000
		Nodes: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
	})}
	conf := exec.DefaultEngineConf()
	if mut != nil {
		mut(&conf)
	}
	d := hive.NewDriver(env, engine, conf)
	d.MapJoinThresholdBytes = 25 << 10
	if err := hibench.Load(d, 20<<20, 99, "sequencefile", 4); err != nil {
		t.Fatal(err)
	}
	d.Collector.Reset()
	if _, err := d.Run(hibench.AggregateQuery); err != nil {
		t.Fatal(err)
	}
	return d.Collector.Queries()
}

func simulateTotal(p perfmodel.Params, qs []*trace.Query) float64 {
	return p.SimulateQueries(qs)
}

func TestPaperShapeAggregateWorkload(t *testing.T) {
	p := perfmodel.DefaultParams()
	dm := runAggregate(t, core.New(), nil)
	hd := runAggregate(t, mrengine.New(), nil)

	dmT := simulateTotal(p, dm)
	hdT := simulateTotal(p, hd)
	t.Logf("AGGREGATE 20GB: hadoop=%.1fs datampi=%.1fs gain=%.0f%%",
		hdT, dmT, 100*(hdT-dmT)/hdT)
	if dmT >= hdT {
		t.Errorf("DataMPI (%.1fs) should beat Hadoop (%.1fs)", dmT, hdT)
	}
	gain := (hdT - dmT) / hdT
	if gain < 0.10 || gain > 0.60 {
		t.Errorf("gain %.0f%% outside the paper's plausible band (10-60%%)", gain*100)
	}

	// Startup: ~30% shorter on DataMPI (paper §V-B).
	dmSim := p.SimulateStage(dm[0].Stages[0])
	hdSim := p.SimulateStage(hd[0].Stages[0])
	if dmSim.Startup >= hdSim.Startup {
		t.Errorf("DataMPI startup %.1f should be below Hadoop %.1f",
			dmSim.Startup, hdSim.Startup)
	}
	if dmSim.MapShuffle >= hdSim.MapShuffle {
		t.Errorf("DataMPI MS %.1f should be below Hadoop %.1f (Fig. 10)",
			dmSim.MapShuffle, hdSim.MapShuffle)
	}
	t.Logf("breakdown: hadoop startup=%.1f ms=%.1f others=%.1f | datampi startup=%.1f ms=%.1f others=%.1f",
		hdSim.Startup, hdSim.MapShuffle, hdSim.Others,
		dmSim.Startup, dmSim.MapShuffle, dmSim.Others)
}

func TestBlockingVsNonBlockingShape(t *testing.T) {
	p := perfmodel.DefaultParams()
	nb := runAggregate(t, core.New(), func(c *exec.EngineConf) { c.NonBlocking = true })
	bl := runAggregate(t, core.New(), func(c *exec.EngineConf) { c.NonBlocking = false })
	nbSim := p.SimulateStage(nb[0].Stages[0])
	blSim := p.SimulateStage(bl[0].Stages[0])
	t.Logf("O phase: blocking=%.1fs nonblocking=%.1fs", blSim.MapEnd, nbSim.MapEnd)
	// Paper Fig. 6: blocking O phase roughly 2x (120 s vs 61 s).
	ratio := blSim.MapEnd / nbSim.MapEnd
	if ratio < 1.3 || ratio > 4 {
		t.Errorf("blocking/non-blocking O-phase ratio %.2f outside [1.3,4]", ratio)
	}
}

func TestMemUsedPercentSweetSpot(t *testing.T) {
	p := perfmodel.DefaultParams()
	totals := map[float64]float64{}
	for _, m := range []float64{0.1, 0.4, 0.9} {
		qs := runAggregate(t, core.New(), func(c *exec.EngineConf) {
			c.MemUsedPercent = m
			// A small task memory makes the knob bite at test scale.
			c.TaskMemoryBytes = 64 << 10
		})
		totals[m] = simulateTotal(p, qs)
	}
	t.Logf("memusedpercent sweep: 0.1=%.1fs 0.4=%.1fs 0.9=%.1fs",
		totals[0.1], totals[0.4], totals[0.9])
	// AGGREGATE alone shuffles little (map-side combine), so the spill
	// side is nearly flat here; the JOIN-inclusive sweep in the bench
	// harness shows the full U shape. Require 0.4 ~ best-low and
	// strictly better than the GC side.
	if totals[0.4] > totals[0.1]*1.05 || totals[0.4] >= totals[0.9] {
		t.Errorf("0.4 should be near-optimal (Fig. 8a): %v", totals)
	}
}

func TestSendQueueSweep(t *testing.T) {
	p := perfmodel.DefaultParams()
	var prev float64
	for i, q := range []int{2, 6, 10} {
		qs := runAggregate(t, core.New(), func(c *exec.EngineConf) { c.SendQueueSize = q })
		tot := simulateTotal(p, qs)
		t.Logf("sendqueue=%d total=%.1fs", q, tot)
		if i > 0 && tot > prev*1.02 {
			t.Errorf("queue %d total %.1f regressed vs smaller queue %.1f", q, tot, prev)
		}
		prev = tot
	}
}

func TestUtilizationSeries(t *testing.T) {
	p := perfmodel.DefaultParams()
	qs := runAggregate(t, core.New(), nil)
	var sims []*perfmodel.StageTiming
	for _, st := range qs[0].Stages {
		sims = append(sims, p.SimulateStage(st))
	}
	series := perfmodel.UtilizationSeries(sims, p.Cluster)
	if len(series) < 5 {
		t.Fatalf("series too short: %d samples", len(series))
	}
	var peakCPU, peakNet, peakRead float64
	for _, u := range series {
		if u.CPUPct > peakCPU {
			peakCPU = u.CPUPct
		}
		if u.Net > peakNet {
			peakNet = u.Net
		}
		if u.DiskRead > peakRead {
			peakRead = u.DiskRead
		}
		if u.CPUPct < 0 || u.CPUPct > 100 {
			t.Fatalf("CPU%% out of range: %f", u.CPUPct)
		}
	}
	if peakCPU == 0 || peakNet == 0 || peakRead == 0 {
		t.Errorf("flat utilization series: cpu=%f net=%f read=%f", peakCPU, peakNet, peakRead)
	}
}

func TestCollectTimeline(t *testing.T) {
	p := perfmodel.DefaultParams()
	qs := runAggregate(t, core.New(), nil)
	st := qs[0].Stages[0]
	sim := p.SimulateStage(st)
	events := perfmodel.CollectTimeline(st, sim)
	if len(events) == 0 {
		t.Fatal("no collect events")
	}
	for _, ev := range events {
		if ev.Time < sim.MapStart || ev.Time > sim.MapEnd+1e-9 {
			t.Errorf("event at %.2f outside map window [%.2f,%.2f]",
				ev.Time, sim.MapStart, sim.MapEnd)
		}
	}
	ends := perfmodel.TaskEndTimes(sim)
	if len(ends) != len(sim.Producers) {
		t.Error("end times length mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	p := perfmodel.DefaultParams()
	qs := runAggregate(t, core.New(), nil)
	a := simulateTotal(p, qs)
	b := simulateTotal(p, qs)
	if a != b {
		t.Errorf("simulation not deterministic: %f vs %f", a, b)
	}
}

func TestSortSpans(t *testing.T) {
	spans := []perfmodel.TaskSpan{
		{ID: 2, Start: 5},
		{ID: 0, Start: 1},
		{ID: 1, Start: 5},
	}
	perfmodel.SortSpans(spans)
	if spans[0].ID != 0 || spans[1].ID != 1 || spans[2].ID != 2 {
		t.Errorf("spans out of order: %+v", spans)
	}
}

func TestSimulateEmptyStage(t *testing.T) {
	p := perfmodel.DefaultParams()
	sim := p.SimulateStage(&trace.Stage{Name: "empty", Engine: "hadoop"})
	if sim.Total < sim.Startup {
		t.Errorf("empty stage total %.1f below startup %.1f", sim.Total, sim.Startup)
	}
	series := perfmodel.UtilizationSeries([]*perfmodel.StageTiming{sim}, p.Cluster)
	if len(series) == 0 {
		t.Error("empty stage should still sample at least one second")
	}
	events := perfmodel.CollectTimeline(&trace.Stage{}, sim)
	if len(events) != 0 {
		t.Errorf("no tasks should mean no events, got %d", len(events))
	}
}

func TestRemoteReadCostsMore(t *testing.T) {
	p := perfmodel.DefaultParams()
	mk := func(local bool) *trace.Stage {
		return &trace.Stage{
			Name: "s", Engine: "hadoop",
			Producers: []*trace.Task{{
				ID: 0, Kind: trace.KindMap,
				InputBytes: 64 << 10, InputRecords: 400, LocalRead: local,
				CollectSizes: trace.NewSizeHistogram(),
			}},
		}
	}
	local := p.SimulateStage(mk(true)).Total
	remote := p.SimulateStage(mk(false)).Total
	if remote < local {
		t.Errorf("remote read %.2f should not beat local %.2f", remote, local)
	}
}

// TestFaultChargesExtendSimulatedTime: the fault-recovery fields are
// free when zero (fault-free traces simulate exactly as before) and
// each one — task re-execution, straggler delay, speculation, stage
// relaunch with backoff — extends the simulated total when set.
func TestFaultChargesExtendSimulatedTime(t *testing.T) {
	p := perfmodel.DefaultParams()
	mk := func(engine string) *trace.Stage {
		return &trace.Stage{
			Name: "s", Engine: engine,
			Producers: []*trace.Task{{
				ID: 0, Kind: trace.KindMap,
				InputBytes: 64 << 10, InputRecords: 400,
				ShuffleOutBytes: 32 << 10, ShuffleOutPairs: 400,
				LocalRead: true, CollectSizes: trace.NewSizeHistogram(),
			}},
			Consumers: []*trace.Task{{
				ID: 0, Kind: trace.KindReduce,
				ShuffleInBytes: 32 << 10, ShuffleInPairs: 400,
				WriteBytes: 8 << 10,
			}},
		}
	}
	for _, engine := range []string{"hadoop", "datampi"} {
		base := p.SimulateStage(mk(engine)).Total
		if again := p.SimulateStage(mk(engine)).Total; again != base {
			t.Fatalf("%s: zero fault fields changed the baseline: %f vs %f",
				engine, again, base)
		}

		retried := mk(engine)
		retried.Producers[0].Attempts = 3
		if got := p.SimulateStage(retried).Total; got <= base {
			t.Errorf("%s: 3 map attempts should cost more than %f, got %f",
				engine, base, got)
		}

		// A checkpoint-replayed task pays no re-execution: only the
		// stage-level relaunch (charged separately) covers it.
		replayed := mk(engine)
		replayed.Producers[0].Attempts = 3
		replayed.Producers[0].Recovered = true
		if got := p.SimulateStage(replayed).Total; got != base {
			t.Errorf("%s: replayed task should simulate at baseline %f, got %f",
				engine, base, got)
		}

		straggler := mk(engine)
		straggler.Consumers[0].StragglerDelaySec = 1.5
		straggler.Consumers[0].Speculative = true
		if got := p.SimulateStage(straggler).Total; got <= base {
			t.Errorf("%s: straggler+speculation should cost more than %f, got %f",
				engine, base, got)
		}

		relaunched := mk(engine)
		relaunched.Attempts = 2
		relaunched.RetryBackoffSec = 2.0
		relaunched.ChaosDelaySec = 0.5
		sim := p.SimulateStage(relaunched)
		e := p.Hadoop
		if engine == "datampi" {
			e = p.DataMPI
		}
		want := base + e.JobStartup + 2.0 + 0.5
		if diff := sim.Total - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("%s: relaunched stage total %f, want %f", engine, sim.Total, want)
		}
		if sim.Others <= p.SimulateStage(mk(engine)).Others {
			t.Errorf("%s: stage recovery should land in Others", engine)
		}
	}
}

// TestVectorizedCPUFactorScalesOnlyPerRecordMapCPU: the factor is a
// model parameter, not a property of the trace. Unset, it changes
// nothing (the paper's row-mode Hive); set, it scales exactly the
// per-record term of map compute — not reads, per-byte serde CPU, the
// sort buffer, or anything on the reduce side.
func TestVectorizedCPUFactorScalesOnlyPerRecordMapCPU(t *testing.T) {
	stage := func(engine string) *trace.Stage {
		return &trace.Stage{
			Name: "s", Engine: engine, NumMaps: 2, NumReds: 1, NonBlocking: true, SendQueueSize: 6,
			Producers: []*trace.Task{
				{ID: 0, Kind: trace.KindMap, LocalRead: true, InputRecords: 4000, InputBytes: 1 << 20,
					ShuffleOutPairs: 500, ShuffleOutBytes: 8 << 10},
				// No records: only per-byte CPU, which the factor must not touch.
				{ID: 1, Kind: trace.KindMap, LocalRead: true, InputBytes: 1 << 20},
			},
			Consumers: []*trace.Task{
				{ID: 0, Kind: trace.KindReduce, InputRecords: 500, ShuffleInBytes: 8 << 10, WriteBytes: 1 << 10},
			},
		}
	}
	compute := func(s perfmodel.TaskSpan) float64 { return s.ComputeEnd - s.ReadEnd }
	for _, engine := range []string{"hadoop", "datampi"} {
		row := perfmodel.DefaultParams()
		one := perfmodel.DefaultParams()
		one.VectorizedCPUFactor = 1
		vec := perfmodel.DefaultParams()
		vec.VectorizedCPUFactor = perfmodel.MeasuredVectorizedCPUFactor

		base, same, fast := row.SimulateStage(stage(engine)), one.SimulateStage(stage(engine)), vec.SimulateStage(stage(engine))
		if base.Total != same.Total || compute(base.Producers[0]) != compute(same.Producers[0]) {
			t.Errorf("%s: factor 1 moved the stage: %v vs unset %v", engine, same.Total, base.Total)
		}

		cpuFactor := row.Hadoop.CPUFactor
		if engine == "datampi" {
			cpuFactor = row.DataMPI.CPUFactor
		}
		saved := 4000 * row.ScaleUp * row.Cluster.CPUPerRecord * (1 - perfmodel.MeasuredVectorizedCPUFactor) * cpuFactor
		if got := compute(base.Producers[0]) - compute(fast.Producers[0]); math.Abs(got-saved) > 1e-9*saved {
			t.Errorf("%s: map compute shrank by %v, want the per-record share %v", engine, got, saved)
		}
		if compute(base.Producers[1]) != compute(fast.Producers[1]) {
			t.Errorf("%s: a map task with no records changed: %v vs %v", engine,
				compute(fast.Producers[1]), compute(base.Producers[1]))
		}
		for i := range base.Producers {
			b, f := base.Producers[i], fast.Producers[i]
			if b.ReadEnd-b.Start != f.ReadEnd-f.Start || b.End-b.ComputeEnd != f.End-f.ComputeEnd {
				t.Errorf("%s: map task %d read or write time changed", engine, i)
			}
		}
		if b, f := base.Consumers[0], fast.Consumers[0]; math.Abs((b.End-b.Start)-(f.End-f.Start)) > 1e-12 {
			t.Errorf("%s: reduce task changed: %v vs %v", engine, f.End-f.Start, b.End-b.Start)
		}
	}
}
