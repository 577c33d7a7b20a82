package hivempi_test

// One benchmark per table and figure of the paper's evaluation (§V).
// Each executes the real workloads on both engines at reduced data
// scale, replays the traces through the calibrated cluster model, and
// reports the simulated seconds the corresponding figure plots as
// custom benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// The quick scale (1:8000) keeps the full suite to a few minutes; the
// cmd/benchsuite binary runs the 1:1000 reproduction and renders the
// full tables.

import (
	"testing"

	"hivempi/internal/bench"
)

func newRunner(b *testing.B) *bench.Runner {
	b.Helper()
	return bench.NewRunner(bench.QuickConfig())
}

func BenchmarkTableI(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.TableI([]int{5}, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.HiBench[5]["uservisits"]), "uservisits_bytes")
	}
}

func BenchmarkFigure1(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		var ms, tot float64
		for _, w := range res.Workloads {
			for _, j := range w.Jobs {
				ms += j.MapShuffle
				tot += j.Total()
			}
		}
		b.ReportMetric(100*ms/tot, "ms_share_pct")
	}
}

func BenchmarkFigure2(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AggSpread, "hive_endtime_spread")
		b.ReportMetric(res.TeraSpread, "terasort_endtime_spread")
	}
}

func BenchmarkFigure6(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BlockingOPhase, "blocking_s")
		b.ReportMetric(res.NonBlockingOPhase, "nonblocking_s")
	}
}

func BenchmarkFigure8(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MemPercent[0.4], "mem04_s")
		b.ReportMetric(res.MemPercent[1.0], "mem10_s")
		b.ReportMetric(res.SendQueue[2], "queue2_s")
		b.ReportMetric(res.SendQueue[6], "queue6_s")
	}
}

func BenchmarkFigure9(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure9([]int{5, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.AverageGain(), "datampi_gain_pct")
	}
}

func BenchmarkFigure10(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		gains := res.MSGains()
		var sum float64
		for _, g := range gains {
			sum += g
		}
		if len(gains) > 0 {
			b.ReportMetric(100*sum/float64(len(gains)), "avg_ms_gain_pct")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	r := newRunner(b)
	qs := []int{1, 3, 6, 12, 14}
	for i := 0; i < b.N; i++ {
		res, err := r.TableII(qs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Cells)), "cells")
	}
}

func BenchmarkFigure11(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure11([]int{1, 9})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.StrategyGain("datampi"), "enhanced_gain_pct")
	}
}

func BenchmarkFigure12(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure12([]int{10, 20}, []int{3, 12})
		if err != nil {
			b.Fatal(err)
		}
		_, _, _, gain := res.BestCase()
		b.ReportMetric(100*gain, "best_gain_pct")
	}
}

func BenchmarkFigure13(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HadoopSeconds, "hadoop_q9_s")
		b.ReportMetric(res.DataMPISeconds, "datampi_q9_s")
	}
}

func BenchmarkTableIII(b *testing.B) {
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CoreLines), "plugin_lines")
	}
}
