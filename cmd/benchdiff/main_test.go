package main

import (
	"strings"
	"testing"
)

func TestDiffVerdicts(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkStable", Package: "p", NsPerOp: 100, AllocsOp: 2},
		{Name: "BenchmarkSlower", Package: "p", NsPerOp: 100},
		{Name: "BenchmarkFaster", Package: "p", NsPerOp: 100},
		{Name: "BenchmarkMoreAllocs", Package: "p", NsPerOp: 100, AllocsOp: 1},
		{Name: "BenchmarkPooled", Package: "p", NsPerOp: 100, AllocsOp: 142},
		{Name: "BenchmarkPerStripe", Package: "p", NsPerOp: 100, AllocsOp: 142},
		{Name: "BenchmarkGone", Package: "p", NsPerOp: 50},
	}
	cur := []Result{
		{Name: "BenchmarkStable", Package: "p", NsPerOp: 110, AllocsOp: 2},      // +10% < tol: ok
		{Name: "BenchmarkSlower", Package: "p", NsPerOp: 140},                   // +40% > tol: regressed
		{Name: "BenchmarkFaster", Package: "p", NsPerOp: 60},                    // -40%: improved
		{Name: "BenchmarkMoreAllocs", Package: "p", NsPerOp: 100, AllocsOp: 3},  // alloc regression
		{Name: "BenchmarkPooled", Package: "p", NsPerOp: 100, AllocsOp: 144},    // a pool miss or two: within allocSlack
		{Name: "BenchmarkPerStripe", Package: "p", NsPerOp: 100, AllocsOp: 145}, // past allocSlack
		{Name: "BenchmarkNew", Package: "p", NsPerOp: 10},                       // no baseline: note only
	}
	var sb strings.Builder
	got := Diff(&sb, base, cur, 0.30)
	if got != 3 {
		t.Errorf("Diff reported %d regressions, want 3\n%s", got, sb.String())
	}
	out := sb.String()
	for _, frag := range []string{
		"ok       p.BenchmarkStable",
		"REGRESSED p.BenchmarkSlower",
		"improved p.BenchmarkFaster",
		"REGRESSED (allocs) p.BenchmarkMoreAllocs",
		"ok       p.BenchmarkPooled",
		"REGRESSED (allocs) p.BenchmarkPerStripe",
		"new      p.BenchmarkNew",
		"gone     p.BenchmarkGone",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("diff output missing %q:\n%s", frag, out)
		}
	}
}

func TestDiffZeroBaselineNsIsNotRegression(t *testing.T) {
	base := []Result{{Name: "BenchmarkX", NsPerOp: 0}}
	cur := []Result{{Name: "BenchmarkX", NsPerOp: 99}}
	var sb strings.Builder
	if got := Diff(&sb, base, cur, 0.3); got != 0 {
		t.Errorf("zero-baseline benchmark counted as regression: %d\n%s", got, sb.String())
	}
}
