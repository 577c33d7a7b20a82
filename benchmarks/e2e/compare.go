package main

import (
	"fmt"
	"io"
)

// Verdicts of compare mode.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge classifies candidate b against base a for one end-to-end
// metric. The change is expressed so that positive means worse. A run's
// own noise is the quartile spread of its rounds; when either run's
// exceeds the bound (or a run has too few rounds to tell), the pair
// cannot resolve a change of that size.
func judge(d metricDef, a, b float64, roundsA, roundsB []float64) (verdict string, change, noise float64) {
	if a != 0 {
		change = (b - a) / a
	}
	if d.Better == higher {
		change = -change
	}
	known := true
	for _, rounds := range [][]float64{roundsA, roundsB} {
		s, ok := spread(rounds)
		known = known && ok
		if s > noise {
			noise = s
		}
	}
	switch {
	case !known || noise > d.Bound:
		verdict = verdictUnresolved
	case change > d.Bound:
		verdict = verdictWorse
	case change < -d.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return verdict, change, noise
}

// sameSeedVirtualBound judges virtual_s between two runs of one seed:
// the inputs are the same, so only the model or the plans can move it.
// (The catalogue's bound covers what another seed's data changes.)
const sameSeedVirtualBound = 0.01

// exactValue finds a metric two runs of one seed must reproduce bit for
// bit: in the counts every run keeps, else among the traced run's
// per-layer metrics.
func (w *workloadResult) exactValue(name string) (float64, bool) {
	if v, ok := w.Counts[name]; ok {
		return v, true
	}
	v, ok := w.PerLayer[name]
	return v.Value, ok
}

// compareResults prints one row per workload x end-to-end metric and,
// when the two runs had the same inputs, checks that exact counts and
// virtual time repeat. It returns how many rows were worse or
// mismatched, and how many unresolved.
func compareResults(out io.Writer, a, b *result) (bad, unresolved int) {
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d vs %d): exact counts are not compared\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(out, "%-20s %-18s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "candidate", "change", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%-20s missing from the candidate\n", wa.Name)
			bad++
			continue
		}
		if wa.SizeGB != wb.SizeGB {
			fmt.Fprintf(out, "%-20s measured at %d paper-GB, base at %d: not comparable\n", wa.Name, wb.SizeGB, wa.SizeGB)
			bad++
			continue
		}
		sameInputs := a.Seed == b.Seed
		for _, d := range endToEnd {
			if sameInputs && d.Name == "virtual_s" {
				d.Bound = sameSeedVirtualBound
			}
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			verdict, change, noise := judge(d, va, vb, wa.Rounds[d.Name], wb.Rounds[d.Name])
			fmt.Fprintf(out, "%-20s %-18s %14.4f %14.4f %+7.2f%% %6.2f%% %5.0f%%  %s\n",
				wa.Name, d.Name, va, vb, 100*change, 100*noise, 100*d.Bound, verdict)
			switch verdict {
			case verdictWorse:
				bad++
			case verdictUnresolved:
				unresolved++
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-20s failed %d of %d, base failed %d of %d  %s\n",
				wa.Name, wb.Failed, wb.Attempted, wa.Failed, wa.Attempted, verdictWorse)
			bad++
		}
		if !sameInputs {
			continue
		}
		mismatch := func(name string, va, vb float64) {
			fmt.Fprintf(out, "%-20s %-18s %14.4f %14.4f  count mismatch\n", wa.Name, name, va, vb)
			bad++
		}
		if def, _ := findWorkload(wa.Name); !def.virtualJitter {
			if va, vb := wa.EndToEnd["virtual_s"].Value, wb.EndToEnd["virtual_s"].Value; va != vb {
				mismatch("virtual_s", va, vb)
			}
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, okA := wa.exactValue(d.Name)
			vb, okB := wb.exactValue(d.Name)
			if okA && okB && va != vb {
				mismatch(d.Name, va, vb)
			}
		}
	}
	return bad, unresolved
}
