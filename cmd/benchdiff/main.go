// Command benchdiff compares two benchfmt JSON reports and fails when
// the current run regresses past the tolerance, so committed baseline
// numbers (BENCH_shuffle.json) gate hot-path changes:
//
//	go test -bench . -benchmem ./internal/kvio/ | benchfmt > /tmp/cur.json
//	benchdiff -tolerance 0.10 BENCH_shuffle.json /tmp/cur.json
//
// A benchmark regresses when its ns/op grows by more than -tolerance
// (fractional; -tol is a short alias) or when its allocs/op grow by
// more than allocSlack of the baseline (none at all for a benchmark
// that allocates under 50 per op). CI runs the gate blocking at 0.10; PRs that
// intentionally trade microbenchmark speed carry the
// `bench-regression-ok` label to demote the step to advisory (see
// README). Benchmarks present on only one side are reported but never
// fail the diff — adding or retiring a benchmark is not a regression.
//
// With -attr dir, a tripped gate additionally prints critical-path
// attribution from any run-bundle pairs found in dir
// (<name>.<arm>.bundle.json, produced by `benchsuite -bundle dir`), so
// the failure names the category — shuffle, await_skew, recovery, … —
// behind the slowdown instead of a bare percentage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hivempi/internal/obs/bundle"
)

// Result mirrors cmd/benchfmt's schema.
type Result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MBPerSec   float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp int64   `json:"bytes_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
}

func main() {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	tol := fs.Float64("tolerance", 0.10, "allowed fractional ns/op growth before a benchmark counts as regressed")
	fs.Float64Var(tol, "tol", 0.10, "alias for -tolerance")
	attr := fs.String("attr", "", "directory of run-bundle pairs; on a tripped gate, print tracediff attribution for each pair")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance frac] [-attr bundledir] baseline.json current.json")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	regressions := Diff(os.Stdout, base, cur, *tol)
	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.0f%% tolerance\n", regressions, *tol*100)
		if *attr != "" {
			printAttribution(os.Stdout, *attr)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions beyond %.0f%% tolerance\n", *tol*100)
}

// printAttribution renders tracediff attribution for every run-bundle
// pair under dir. Attribution is best-effort context on an already
// tripped gate: problems reading bundles are reported, never fatal.
func printAttribution(w io.Writer, dir string) {
	pairs, err := bundle.FindPairs(dir)
	if err != nil {
		fmt.Fprintf(w, "benchdiff: attribution unavailable: %v\n", err)
		return
	}
	if len(pairs) == 0 {
		fmt.Fprintf(w, "benchdiff: no bundle pairs under %s (run `benchsuite -bundle %s` to capture)\n", dir, dir)
		return
	}
	for _, p := range pairs {
		r, err := bundle.DiffPair(p)
		if err != nil {
			fmt.Fprintf(w, "benchdiff: attribution for %s: %v\n", p.Name, err)
			continue
		}
		fmt.Fprintf(w, "\nattribution (%s):\n", p.Name)
		r.Render(w)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func load(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// key disambiguates benchmarks with the same name across packages.
func key(r Result) string {
	if r.Package == "" {
		return r.Name
	}
	return r.Package + "." + r.Name
}

// allocSlack is the fraction by which allocs/op may exceed the
// baseline. Code that recycles state through a sync.Pool (the storage
// codecs) rebuilds it whenever a Get lands on a P whose cache is empty,
// so its allocs/op wobble by a few objects between identical runs;
// integer division keeps benchmarks under 1/allocSlack allocs/op exact.
const allocSlack = 0.02

// Diff prints a per-benchmark comparison to w and returns the number
// of regressions: ns/op growth beyond tol, or allocs/op growth beyond
// allocSlack.
func Diff(w io.Writer, base, cur []Result, tol float64) int {
	baseBy := make(map[string]Result, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
	}
	curBy := make(map[string]Result, len(cur))
	keys := make([]string, 0, len(cur))
	for _, r := range cur {
		curBy[key(r)] = r
		keys = append(keys, key(r))
	}
	sort.Strings(keys)

	regressions := 0
	for _, k := range keys {
		c := curBy[k]
		b, ok := baseBy[k]
		if !ok {
			fmt.Fprintf(w, "  new      %-40s %12.1f ns/op (no baseline)\n", k, c.NsPerOp)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = c.NsPerOp/b.NsPerOp - 1
		}
		verdict := "ok"
		switch {
		case delta > tol:
			verdict = "REGRESSED"
			regressions++
		case c.AllocsOp > b.AllocsOp+int64(allocSlack*float64(b.AllocsOp)):
			verdict = "REGRESSED (allocs)"
			regressions++
		case delta < -tol:
			verdict = "improved"
		}
		fmt.Fprintf(w, "  %-8s %-40s %12.1f -> %12.1f ns/op (%+6.1f%%)  %d -> %d allocs/op\n",
			verdict, k, b.NsPerOp, c.NsPerOp, delta*100, b.AllocsOp, c.AllocsOp)
	}
	gone := make([]string, 0, len(baseBy))
	for k := range baseBy {
		if _, ok := curBy[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Fprintf(w, "  gone     %-40s (in baseline only)\n", k)
	}
	return regressions
}
