// Command e2e is the repository's end-to-end benchmark: six workloads
// through the public hive.Driver front door, measured on two clocks
// (host wall/CPU/allocations, and perfmodel virtual seconds), every
// answer checked, plus a traced run that splits the cost by layer.
// README.md in this directory defines the metrics and the protocol;
// BENCHMARK.json at the repository root is the driver's contract.
//
//	e2e --workload scan_agg --seed 42 --seconds 8 --trace 0
//	e2e -compare base/result.json candidate/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"hivempi/internal/testutil/leakcheck"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// leakReport adapts leakcheck's testing.TB subset: a goroutine that
// outlives its query is reported and fails the run instead of being
// silently killed by exit.
type leakReport struct {
	out    io.Writer
	leaked bool
}

func (l *leakReport) Helper() {}

func (l *leakReport) Errorf(format string, args ...any) {
	l.leaked = true
	fmt.Fprintf(l.out, "e2e: "+format+"\n", args...)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workloadName := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 42, "dataset seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 adds the traced and replay passes and reports the per-layer metrics")
	fs.IntVar(&cfg.sizeGB, "gb", 0, "smoke scale: every dataset at this many paper-GB, one round, one set-up")
	fs.StringVar(&cfg.outDir, "out", "benchmarks/e2e/out", "directory for result.json and trace.<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files: e2e -compare base.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	cfg.trace = *traceFlag != 0
	if cfg.sizeGB < 0 || cfg.seconds < 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "e2e: bad arguments")
		return 2
	}
	selected := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "e2e: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}

	leaks := &leakReport{out: stderr}
	verifyLeaks := leakcheck.Check(leaks)

	tmp, err := os.MkdirTemp("", "e2e-*")
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	cfg.tmpDir = tmp

	// SIGINT/SIGTERM cancel the run: the engines take no context, so
	// the handler removes the temp dir and exits the process, which is
	// the only process there is.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s, ok := <-sigc
		if !ok {
			return // the run ended first
		}
		// Engine goroutines may still be creating spill files.
		for i := 0; i < 10 && os.RemoveAll(tmp) != nil; i++ {
		}
		fmt.Fprintf(stderr, "e2e: %v: run cancelled\n", s)
		os.Exit(130)
	}()

	res := newResult(cfg)
	var runErr error
	for _, w := range selected {
		wr, err := runWorkload(cfg, w)
		if err != nil {
			runErr = err
			break
		}
		wr.print(stdout)
		res.Workloads = append(res.Workloads, wr)
	}

	signal.Stop(sigc)
	close(sigc)
	<-stopped
	verifyLeaks()

	if runErr != nil {
		fmt.Fprintln(stderr, "e2e:", runErr)
		return 2
	}
	if err := res.validate(); err != nil {
		fmt.Fprintln(stderr, "e2e: invalid result:", err)
		return 2
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
			err = res.write(filepath.Join(cfg.outDir, "result.json"))
		}
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
	}

	summary := res.summary(cfg.trace)
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	return exitCode(summary, leaks.leaked)
}

// exitCode is non-zero when any statement failed or returned a wrong
// answer, or a goroutine outlived the run.
func exitCode(s summary, leaked bool) int {
	if !s.Correct || leaked {
		return 1
	}
	return 0
}

// summary is the last line of standard output: the driver's contract.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary reports the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. With several workloads in one run
// the names are prefixed "<workload>/".
func (r *result) summary(traced bool) summary {
	s := summary{Metrics: map[string]value{}}
	for _, w := range r.Workloads {
		s.Attempted += w.Attempted
		s.Failed += w.Failed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		src := w.EndToEnd
		if traced {
			src = w.PerLayer
		}
		for name, v := range src {
			s.Metrics[prefix+name] = v
		}
	}
	s.Correct = s.Failed == 0
	return s
}

func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	bad, unresolved := compareResults(stdout, a, b)
	fmt.Fprintf(stdout, "%d worse or mismatched, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
