package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hivempi/internal/types"
)

// smokeArgs runs every phase of the protocol at 1 paper-GB with one
// measured pass.
func smokeArgs(out string, extra ...string) []string {
	return append([]string{"--gb", "1", "--seconds", "0", "-out", out}, extra...)
}

func lastLine(t *testing.T, stdout string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, lines[len(lines)-1])
	}
	return s
}

// TestSmokeAllWorkloads is the tier-1 run: all six workloads, traced,
// every named metric present with its unit, the span identity, a valid
// result file and a span dump per workload.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := realMain(smokeArgs(out, "--workload", "all", "--trace", "1"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	if s := lastLine(t, stdout.String()); !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Fatalf("summary %+v", s)
	}
	res, err := readResult(filepath.Join(out, "result.json")) // validates
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or unit %q", w.Name, d.Name, v.Unit)
			}
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("metric %s is not printed by name", d.Name)
			}
		}
		for _, d := range endToEnd {
			if v := w.EndToEnd[d.Name]; v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v %q", w.Name, d.Name, v.Value, v.Unit)
			}
		}
		st, self, union := w.PerLayer["hive.statement_ms"].Value,
			w.PerLayer["hive.driver_self_ms"].Value, w.PerLayer["engine.stage_union_ms"].Value
		if math.Abs(st-(self+union)) > 1e-6 || self < 0 || union <= 0 {
			t.Errorf("%s: statement %v != driver self %v + stage union %v", w.Name, st, self, union)
		}
		if w.PerLayer["storage.scan_rows"].Value != w.PerLayer["exec.input_rows"].Value {
			t.Errorf("%s: replay scanned %v rows, the engine read %v", w.Name,
				w.PerLayer["storage.scan_rows"].Value, w.PerLayer["exec.input_rows"].Value)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace."+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) < 3 {
			t.Errorf("%s: span dump: %d spans, %v", w.Name, len(spans), err)
		}
	}
}

// TestCorruptedAnswerFails shows the answer check can fail: one datum
// of one reference row is changed, and the next pass reports a failed
// statement, which makes the run incorrect and its exit code non-zero.
func TestCorruptedAnswerFails(t *testing.T) {
	w, _ := findWorkload("scan_agg")
	cfg := config{seed: 42, sizeGB: 1, tmpDir: t.TempDir()}
	r, _, err := newRun(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("warm-up failed: %v", r.failures)
	}
	r.pass(false)
	if r.failed != 0 {
		t.Fatalf("clean pass failed: %v", r.failures)
	}
	for i, st := range r.stmts {
		if st.tpchQ == 1 {
			row := r.want[i][0].Clone()
			row[len(row)-1] = types.Int(row[len(row)-1].Int() + 1) // Q1's count(*) column
			r.want[i][0] = row
		}
	}
	r.pass(false)
	if r.failed != 1 {
		t.Fatalf("failed = %d after corrupting one row, want 1: %v", r.failed, r.failures)
	}
	res := &result{Workloads: []*workloadResult{{Attempted: r.attempted, Failed: r.failed}}}
	if s := res.summary(false); s.Correct || exitCode(s, false) == 0 {
		t.Fatalf("summary %+v exits %d", s, exitCode(s, false))
	}
}

// TestDigestSeesContent: a table whose part file keeps its row count
// and byte size but holds another value fails the timed passes' check.
func TestDigestSeesContent(t *testing.T) {
	w, _ := findWorkload("text_skew")
	r, _, err := newRun(config{seed: 42, sizeGB: 1, tmpDir: t.TempDir()}, w)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, _ := r.execute(nil)
	tab, err := r.cl.ms.Get("uservisits_aggre")
	if err != nil {
		t.Fatal(err)
	}
	part := r.cl.env.FS.List(tab.Location)[0]
	data, err := r.cl.env.FS.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexAny(data, "0123456789")
	data[i] = '0' + (data[i]-'0'+1)%10
	if err := r.cl.env.FS.WriteFile(part, data); err != nil {
		t.Fatal(err)
	}
	r.check(results, errs, false)
	if r.failed != 1 || !strings.Contains(r.failures[0], "uservisits_aggre") {
		t.Fatalf("failed = %d after changing one digit of a part file, want 1: %v", r.failed, r.failures)
	}
}

func TestRowsMatch(t *testing.T) {
	row := func(s string, f float64) types.Row { return types.Row{types.String(s), types.Float(f)} }
	want := sortCanon([]types.Row{row("a", 1), row("b", 2e9)})
	if err := rowsMatch([]types.Row{row("b", 2e9+1), row("a", 1+1e-9)}, want); err != nil {
		t.Errorf("order and float noise must not matter: %v", err)
	}
	for name, got := range map[string][]types.Row{
		"value":   {row("a", 1.001), row("b", 2e9)},
		"missing": {row("a", 1)},
		"null":    {{types.String("a"), types.Null()}, row("b", 2e9)},
	} {
		if rowsMatch(got, want) == nil {
			t.Errorf("%s: a wrong answer passed", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two points: %v %v", q1, q3)
	}
}

// syntheticResult is a valid one-workload result file; edit changes it.
func syntheticResult(traced bool, edit func(w *workloadResult)) *result {
	w := &workloadResult{Name: "scan_agg", Passes: 8, Attempted: 16, SizeGB: 10,
		EndToEnd: map[string]value{}, Rounds: map[string][]float64{}, Counts: map[string]float64{}}
	for _, d := range endToEnd {
		w.EndToEnd[d.Name] = value{Value: 100, Unit: d.Unit}
		w.Rounds[d.Name] = []float64{100, 100, 101, 99}
	}
	w.Rounds["virtual_s"] = []float64{100, 100, 100, 100} // the model has no noise
	w.Counts["exec.input_rows"] = 1
	if traced {
		w.PerLayer = map[string]value{}
		for _, d := range perLayer {
			w.PerLayer[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		w.PerLayer["hive.statement_ms"] = value{Value: 2, Unit: "ms"}
	}
	if edit != nil {
		edit(w)
	}
	return &result{Schema: resultSchema, Seed: 42, Workloads: []*workloadResult{w}}
}

func TestCompare(t *testing.T) {
	wall := func(v float64, rounds ...float64) func(*workloadResult) {
		return func(w *workloadResult) {
			w.EndToEnd["pass_wall_ref"] = value{Value: v, Unit: "ratio"}
			if rounds != nil {
				w.Rounds["pass_wall_ref"] = rounds
			}
		}
	}
	virtual := func(v float64) func(*workloadResult) {
		return func(w *workloadResult) { w.EndToEnd["virtual_s"] = value{Value: v, Unit: "s"} }
	}
	otherSeed := syntheticResult(false, virtual(109))
	otherSeed.Seed = 7
	for _, c := range []struct {
		name            string
		traced          bool
		cand            *result
		bad, unresolved int
		verdict         string
	}{
		{"same", false, syntheticResult(false, wall(110)), 0, 0, verdictSame},
		{"worse", false, syntheticResult(false, wall(140)), 1, 0, verdictWorse},
		{"better", false, syntheticResult(false, wall(60)), 0, 0, verdictBetter},
		{"unresolved", false, syntheticResult(false, wall(140, 60, 100, 140, 180)), 0, 1, verdictUnresolved},
		// Untraced runs carry their exact counts too.
		{"untraced count mismatch", false, syntheticResult(false, func(w *workloadResult) { w.Counts["exec.input_rows"] = 2 }), 1, 0, "exec.input_rows"},
		{"traced count mismatch", true, syntheticResult(true, func(w *workloadResult) {
			w.PerLayer["storage.scan_rows"] = value{Value: 2, Unit: "count"}
		}), 1, 0, "storage.scan_rows"},
		// At one seed virtual time is judged at 1 % and must repeat exactly;
		// at another seed the catalogue's bound applies.
		{"virtual moved 9 %", false, syntheticResult(false, virtual(109)), 2, 0, verdictWorse},
		{"virtual moved 0.1 %", false, syntheticResult(false, virtual(100.1)), 1, 0, "count mismatch"},
		{"virtual at another seed", false, otherSeed, 0, 0, "seeds differ"},
		{"another scale", false, syntheticResult(false, func(w *workloadResult) { w.SizeGB = 1 }), 1, 0, "not comparable"},
	} {
		var out bytes.Buffer
		bad, unresolved := compareResults(&out, syntheticResult(c.traced, nil), c.cand)
		if bad != c.bad || unresolved != c.unresolved || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: bad %d unresolved %d\n%s", c.name, bad, unresolved, out.String())
		}
	}
	// Through the files, with exit codes.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := syntheticResult(false, nil).write(a); err != nil {
		t.Fatal(err)
	}
	if err := syntheticResult(false, wall(140)).write(b); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-compare", a, a}, &out, &errOut); code != 0 {
		t.Errorf("A/A exits %d: %s%s", code, out.String(), errOut.String())
	}
	if code := realMain([]string{"-compare", a, b}, &out, &errOut); code != 1 {
		t.Errorf("a regression exits %d", code)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// catalogue in this package in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q / %q differs from %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: %+v differs from the catalogue's %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks/e2e" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// buildBinary compiles the benchmark the way run.sh does.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "e2e")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// groupMembers lists the live processes of a process group, other than
// zombies already reaped by nobody.
func groupMembers(t *testing.T, pgid int) []string {
	t.Helper()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []string
	for _, p := range stats {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // exited meanwhile
		}
		// pid (comm) state ppid pgrp ...; comm may hold spaces.
		s := string(data)
		fields := strings.Fields(s[strings.LastIndex(s, ")")+1:])
		if len(fields) > 2 && fields[2] == strconv.Itoa(pgid) {
			out = append(out, s)
		}
	}
	return out
}

// TestLeavesNoProcessOrTempFile runs the built command in its own
// process group, once to completion and once into a SIGTERM, and
// asserts that afterwards the group is empty and the temp dir too.
func TestLeavesNoProcessOrTempFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	bin := buildBinary(t)
	start := func(tmp string, args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		cmd.Stdout, cmd.Stderr = new(bytes.Buffer), new(bytes.Buffer)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	after := func(name string, cmd *exec.Cmd, tmp string) {
		if left := groupMembers(t, cmd.Process.Pid); len(left) != 0 {
			t.Errorf("%s: processes survive the command: %v", name, left)
		}
		if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
			t.Errorf("%s: %d entries left in the temp dir, first %s", name, len(entries), entries[0].Name())
		}
	}

	tmp := t.TempDir()
	cmd := start(tmp, smokeArgs(t.TempDir(), "--workload", "join_shuffle_hadoop", "--trace", "1")...)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, cmd.Stderr)
	}
	after("normal exit", cmd, tmp)

	tmp = t.TempDir()
	cmd = start(tmp, "--workload", "join_shuffle_hadoop", "--gb", "1", "--seconds", "60", "-out", t.TempDir())
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if entries, _ := os.ReadDir(tmp); len(entries) > 0 {
			break // the run has created its spill dir
		}
		if time.Now().After(deadline) {
			t.Fatal("the run never created its temp dir")
		}
	}
	time.Sleep(200 * time.Millisecond) // into the measured passes
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Fatalf("after SIGTERM: %v, want exit 130\n%s", err, cmd.Stderr)
	}
	after("SIGTERM", cmd, tmp)
}
