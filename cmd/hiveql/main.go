// Command hiveql runs HiveQL statements against an in-process warehouse
// on the chosen execution engine. Without a script it provisions a demo
// dataset and drops into a line-oriented REPL.
//
// Usage:
//
//	hiveql [-engine hadoop|datampi] [-dataset tpch|hibench|none]
//	       [-size GB] [-format textfile|sequencefile|orc] [-f script.sql]
//	       [-explain] [-analyze] [-adaptive]
//	       [-mapjoin-threshold bytes] [-comm report.json] [-heatmap]
//
// -analyze wraps each statement in EXPLAIN ANALYZE: the statement
// executes and the plan is printed annotated with per-stage rows,
// bytes, virtual seconds and engine (plus the counter snapshot).
// EXPLAIN ANALYZE also works typed directly at the prompt.
//
// -adaptive turns on the skew-adaptive runtime (internal/adapt):
// observed partition histograms from completed stages repartition
// downstream skewed shuffles, and -analyze shows the per-stage
// "skew-adapted: split=N fused=M" decisions. Output stays
// byte-identical. -mapjoin-threshold sets the map-join small-table
// cutoff (hive.mapjoin.smalltable.filesize; 1 forces shuffle joins,
// handy for demonstrating adaptation on dimension joins).
//
// -comm writes the session's communication report (per-stage O x A
// shuffle matrices with skew statistics) as JSON on exit; -heatmap
// additionally prints each matrix as a text heatmap.
//
// -bundle writes the session's run bundle (hivempi.bundle/v1) on exit:
// the full span tree with virtual-time phases, per-statement metric
// deltas, per-stage comm matrices, adapt decisions and cost breakdown,
// ready for `tracediff` against another session's bundle.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hibench"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/obs"
	"hivempi/internal/obs/bundle"
	"hivempi/internal/obs/comm"
	"hivempi/internal/tpch"
	"hivempi/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hiveql:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hiveql", flag.ContinueOnError)
	engineName := fs.String("engine", "datampi", "execution engine: datampi or hadoop")
	dataset := fs.String("dataset", "tpch", "preloaded dataset: tpch, hibench or none")
	sizeGB := fs.Int("size", 1, "dataset size in paper-GB (generated at 1:1000)")
	format := fs.String("format", "textfile", "table format: textfile, sequencefile or orc")
	script := fs.String("f", "", "script file to execute (default: interactive)")
	explain := fs.Bool("explain", false, "print the plan for each statement instead of running it")
	adaptive := fs.Bool("adaptive", false, "skew-adaptive runtime: observed partition histograms repartition downstream skewed stages (output stays byte-identical)")
	mapJoinThreshold := fs.Int64("mapjoin-threshold", 0, "map-join small-table cutoff in bytes, hive.mapjoin.smalltable.filesize (0 = default 256KB; 1 forces shuffle joins)")
	analyze := fs.Bool("analyze", false, "run each statement and print its runtime-annotated plan (EXPLAIN ANALYZE)")
	commOut := fs.String("comm", "", "write the session's communication report (skew matrices) to this JSON file")
	bundleOut := fs.String("bundle", "", "write the session's run bundle (hivempi.bundle/v1) to this JSON file on exit")
	heatmap := fs.Bool("heatmap", false, "print a text heatmap of each shuffle stage's communication matrix on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var engine exec.Engine
	switch *engineName {
	case "datampi":
		engine = core.New()
	case "hadoop":
		engine = mrengine.New()
	default:
		return fmt.Errorf("unknown engine %q", *engineName)
	}

	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
	})}
	conf := exec.DefaultEngineConf()
	d := hive.NewDriver(env, engine, conf)
	d.AdaptiveSkew = *adaptive
	d.MapJoinThresholdBytes = *mapJoinThreshold

	bytesPerGB := int64(1 << 20)
	switch *dataset {
	case "tpch":
		sf := tpch.ScaleFactor(float64(*sizeGB) * float64(bytesPerGB) / float64(1<<30))
		if err := tpch.Load(d, sf, 42, *format, 4); err != nil {
			return err
		}
		fmt.Printf("loaded TPC-H (%d paper-GB, %s) on engine %s\n", *sizeGB, *format, engine.Name())
	case "hibench":
		if err := hibench.Load(d, int64(*sizeGB)*bytesPerGB, 42, *format, 4); err != nil {
			return err
		}
		fmt.Printf("loaded HiBench (%d paper-GB, %s) on engine %s\n", *sizeGB, *format, engine.Name())
	case "none":
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	var infos []bundle.StatementInfo
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		if err := execute(d, string(data), *explain, *analyze, &infos); err != nil {
			return err
		}
		if err := writeCommReport(d, *commOut, *heatmap); err != nil {
			return err
		}
		return writeBundle(d, *bundleOut, infos)
	}
	if err := repl(d, *explain, *analyze, &infos); err != nil {
		return err
	}
	if err := writeCommReport(d, *commOut, *heatmap); err != nil {
		return err
	}
	return writeBundle(d, *bundleOut, infos)
}

// writeBundle serializes the session's run bundle — span tree,
// per-statement metric deltas, comm matrices, adapt decisions — to
// path (no-op when -bundle was not given).
func writeBundle(d *hive.Driver, path string, infos []bundle.StatementInfo) error {
	if path == "" {
		return nil
	}
	b := bundle.Build(bundle.BuildInput{
		Label:      "hiveql",
		Queries:    d.Collector.Queries(),
		Statements: infos,
	}, nil)
	if err := bundle.WriteFile(path, b); err != nil {
		return err
	}
	fmt.Printf("run bundle: %d quer(ies) -> %s\n", len(b.Queries), path)
	return nil
}

// writeCommReport renders the session's communication-plane report:
// optional text heatmaps to stdout and the validated comm_report JSON
// to path (no-op when neither output was requested).
func writeCommReport(d *hive.Driver, path string, heatmap bool) error {
	if path == "" && !heatmap {
		return nil
	}
	rep := comm.BuildReport(d.Collector.Queries(), nil)
	if err := rep.Validate(); err != nil {
		return err
	}
	if heatmap {
		for _, q := range rep.Queries {
			for _, sc := range q.Stages {
				fmt.Print(comm.RenderHeatmap(sc))
			}
		}
	}
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := comm.WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	stages := 0
	for _, q := range rep.Queries {
		stages += len(q.Stages)
	}
	fmt.Printf("comm report: %d quer(ies), %d shuffle stage(s) -> %s\n",
		len(rep.Queries), stages, path)
	return nil
}

func execute(d *hive.Driver, script string, explain, analyze bool, infos *[]bundle.StatementInfo) error {
	for _, stmt := range hive.SplitStatements(script) {
		if !strings.HasPrefix(strings.ToLower(stmt), "explain") {
			switch {
			case analyze:
				stmt = "EXPLAIN ANALYZE " + stmt
			case explain:
				stmt = "EXPLAIN " + stmt
			}
		}
		start := time.Now()
		res, err := d.Execute(stmt)
		if err != nil {
			return err
		}
		if infos != nil {
			*infos = append(*infos, bundle.StatementInfo{
				Statement: res.Statement,
				Metrics:   res.Metrics,
				Degraded:  res.Degraded,
			})
		}
		printResult(res, time.Since(start))
	}
	return nil
}

func printResult(res *hive.Result, elapsed time.Duration) {
	if res.Analyzed {
		q := &trace.Query{
			Statement:  res.Statement,
			Stages:     res.Stages,
			Overlapped: res.Overlapped,
			CachedPlan: res.CachedPlan,
		}
		fmt.Print(obs.RenderAnalyzedPlan(q, res.Degraded, res.Metrics, nil))
		fmt.Printf("-- %d row(s), %d stage(s), %s\n",
			len(res.Rows), len(res.Stages), elapsed.Round(time.Millisecond))
		return
	}
	if res.Plan != "" {
		fmt.Println(res.Plan)
		return
	}
	if res.Schema != nil && len(res.Rows) > 0 {
		fmt.Println(strings.Join(res.Schema.Names(), "\t"))
		for _, r := range res.Rows {
			fmt.Println(r.Text('\t'))
		}
	}
	fmt.Printf("-- %d row(s), %d stage(s), %s\n", len(res.Rows), len(res.Stages), elapsed.Round(time.Millisecond))
}

func repl(d *hive.Driver, explain, analyze bool, infos *[]bundle.StatementInfo) error {
	fmt.Println(`enter HiveQL statements terminated by ";" (quit/exit to leave; \q <n> runs TPC-H query n)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("hiveql> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 {
			switch {
			case trimmed == "quit" || trimmed == "exit":
				return nil
			case strings.HasPrefix(trimmed, `\q `):
				var n int
				fmt.Sscanf(trimmed, `\q %d`, &n)
				q, err := tpch.Query(n)
				if err != nil {
					fmt.Println("error:", err)
				} else if err := execute(d, q, explain, analyze, infos); err != nil {
					fmt.Println("error:", err)
				}
				fmt.Print("hiveql> ")
				continue
			case trimmed == "":
				fmt.Print("hiveql> ")
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			if err := execute(d, buf.String(), explain, analyze, infos); err != nil {
				fmt.Println("error:", err)
			}
			buf.Reset()
			fmt.Print("hiveql> ")
		} else {
			fmt.Print("      > ")
		}
	}
	return sc.Err()
}
