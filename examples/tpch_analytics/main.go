// TPC-H analytics walk-through: load the warehouse, EXPLAIN a query's
// stage DAG, run representative queries on both engines and both file
// formats, and report the simulated cluster times the paper's Table II
// compares.
package main

import (
	"fmt"
	"log"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/perfmodel"
	"hivempi/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newDriver(engine exec.Engine, format string) (*hive.Driver, error) {
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Parallelism = exec.ParallelismEnhanced
	d := hive.NewDriver(env, engine, conf)
	// "10 GB" at 1:1000 scale = SF 0.01.
	if err := tpch.Load(d, 0.01, 42, format, 4); err != nil {
		return nil, err
	}
	return d, nil
}

func run() error {
	// 1. Show the compiled plan of Q3 (customer x orders x lineitem).
	d, err := newDriver(core.New(), "textfile")
	if err != nil {
		return err
	}
	q3, _ := tpch.Query(3)
	stmts := hive.SplitStatements(q3)
	res, err := d.Execute("EXPLAIN " + stmts[len(stmts)-1])
	if err != nil {
		return err
	}
	fmt.Println("== TPC-H Q3 plan ==")
	fmt.Println(res.Plan)

	// 2. Run Q3, Q6 and Q12 on every engine x format combination.
	model := perfmodel.DefaultParams()
	fmt.Println("== simulated cluster seconds (10 GB, enhanced parallelism) ==")
	fmt.Println("query  engine   format        rows   sim_s")
	for _, q := range []int{3, 6, 12} {
		script, err := tpch.Query(q)
		if err != nil {
			return err
		}
		for _, format := range []string{"textfile", "orc"} {
			for _, engine := range []exec.Engine{mrengine.New(), core.New()} {
				d, err := newDriver(engine, format)
				if err != nil {
					return err
				}
				d.Collector.Reset()
				results, err := d.Run(script)
				if err != nil {
					return err
				}
				var sim float64
				for _, tr := range d.Collector.Queries() {
					sim += model.SimulateQuery(tr).Total
				}
				last := results[len(results)-1]
				fmt.Printf("%-6s %-8s %-10s %7d  %6.1f\n",
					tpch.QueryName(q), engine.Name(), format, len(last.Rows), sim)
			}
		}
	}
	fmt.Println("\nDataMPI should win each pairing, with ORC ahead of Text (paper Table II).")
	return nil
}
