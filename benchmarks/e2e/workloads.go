package main

import (
	"fmt"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hibench"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/tpch"
)

// bytesPerGB is the data scale: one paper-GB is 1 MiB generated (1:1024,
// the same geometry internal/bench.Runner uses at its default scale).
const bytesPerGB = 1 << 20

// The paper's seven worker nodes.
var slaves = []string{"slave1", "slave2", "slave3", "slave4", "slave5", "slave6", "slave7"}

// dataset is one generated and loaded table set.
type dataset struct {
	name   string
	kind   string // "tpch" or "hibench"
	sizeGB int    // paper-GB at the committed scale
	format string
}

var (
	// tpchORC is half the 20 paper-GB the issue sketched: loading it
	// takes ~1.3 s here and set-up is repeated for its median, so the
	// full size would not fit the driver's per-run budget.
	tpchORC      = dataset{name: "tpch10_orc", kind: "tpch", sizeGB: 10, format: "orc"}
	tpchSmallORC = dataset{name: "tpch1_orc", kind: "tpch", sizeGB: 1, format: "orc"}
	hibenchText  = dataset{name: "hibench20_text", kind: "hibench", sizeGB: 20, format: "textfile"}
)

// check says how a statement's answer is verified.
type check struct {
	// tpchQ > 0: the statement returns TPC-H query tpchQ's rows,
	// checked against refexec.
	tpchQ int
	// table != "": the statement (re)materialises this table, checked
	// against the other engine's copy. source != "" additionally checks
	// count(*) and sum(sumCol) of the copy against that source table.
	table  string
	source string
	sumCol string
}

// script is a multi-statement HiveQL text; its check applies to the
// last statement.
type script struct {
	sql string
	check
}

// statement is one HiveQL statement of a pass.
type statement struct {
	sql string
	check
}

// workload is one closed-loop statement sequence on one engine.
type workload struct {
	name    string
	why     string
	engine  string // "datampi" or "hadoop"
	data    dataset
	scripts []script
	// virtualJitter: the workload's spill sizes depend on goroutine
	// scheduling, so its virtual time repeats to ~0.02 %, not exactly.
	virtualJitter bool
}

func tpchScripts(qs ...int) []script {
	out := make([]script, len(qs))
	for i, q := range qs {
		sql, err := tpch.Query(q)
		if err != nil {
			panic(err) // q is a constant in this file
		}
		out[i] = script{sql: sql, check: check{tpchQ: q}}
	}
	return out
}

func allTPCH() []script {
	qs := make([]int, tpch.NumQueries)
	for i := range qs {
		qs[i] = i + 1
	}
	return tpchScripts(qs...)
}

// workloads in reporting order. Each "why" also goes into
// BENCHMARK.json and the README.
var workloads = []workload{
	{
		name: "scan_agg", engine: "datampi", data: tpchORC,
		why:     "Q1+Q6: map-side only (ORC decode, filter, partial agg), almost nothing shuffled; a shuffle gain must not show here",
		scripts: tpchScripts(1, 6),
	},
	{
		name: "join_shuffle", engine: "datampi", data: tpchORC,
		why:     "Q3+Q9+Q18 on DataMPI: 15 stages, kvio sort/merge, buffer manager + mpi, reduce-side join/group-by, DAG scheduler",
		scripts: tpchScripts(3, 9, 18),
	},
	{
		name: "join_shuffle_hadoop", engine: "hadoop", data: tpchORC,
		why:     "same queries through mrengine/hadoop sort-spill-merge; separates shared-layer gains from engine-specific ones",
		scripts: tpchScripts(3, 9, 18),
	},
	{
		name: "text_skew", engine: "datampi", data: hibenchText, virtualJitter: true,
		why: "HiBench AGGREGATE+JOIN on Text: delimited parse, Zipf-skewed keys, spills, INSERT OVERWRITE writes; an ORC-only gain must not move it",
		scripts: []script{
			{sql: hibench.AggregateQuery, check: check{table: "uservisits_aggre"}},
			{sql: hibench.JoinQuery, check: check{table: "rankings_uservisits_join"}},
		},
	},
	{
		name: "write_ctas", engine: "datampi", data: tpchORC,
		why: "CTAS copies of lineitem to ORC and Text: the encoders and the replicated dfs write, no shuffle; the write side of what scan_agg reads",
		scripts: []script{
			{sql: "DROP TABLE IF EXISTS e2e_copy_orc; CREATE TABLE e2e_copy_orc STORED AS orc AS SELECT * FROM lineitem",
				check: check{table: "e2e_copy_orc", source: "lineitem", sumCol: "l_extendedprice"}},
			{sql: "DROP TABLE IF EXISTS e2e_copy_text; CREATE TABLE e2e_copy_text STORED AS textfile AS SELECT * FROM lineitem",
				check: check{table: "e2e_copy_text", source: "lineitem", sumCol: "l_extendedprice"}},
		},
	},
	{
		name: "tpch22_small", engine: "datampi", data: tpchSmallORC,
		why:     "all 22 TPC-H queries at 1 paper-GB: 79 stages of fixed cost (parse, plan cache, scheduler, job and MPI-world spawn); also the correctness sweep",
		scripts: allTPCH(),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// statements flattens the workload's scripts; a script's check rides on
// its last statement.
func (w workload) statements() []statement {
	var out []statement
	for _, sc := range w.scripts {
		parts := hive.SplitStatements(sc.sql)
		for i, sql := range parts {
			st := statement{sql: sql}
			if i == len(parts)-1 {
				st.check = sc.check
			}
			out = append(out, st)
		}
	}
	return out
}

// cluster is one loaded dataset: the DFS and the metastore naming it.
type cluster struct {
	env *exec.Env
	ms  *hive.Metastore
}

// newEngine instantiates an engine by name.
func newEngine(name string) exec.Engine {
	if name == "hadoop" {
		return mrengine.New()
	}
	return core.New()
}

func otherEngine(name string) string {
	if name == "hadoop" {
		return "datampi"
	}
	return "hadoop"
}

// newDriver builds a driver over cl with exactly the knobs
// internal/bench.Runner.driver sets at bytesPerGB, and nothing else: a
// later change to an engine or driver default must show in the numbers
// without an edit here.
func newDriver(cl *cluster, engine, spillDir string) *hive.Driver {
	conf := exec.DefaultEngineConf()
	conf.Slaves = slaves
	conf.SpillDir = spillDir
	conf.BytesPerReducer = bytesPerGB
	conf.SortBufferBytes = 100 * bytesPerGB / 1024
	conf.TaskMemoryBytes = 2 * bytesPerGB
	d := hive.NewDriver(cl.env, newEngine(engine), conf)
	d.MS = cl.ms
	d.MapJoinThresholdBytes = 25 * bytesPerGB / 1024
	return d
}

// load generates ds from seed at sizeGB paper-GB and loads it into a
// fresh cluster.
func load(ds dataset, sizeGB int, seed int64, spillDir string) (*cluster, error) {
	cl := &cluster{
		env: &exec.Env{FS: dfs.New(dfs.Config{
			BlockSize:   64 * bytesPerGB / 1024,
			Replication: 3,
			Nodes:       slaves,
		})},
		ms: hive.NewMetastore(),
	}
	d := newDriver(cl, "datampi", spillDir)
	var err error
	switch ds.kind {
	case "tpch":
		err = tpch.Load(d, tpchSF(sizeGB), seed, ds.format, 4)
	case "hibench":
		err = hibench.Load(d, int64(sizeGB)*bytesPerGB, seed, ds.format, 4)
	default:
		err = fmt.Errorf("unknown dataset kind %q", ds.kind)
	}
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", ds.name, err)
	}
	return cl, nil
}

// tpchSF is the dbgen scale factor of sizeGB paper-GB (SF 1 ~ 1 GB).
func tpchSF(sizeGB int) tpch.ScaleFactor {
	return tpch.ScaleFactor(float64(sizeGB) * bytesPerGB / float64(1<<30))
}
