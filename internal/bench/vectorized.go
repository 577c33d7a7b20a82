package bench

import (
	"fmt"
	"sort"
	"strings"

	"hivempi/internal/metrics"
	"hivempi/internal/perfmodel"
	"hivempi/internal/tpch"
)

// VectorizedResult is the `-exp vec` report: per-query simulated
// runtimes of one execution on ORC under the paper's row-mode Hive and
// under a Hive with vectorized map operators (hive.exec.vectorized),
// plus the compiled-plan cache's effect on a repeated statement.
type VectorizedResult struct {
	// Rows maps "Q<n>" -> (row-model seconds, vectorized-model seconds).
	Rows map[string][2]float64

	// Plan cache: compile seconds charged to the first and the repeat
	// execution of the same statement, and the cache counters after.
	CompileFirst  float64
	CompileCached float64
	CacheHits     int64
	CacheMisses   int64
}

// vecQueries are the scan/filter/aggregate-heavy TPC-H queries where
// columnar execution pays: Q1 (wide aggregate), Q3 (join + agg), Q6
// (selective scan), Q12 (join + case aggregation).
var vecQueries = []int{1, 3, 6, 12}

// Vectorized runs the vectorized-execution ablation at 20 GB ORC: each
// query executes once and its trace is simulated twice, with and
// without perfmodel's measured per-record CPU factor.
func (r *Runner) Vectorized() (*VectorizedResult, error) {
	out := &VectorizedResult{Rows: map[string][2]float64{}}
	cl, err := r.loadTPCH(20, "orc")
	if err != nil {
		return nil, err
	}
	rowModel := r.cfg.Params
	vecModel := r.cfg.Params
	vecModel.VectorizedCPUFactor = perfmodel.MeasuredVectorizedCPUFactor
	for _, q := range vecQueries {
		script, err := tpch.Query(q)
		if err != nil {
			return nil, err
		}
		d := r.driver(cl, "datampi", nil)
		if _, err := d.Run(script); err != nil {
			return nil, err
		}
		qs := d.Collector.Queries()
		out.Rows[fmt.Sprintf("Q%d", q)] = [2]float64{
			rowModel.SimulateQueries(qs), vecModel.SimulateQueries(qs)}
	}

	// Plan cache: the same statement twice on one driver. The repeat
	// must hit the cache — no parse/plan, zero compile in the model.
	d := r.driver(cl, "datampi", nil)
	q1, err := tpch.Query(1)
	if err != nil {
		return nil, err
	}
	if _, err := d.Run(q1); err != nil {
		return nil, err
	}
	if _, err := d.Run(q1); err != nil {
		return nil, err
	}
	qs := d.Collector.Queries()
	if len(qs) >= 2 {
		out.CompileFirst = r.cfg.Params.SimulateQuery(qs[0]).Compile
		out.CompileCached = r.cfg.Params.SimulateQuery(qs[len(qs)-1]).Compile
	}
	if cl.env.Metrics != nil {
		out.CacheHits = cl.env.Metrics.Counter(metrics.CtrPlanCacheHits).Value()
		out.CacheMisses = cl.env.Metrics.Counter(metrics.CtrPlanCacheMisses).Value()
	}
	return out, nil
}

func (v *VectorizedResult) String() string {
	var sb strings.Builder
	sb.WriteString("Vectorized execution (ORC, 20 GB, simulated seconds):\n")
	names := make([]string, 0, len(v.Rows))
	for k := range v.Rows {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		p := v.Rows[n]
		speedup := 0.0
		if p[1] > 0 {
			speedup = p[0] / p[1]
		}
		sb.WriteString(fmt.Sprintf("  %-4s row %8.1fs   vectorized %8.1fs   %0.2fx\n",
			n, p[0], p[1], speedup))
	}
	sb.WriteString(fmt.Sprintf("  plan cache: compile %0.2fs first, %0.2fs cached (hits=%d misses=%d)\n",
		v.CompileFirst, v.CompileCached, v.CacheHits, v.CacheMisses))
	return sb.String()
}
