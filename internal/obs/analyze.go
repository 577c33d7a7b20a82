package obs

import (
	"fmt"
	"sort"
	"strings"

	"hivempi/internal/obs/comm"
	"hivempi/internal/perfmodel"
	"hivempi/internal/trace"
)

// RenderAnalyzedPlan renders EXPLAIN ANALYZE output: the executed stage
// DAG annotated with per-stage rows, bytes, virtual-time placement and
// engine, followed by the statement's counter snapshot. The stage
// traces are real execution records; the timing comes from replaying
// them through the perfmodel (the same simulation the benchmarks
// report), so the printed seconds match the Chrome-trace export.
//
// degraded names the fallback engine when the query finished there
// ("" = primary throughout); metricsSnap is the per-statement counter
// delta (nil = omit the counters section).
func RenderAnalyzedPlan(q *trace.Query, degraded string, metricsSnap map[string]int64, p *perfmodel.Params) string {
	if p == nil {
		def := perfmodel.DefaultParams()
		p = &def
	}
	sim := p.SimulateQuery(q)
	timing := make(map[string]*perfmodel.StageTiming, len(sim.Stages))
	for _, st := range sim.Stages {
		timing[st.Name] = st
	}

	var sb strings.Builder
	// The recorded statement usually still carries the EXPLAIN ANALYZE
	// prefix the user typed; strip it so the header reads once.
	stmt := strings.TrimSpace(q.Statement)
	for _, kw := range []string{"explain", "analyze"} {
		if len(stmt) >= len(kw) && strings.EqualFold(stmt[:len(kw)], kw) {
			stmt = strings.TrimSpace(stmt[len(kw):])
		}
	}
	fmt.Fprintf(&sb, "EXPLAIN ANALYZE %s\n", queryLabel(stmt))
	mode := "serial"
	if q.Overlapped {
		mode = "dag-parallel"
	}
	fmt.Fprintf(&sb, "total %ss virtual (compile %ss), %d stages, %s",
		fmtSec(sim.Total), fmtSec(sim.Compile), len(q.Stages), mode)
	if q.CachedPlan {
		sb.WriteString(" [plan cache hit]")
	}
	if degraded != "" {
		fmt.Fprintf(&sb, " [degraded to %s]", degraded)
	}
	sb.WriteString("\n\n")

	for _, st := range q.Stages {
		fmt.Fprintf(&sb, "STAGE %s [%s] maps=%d reds=%d\n", st.Name, st.Engine, st.NumMaps, st.NumReds)
		if ti := timing[st.Name]; ti != nil {
			fmt.Fprintf(&sb, "  start %ss  dur %ss  (startup %ss, map+shuffle %ss, others %ss)\n",
				fmtSec(sim.Compile+ti.StartAt), fmtSec(ti.Total),
				fmtSec(ti.Startup), fmtSec(ti.MapShuffle), fmtSec(ti.Others))
		}
		fmt.Fprintf(&sb, "  rows out %d  input %s  shuffle %s  output %s\n",
			stageRowsOut(st), humanBytes(st.TotalInputBytes()),
			humanBytes(st.TotalShuffleBytes()), humanBytes(st.TotalOutputBytes()))
		if sc := comm.AnalyzeStage(st, p); sc != nil {
			if line := sc.Summary(); line != "" {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
		}
		if st.AdaptSplit > 0 || st.AdaptFused > 0 {
			fmt.Fprintf(&sb, "  skew-adapted: split=%d fused=%d (replan %ss)\n",
				st.AdaptSplit, st.AdaptFused, fmtSec(st.AdaptSec))
		}
		if len(st.DependsOn) > 0 {
			fmt.Fprintf(&sb, "  depends on: %s\n", strings.Join(st.DependsOn, ", "))
		}
		if notes := stageFaultNotes(st); notes != "" {
			fmt.Fprintf(&sb, "  %s\n", notes)
		}
	}

	if len(metricsSnap) > 0 {
		sb.WriteString("\ncounters:\n")
		names := make([]string, 0, len(metricsSnap))
		for k := range metricsSnap {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&sb, "  %-28s %d\n", k, metricsSnap[k])
		}
	}
	return sb.String()
}

// stageRowsOut is the stage's emitted row count: consumer output when a
// reduce side exists, else producer output (map-only stages).
func stageRowsOut(st *trace.Stage) int64 {
	var rows int64
	owner := st.Consumers
	if len(owner) == 0 {
		owner = st.Producers
	}
	for _, t := range owner {
		rows += t.OutputRecords
	}
	return rows
}

// stageFaultNotes summarizes the stage's fault-tolerance accounting;
// empty when the stage ran clean on the first attempt.
func stageFaultNotes(st *trace.Stage) string {
	var parts []string
	if st.Relaunched {
		parts = append(parts, "relaunched (output lost with node)")
	}
	if st.Attempts > 1 {
		parts = append(parts, fmt.Sprintf("attempts=%d", st.Attempts))
	}
	if st.RereplicationSec > 0 {
		parts = append(parts, fmt.Sprintf("rereplication=%ss", fmtSec(st.RereplicationSec)))
	}
	if st.TaskRetries > 0 {
		parts = append(parts, fmt.Sprintf("task_retries=%d", st.TaskRetries))
	}
	if st.RetryBackoffSec > 0 {
		parts = append(parts, fmt.Sprintf("retry_backoff=%ss", fmtSec(st.RetryBackoffSec)))
	}
	var recovered, speculative, predicted int
	for _, t := range append(append([]*trace.Task{}, st.Producers...), st.Consumers...) {
		if t.Recovered {
			recovered++
		}
		if t.Speculative {
			speculative++
		}
		if t.PredictiveSpec {
			predicted++
		}
	}
	if recovered > 0 {
		parts = append(parts, fmt.Sprintf("recovered=%d", recovered))
	}
	if speculative > 0 {
		parts = append(parts, fmt.Sprintf("speculative=%d", speculative))
	}
	if predicted > 0 {
		parts = append(parts, fmt.Sprintf("predicted_spec=%d", predicted))
	}
	return strings.Join(parts, " ")
}

// humanBytes renders a byte count with a binary-ish 1000-step unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1f GB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
