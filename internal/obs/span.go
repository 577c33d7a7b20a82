package obs

import (
	"fmt"
	"strconv"
	"strings"

	"hivempi/internal/perfmodel"
	"hivempi/internal/trace"
)

// SpanKind classifies a node of the span hierarchy.
type SpanKind string

// Span kinds, outermost first.
const (
	SpanQuery SpanKind = "query"
	SpanStage SpanKind = "stage"
	SpanTask  SpanKind = "task"
	SpanPhase SpanKind = "phase"
)

// Span is one interval of the reconstructed query timeline, in virtual
// seconds from query submit. Spans nest query -> stage -> task ->
// phase; annotations (engine, attempts, recovery, straggler delay,
// dependency edges) ride in Attrs.
type Span struct {
	Name   string
	Kind   SpanKind
	Start  float64
	End    float64
	Engine string
	Slot   int // simulated cluster slot (task spans only)

	Attrs    map[string]string
	Children []*Span
}

func (s *Span) attr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// Walk visits the span and its descendants depth-first.
func (s *Span) Walk(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Walk(f)
	}
}

// BuildQuerySpans simulates the query trace under p and reconstructs
// its span hierarchy: the stage spans start at compile + the stage's
// critical-path offset (StartAt), task spans follow the simulated slot
// schedule, and each task carries read/compute+shuffle/write phase
// children derived from its segment boundaries. The QueryTiming the
// spans were derived from is returned alongside so callers can reuse
// the simulation.
func BuildQuerySpans(q *trace.Query, p *perfmodel.Params) (*Span, *perfmodel.QueryTiming) {
	sim := p.SimulateQuery(q)
	root := &Span{Name: queryLabel(q.Statement), Kind: SpanQuery, Start: 0, End: sim.Total}
	if q.Overlapped {
		root.attr("overlapped", "true")
	}
	for i, st := range q.Stages {
		if i >= len(sim.Stages) {
			break
		}
		root.Children = append(root.Children, buildStageSpan(st, sim.Stages[i], sim.Compile))
	}
	// Stage spans come first (consumers index them positionally); the
	// compile span rides at the end. A plan-cache hit skips parse/plan
	// entirely, so the span is absent for cached statements.
	if q.CachedPlan {
		root.attr("plan_cache", "hit")
	} else if sim.Compile > 0 {
		root.Children = append(root.Children, &Span{
			Name: "compile", Kind: SpanPhase, Start: 0, End: sim.Compile,
		})
	}
	return root, sim
}

func buildStageSpan(st *trace.Stage, sr *perfmodel.StageTiming, compile float64) *Span {
	base := compile + sr.StartAt
	ss := &Span{
		Name:   st.Name,
		Kind:   SpanStage,
		Start:  base,
		End:    base + sr.Total,
		Engine: st.Engine,
	}
	ss.attr("engine", st.Engine)
	if len(st.DependsOn) > 0 {
		ss.attr("depends_on", strings.Join(st.DependsOn, ","))
	}
	if st.Attempts > 1 {
		ss.attr("attempts", strconv.Itoa(st.Attempts))
	}
	if st.TaskRetries > 0 {
		ss.attr("task_retries", strconv.Itoa(st.TaskRetries))
	}
	if st.RetryBackoffSec > 0 {
		ss.attr("retry_backoff_sec", fmtSec(st.RetryBackoffSec))
	}
	if st.Relaunched {
		ss.attr("relaunched", "true")
	}
	if st.RereplicationSec > 0 {
		ss.attr("rereplication_sec", fmtSec(st.RereplicationSec))
	}
	for j, sp := range sr.Producers {
		var tt *trace.Task
		if j < len(st.Producers) {
			tt = st.Producers[j]
		}
		ss.Children = append(ss.Children, buildTaskSpan(base, sp, tt, true))
	}
	for j, sp := range sr.Consumers {
		var tt *trace.Task
		if j < len(st.Consumers) {
			tt = st.Consumers[j]
		}
		ss.Children = append(ss.Children, buildTaskSpan(base, sp, tt, false))
	}
	return ss
}

func buildTaskSpan(base float64, sp perfmodel.TaskSpan, tt *trace.Task, producer bool) *Span {
	ts := &Span{
		Name:  fmt.Sprintf("%s-%d", sp.Kind, sp.ID),
		Kind:  SpanTask,
		Start: base + sp.Start,
		End:   base + sp.End,
		Slot:  sp.Slot,
	}
	if tt != nil {
		if tt.Host != "" {
			ts.attr("host", tt.Host)
		}
		if tt.Attempts > 1 {
			ts.attr("attempts", strconv.Itoa(tt.Attempts))
		}
		if tt.Recovered {
			ts.attr("recovered", "true") // output replayed from a checkpoint
		}
		if tt.Speculative {
			ts.attr("speculative", "true")
		}
		if tt.StragglerDelaySec > 0 {
			ts.attr("straggler_sec", fmtSec(tt.StragglerDelaySec))
		}
	}
	readName, computeName := "read", "compute+shuffle"
	if !producer {
		readName, computeName = "shuffle+merge", "compute"
	}
	phase := func(name string, lo, hi float64) {
		if hi > lo {
			ts.Children = append(ts.Children, &Span{
				Name: name, Kind: SpanPhase, Start: base + lo, End: base + hi, Slot: sp.Slot,
			})
		}
	}
	phase(readName, sp.Start, sp.ReadEnd)
	phase(computeName, sp.ReadEnd, sp.ComputeEnd)
	phase("write", sp.ComputeEnd, sp.End)
	return ts
}

func queryLabel(stmt string) string {
	s := strings.Join(strings.Fields(stmt), " ")
	if len(s) > 80 {
		s = s[:77] + "..."
	}
	if s == "" {
		s = "(anonymous)"
	}
	return s
}

func fmtSec(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
