package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"hivempi/internal/exec"
)

// span is one timed interval at a layer boundary. Spans of one pass
// share the pass id; parent 0 means a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	Pass    int    `json:"pass"`

	startNs, endNs int64
}

// recorder keeps spans in memory until the run ends. Statements run one
// at a time on the benchmark's goroutine; stages of one statement may
// run concurrently under the DAG scheduler, hence the lock.
type recorder struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []span
	pass      int
	statement int // id of the statement span stages attach to
	tasks     int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, detail string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Detail: detail,
		Pass: r.pass, startNs: now})
	return id
}

// beginStatement opens a statement span; stages attach to it until the
// next one opens.
func (r *recorder) beginStatement(detail string, parent int) int {
	id := r.begin("hive.statement", detail, parent)
	r.mu.Lock()
	r.statement = id
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].endNs = now
	r.mu.Unlock()
}

// tracedEngine decorates an engine with one span per Engine.Run. It is
// installed only for the traced pass, so measured passes never pay for
// it.
type tracedEngine struct {
	inner exec.Engine
	rec   *recorder
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(env *exec.Env, stage *exec.Stage, conf exec.EngineConf) (*exec.StageResult, error) {
	e.rec.mu.Lock()
	parent := e.rec.statement
	e.rec.mu.Unlock()
	id := e.rec.begin("engine.stage", stage.ID, parent)
	res, err := e.inner.Run(env, stage, conf)
	e.rec.end(id)
	if err == nil && res.Trace != nil {
		e.rec.mu.Lock()
		e.rec.tasks += int64(res.Trace.NumMaps + res.Trace.NumReds)
		e.rec.mu.Unlock()
	}
	return res, err
}

// spanTotals are the span-derived per-layer numbers of one pass, in
// nanoseconds so that statement = driverSelf + stageUnion holds exactly.
type spanTotals struct {
	statementNs  int64
	stageNs      int64
	stageUnionNs int64
	driverSelfNs int64
	stages       int64
	tasks        int64
}

// totals folds the recorded spans. A layer's self time is its span's
// duration minus the part of that interval its child spans cover; for
// the driver that is statement time minus the union of stage intervals.
func (r *recorder) totals() spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t spanTotals
	type iv struct{ lo, hi int64 }
	var stages []iv
	for _, s := range r.spans {
		switch s.Name {
		case "hive.statement":
			t.statementNs += s.endNs - s.startNs
		case "engine.stage":
			t.stageNs += s.endNs - s.startNs
			t.stages++
			stages = append(stages, iv{s.startNs, s.endNs})
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].lo < stages[j].lo })
	var curLo, curHi int64
	for i, s := range stages {
		if i == 0 || s.lo > curHi {
			t.stageUnionNs += curHi - curLo
			curLo, curHi = s.lo, s.hi
		} else if s.hi > curHi {
			curHi = s.hi
		}
	}
	t.stageUnionNs += curHi - curLo
	t.driverSelfNs = t.statementNs - t.stageUnionNs
	t.tasks = r.tasks
	return t
}

// dump writes the spans as JSON (microseconds since the recorder's
// epoch).
func (r *recorder) dump(path string) error {
	r.mu.Lock()
	out := make([]span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	for i := range out {
		out[i].StartUs, out[i].EndUs = out[i].startNs/1000, out[i].endNs/1000
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
