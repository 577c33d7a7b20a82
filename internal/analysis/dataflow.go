package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the determinism dataflow engine: a value-flow analysis
// over the typed AST that tracks where *element order* comes from. The
// repo's core correctness claim — 22 TPC-H queries byte-identical
// across row/vectorized/adaptive/chaos/node-loss modes — died once
// already on an ordering leak the runtime suites missed for six PRs
// (PR 7's kvio tie-break: concurrent-sender arrival order leaking
// through key-equal sort ties into float partial-sum merge order). The
// engine makes that bug class a lint error instead of a soak-test
// coin flip.
//
// Model:
//
//   - SOURCES of nondeterministic order: ranging over a map (or over
//     maps.Keys/Values/All), and the arms of a select with two or more
//     communication cases (arrival order). Loop variables of an
//     unordered range and collections appended to inside one become
//     order-tainted.
//   - PROPAGATION: assignment, append/copy, composite literals, slice
//     and index expressions, string concatenation, and calls — results
//     of module-internal calls carry their callee's summary; results of
//     unknown external calls conservatively inherit their arguments'
//     taint when collection-shaped.
//   - SANITIZERS: the canonicalizing sorts (sort.*, slices.Sort*,
//     kvio.Sort, kvio.Run.SortByKeyValue/SortByPartKey) clear taint, as
//     does any module function whose own body sorts the parameter
//     (summarized as SanitizesParams). A kvio.Run carries order in its
//     receiver: Append and AppendBlock add their arguments' order to it,
//     SortByKeyValue and SortByPartKey clear it, and Entries, Source and
//     the pair accessors hand it on.
//   - SINKS: order-sensitive emission points — the kvio encoders
//     (AppendKV, Run.AppendWire/AppendWireKV), the shuffle send path (OContext.Send),
//     the comm_report/Chrome-trace writers, io/bufio/bytes/strings
//     writers, and fmt print output. Order-tainted data reaching a
//     sink is a finding. The loop variables of an unordered range are
//     the carriers: emitting loop-invariant bytes N times in map order
//     produces byte-identical output and does not fire, and neither do
//     integer/bool folds (sums, maxima, counts) over a map, which are
//     order-independent at the value level.
//
// The analysis is intra-procedural per function with inter-procedural
// function summaries (unordered results, sink parameters, sanitized
// parameters, param→result order flow) iterated to a fixpoint over the
// static call graph. All analyzers built on the engine (maporder,
// floatorder) share one Flow() pass, which itself reuses the single
// type-check pass of the loaded Program — hivelint type-checks the
// module exactly once no matter how many analyzers run.
//
// Known precision limits (kept deliberately, documented in DESIGN.md):
// taint through struct fields is tracked within one function body but
// not across functions; method receivers do not participate in
// summaries; channels other than select arms are treated as ordered
// (single-producer channels are, and multi-producer ones are flagged
// at their select/merge points).

// Finding is one determinism finding produced by the engine, tagged
// with the analyzer kind that should report it.
type Finding struct {
	Kind    string // "order-leak" (maporder) or "float-accum" (floatorder)
	Pos     token.Pos
	Pkg     *Package
	Message string
}

// FuncSummary is the inter-procedural order-flow summary of one
// declared function.
type FuncSummary struct {
	// UnorderedResults[i]: result i is built in nondeterministic order
	// inside the callee (e.g. it returns a map's keys unsorted).
	UnorderedResults []bool
	// SinkParams: bitmask of parameters whose order (or per-call value)
	// reaches an order-sensitive sink inside the callee without a
	// canonicalizing sort.
	SinkParams uint64
	// SanitizesParams: bitmask of parameters the callee sorts in place.
	SanitizesParams uint64
	// ResultParams[i]: bitmask of parameters whose order flows into
	// result i (pass-through helpers like dedupe/filter).
	ResultParams []uint64
}

// Dataflow is the engine instance for one loaded Program.
type Dataflow struct {
	prog      *Program
	idx       map[*types.Func]*FuncInfo
	summaries map[*types.Func]*FuncSummary
	findings  []Finding
}

// Flow returns the program's determinism dataflow, computing summaries
// and findings on first use and caching them so maporder and
// floatorder share one pass.
func (prog *Program) Flow() *Dataflow {
	if prog.flow != nil {
		return prog.flow
	}
	df := &Dataflow{
		prog:      prog,
		idx:       prog.FuncIndex(),
		summaries: make(map[*types.Func]*FuncSummary),
	}
	df.run()
	prog.flow = df
	return df
}

// Findings returns the engine's findings of one kind, in stable
// position order.
func (df *Dataflow) Findings(kind string) []Finding {
	var out []Finding
	for _, f := range df.findings {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// run computes function summaries to a fixpoint, then does one
// reporting pass that records findings.
func (df *Dataflow) run() {
	funcs := make([]*types.Func, 0, len(df.idx))
	for obj := range df.idx {
		funcs = append(funcs, obj)
	}
	// Deterministic order: summaries converge regardless, but findings
	// and fixpoint iteration counts must not depend on map order.
	sort.Slice(funcs, func(i, j int) bool {
		return df.prog.Fset.Position(funcs[i].Pos()).Offset < df.prog.Fset.Position(funcs[j].Pos()).Offset ||
			df.idx[funcs[i]].Pkg.Path < df.idx[funcs[j]].Pkg.Path
	})
	for _, obj := range funcs {
		df.summaries[obj] = newSummary(obj)
	}
	for pass := 0; pass < 10; pass++ {
		changed := false
		for _, obj := range funcs {
			if df.analyzeFunc(obj, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, obj := range funcs {
		df.analyzeFunc(obj, true)
	}
}

func newSummary(obj *types.Func) *FuncSummary {
	sig := obj.Type().(*types.Signature)
	return &FuncSummary{
		UnorderedResults: make([]bool, sig.Results().Len()),
		ResultParams:     make([]uint64, sig.Results().Len()),
	}
}

// orderSrc is one nondeterministic origin, rendered into messages.
type orderSrc struct {
	desc string
	pos  token.Pos
}

// taint is the order lattice value of one expression or variable: the
// set of nondeterministic origins plus a bitmask of function
// parameters whose order it inherits.
type taint struct {
	srcs   []orderSrc
	params uint64
}

func (t taint) empty() bool { return len(t.srcs) == 0 && t.params == 0 }

func (t taint) union(o taint) taint {
	out := taint{params: t.params | o.params}
	out.srcs = append(out.srcs, t.srcs...)
	for _, s := range o.srcs {
		dup := false
		for _, have := range out.srcs {
			if have.desc == s.desc && have.pos == s.pos {
				dup = true
				break
			}
		}
		if !dup && len(out.srcs) < 4 {
			out.srcs = append(out.srcs, s)
		}
	}
	return out
}

// flowWalker analyzes one function body. The analysis is
// argument-driven: a sink fires only when order-tainted *data* reaches
// it, never merely because it executes inside an unordered loop —
// emitting loop-invariant bytes N times in map order produces
// identical output, and integer folds (sums, maxima) over a map are
// order-independent. The loop variables of an unordered range are the
// taint carriers.
type flowWalker struct {
	df      *Dataflow
	pkg     *Package
	obj     *types.Func
	sig     *types.Signature
	sum     *FuncSummary
	vars    map[types.Object]taint
	fields  map[string]taint
	report  bool
	changed bool
}

// analyzeFunc runs one intra-procedural pass over obj's body, updating
// its summary; report=true also records findings. Returns whether the
// summary changed.
func (df *Dataflow) analyzeFunc(obj *types.Func, report bool) bool {
	fi := df.idx[obj]
	w := &flowWalker{
		df:     df,
		pkg:    fi.Pkg,
		obj:    obj,
		sig:    obj.Type().(*types.Signature),
		sum:    df.summaries[obj],
		vars:   make(map[types.Object]taint),
		fields: make(map[string]taint),
		report: report,
	}
	// Seed: every parameter carries its own order/value mark so the
	// walk discovers which parameters reach sinks or results.
	for i := 0; i < w.sig.Params().Len() && i < 64; i++ {
		if p := w.sig.Params().At(i); p.Name() != "" && p.Name() != "_" {
			w.vars[p] = taint{params: 1 << uint(i)}
		}
	}
	w.walkStmt(fi.Decl.Body)
	return w.changed
}

// ---- summary mutation helpers (track convergence) ----

func (w *flowWalker) markSinkParams(mask uint64) {
	if mask&^w.sum.SinkParams != 0 {
		w.sum.SinkParams |= mask
		w.changed = true
	}
}

func (w *flowWalker) markSanitizes(mask uint64) {
	if mask&^w.sum.SanitizesParams != 0 {
		w.sum.SanitizesParams |= mask
		w.changed = true
	}
}

func (w *flowWalker) markResult(i int, t taint) {
	if i >= len(w.sum.UnorderedResults) {
		return
	}
	if len(t.srcs) > 0 && !w.sum.UnorderedResults[i] {
		w.sum.UnorderedResults[i] = true
		w.changed = true
	}
	if t.params&^w.sum.ResultParams[i] != 0 {
		w.sum.ResultParams[i] |= t.params
		w.changed = true
	}
}

func (w *flowWalker) finding(kind string, pos token.Pos, format string, args ...any) {
	if !w.report {
		return
	}
	w.df.findings = append(w.df.findings, Finding{
		Kind:    kind,
		Pos:     pos,
		Pkg:     w.pkg,
		Message: fmt.Sprintf(format, args...),
	})
}

// describe renders a taint's origin for a finding message.
func describe(t taint) string {
	if len(t.srcs) == 0 {
		return "a nondeterministic source"
	}
	parts := make([]string, 0, len(t.srcs))
	for _, s := range t.srcs {
		parts = append(parts, s.desc)
	}
	return strings.Join(parts, " and ")
}

// ---- places (assignable variables and fields) ----

// place resolves an assignable expression to its taint storage key:
// a *types.Var for locals/params, a field ID string for struct fields,
// or nil for untracked places (map/slice elements, blank).
func (w *flowWalker) place(e ast.Expr) any {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if obj := w.pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		if obj := w.pkg.Info.Uses[e]; obj != nil {
			return obj
		}
	case *ast.SelectorExpr:
		if s, ok := w.pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			if n := recvNamed(s.Recv()); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.StarExpr:
		return w.place(e.X)
	}
	return nil
}

func (w *flowWalker) getPlace(p any) taint {
	switch p := p.(type) {
	case types.Object:
		return w.vars[p]
	case string:
		return w.fields[p]
	}
	return taint{}
}

func (w *flowWalker) setPlace(p any, t taint) {
	switch p := p.(type) {
	case types.Object:
		if t.empty() {
			delete(w.vars, p)
		} else {
			w.vars[p] = t
		}
	case string:
		if t.empty() {
			delete(w.fields, p)
		} else {
			w.fields[p] = t
		}
	}
}

// clearPlaceOf removes taint from the place behind an expression (used
// by sanitizers: sort.Slice(x, ...) cleans x).
func (w *flowWalker) clearPlaceOf(e ast.Expr) {
	if p := w.place(e); p != nil {
		w.setPlace(p, taint{})
	}
	// &x sanitizes x too (sort.Sort(byKey(&x)) shapes).
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		w.clearPlaceOf(u.X)
	}
}

// ---- statement walk ----

func (w *flowWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			w.walkStmt(sub)
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Cond)
		w.walkStmt(st.Body)
		w.walkStmt(st.Else)
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Cond)
		w.walkStmt(st.Post)
		w.walkStmt(st.Body)
	case *ast.RangeStmt:
		w.walkRange(st)
	case *ast.SelectStmt:
		w.walkSelect(st)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Tag)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.walkExpr(e)
			}
			for _, sub := range cc.Body {
				w.walkStmt(sub)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init)
		w.walkStmt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, sub := range cc.Body {
				w.walkStmt(sub)
			}
		}
	case *ast.ExprStmt:
		w.walkExpr(st.X)
	case *ast.AssignStmt:
		w.walkAssign(st)
	case *ast.ReturnStmt:
		w.walkReturn(st)
	case *ast.DeferStmt:
		w.walkExpr(st.Call)
	case *ast.GoStmt:
		w.walkExpr(st.Call)
	case *ast.SendStmt:
		w.walkExpr(st.Chan)
		w.walkExpr(st.Value)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						t := w.walkExpr(vs.Values[i])
						if obj := w.pkg.Info.Defs[name]; obj != nil {
							w.setPlace(obj, t)
						}
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		w.walkExpr(st.X)
	}
}

// walkRange handles range statements: classify the iteration order and
// taint the loop variables when the order is nondeterministic or
// parameter-derived — they are the carriers that make downstream
// emission and accumulation findings fire.
func (w *flowWalker) walkRange(st *ast.RangeStmt) {
	xt := w.walkExpr(st.X)
	var lt taint

	if src, ok := w.unorderedRangeSource(st.X); ok {
		lt = lt.union(taint{srcs: []orderSrc{{desc: src, pos: st.Pos()}}})
	}
	if !xt.empty() {
		// Ranging over an order-tainted collection: the loop variables
		// arrive in that nondeterministic (or parameter-supplied) order.
		lt = lt.union(xt)
	}

	if !lt.empty() {
		for _, lv := range []ast.Expr{st.Key, st.Value} {
			if lv == nil {
				continue
			}
			if p := w.place(lv); p != nil {
				w.setPlace(p, lt)
			}
		}
		w.walkStmt(st.Body)
		// The loop variables do not outlive the loop.
		for _, lv := range []ast.Expr{st.Key, st.Value} {
			if lv == nil {
				continue
			}
			if id, ok := lv.(*ast.Ident); ok {
				if obj := w.pkg.Info.Defs[id]; obj != nil {
					delete(w.vars, obj)
				}
			}
		}
		return
	}
	w.walkStmt(st.Body)
}

// unorderedRangeSource reports whether ranging over x iterates in
// nondeterministic order by construction: map types, and the map
// iterators maps.Keys/maps.Values/maps.All.
func (w *flowWalker) unorderedRangeSource(x ast.Expr) (string, bool) {
	if tv, ok := w.pkg.Info.Types[x]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return "map iteration order", true
		}
	}
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if c := Callee(w.pkg, call); c != nil && c.Pkg() != nil && c.Pkg().Path() == "maps" {
			switch c.Name() {
			case "Keys", "Values", "All":
				return "maps." + c.Name() + " iteration order", true
			}
		}
	}
	return "", false
}

// walkSelect handles select statements: with two or more communication
// cases the chosen arm is arrival order, a nondeterministic source.
func (w *flowWalker) walkSelect(st *ast.SelectStmt) {
	comm := 0
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	unordered := comm >= 2
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if !unordered {
			w.walkStmt(cc.Comm)
			for _, sub := range cc.Body {
				w.walkStmt(sub)
			}
			continue
		}
		// Values received in the arm carry arrival-order taint: the
		// received payloads are what can leak arrival order downstream.
		at := taint{srcs: []orderSrc{{desc: "select arrival order", pos: st.Pos()}}}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if p := w.place(lhs); p != nil {
					w.setPlace(p, at)
				}
			}
		} else {
			w.walkStmt(cc.Comm)
		}
		for _, sub := range cc.Body {
			w.walkStmt(sub)
		}
	}
}

// walkAssign handles assignments: sanitize-by-reassignment, append
// accumulation inside unordered regions, and float accumulation
// findings.
func (w *flowWalker) walkAssign(st *ast.AssignStmt) {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			// x, y := f(): distribute the call's per-result taint.
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
				ts := w.callResultTaints(call, len(st.Lhs))
				for i, lhs := range st.Lhs {
					if p := w.place(lhs); p != nil {
						w.setPlace(p, ts[i])
					}
				}
				return
			}
		}
		for i, rhs := range st.Rhs {
			t := w.walkExpr(rhs)
			if i < len(st.Lhs) {
				w.maybeFloatAccum(st, st.Lhs[i], rhs, t)
				// Numeric/bool targets drop taint: folding tainted
				// values into an int max/sum/count is order-independent
				// (float folds were just checked above, before the
				// drop).
				if inertType(w.exprType(st.Lhs[i])) {
					t = taint{}
				}
				if p := w.place(st.Lhs[i]); p != nil {
					w.setPlace(p, t)
				}
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		t := w.walkExpr(st.Rhs[0])
		w.maybeFloatAccumOp(st, st.Lhs[0], t)
		// Accumulating order-tainted content (s += elem,
		// buf += render(k)) builds the string/slice in the taint's
		// order.
		if st.Tok == token.ADD_ASSIGN && isOrderCarrying(w.exprType(st.Lhs[0])) && !t.empty() {
			if p := w.place(st.Lhs[0]); p != nil {
				w.setPlace(p, w.getPlace(p).union(t))
			}
		}
	default:
		for _, rhs := range st.Rhs {
			w.walkExpr(rhs)
		}
	}
}

// maybeFloatAccum flags x = x + e / x = e + x float accumulation whose
// operand order is nondeterministic.
func (w *flowWalker) maybeFloatAccum(st *ast.AssignStmt, lhs, rhs ast.Expr, rhsTaint taint) {
	be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (be.Op != token.ADD && be.Op != token.MUL) {
		return
	}
	lp := w.place(lhs)
	if lp == nil {
		return
	}
	if xp := w.place(be.X); xp != lp {
		if yp := w.place(be.Y); yp != lp {
			return
		}
	}
	w.floatAccumFinding(st.Pos(), lhs, rhsTaint)
}

// maybeFloatAccumOp flags x += e / x *= e float accumulation.
func (w *flowWalker) maybeFloatAccumOp(st *ast.AssignStmt, lhs ast.Expr, rhsTaint taint) {
	w.floatAccumFinding(st.Pos(), lhs, rhsTaint)
}

// floatAccumFinding emits a float-accum finding when lhs is a float
// accumulator (not element-indexed — per-key map accumulation is
// order-independent) and the folded operand is order-tainted: its
// values arrive in map-range or select-arrival order.
func (w *flowWalker) floatAccumFinding(pos token.Pos, lhs ast.Expr, rhsTaint taint) {
	if !w.report {
		return
	}
	if _, indexed := ast.Unparen(lhs).(*ast.IndexExpr); indexed {
		return
	}
	if !isFloat(w.exprType(lhs)) {
		return
	}
	src := rhsTaint
	if len(src.srcs) == 0 {
		return
	}
	w.finding("float-accum", pos,
		"float accumulation order derives from %s; float addition is not associative, so the sum's bits depend on iteration order — accumulate over a sorted sequence (or sort the operands) to keep exact aggregates byte-identical",
		describe(src))
}

// walkReturn folds returned taint into the function summary.
func (w *flowWalker) walkReturn(st *ast.ReturnStmt) {
	if len(st.Results) == 1 && len(w.sum.UnorderedResults) > 1 {
		if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
			ts := w.callResultTaints(call, len(w.sum.UnorderedResults))
			for i, t := range ts {
				w.markResult(i, t)
			}
			return
		}
	}
	for i, res := range st.Results {
		w.markResult(i, w.walkExpr(res))
	}
}

// ---- expression walk ----

// walkExpr computes the order taint of an expression, processing any
// calls inside it for sink/sanitizer/summary effects.
func (w *flowWalker) walkExpr(e ast.Expr) taint {
	switch e := e.(type) {
	case nil:
		return taint{}
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[e]; obj != nil {
			return w.vars[obj]
		}
		return taint{}
	case *ast.ParenExpr:
		return w.walkExpr(e.X)
	case *ast.SelectorExpr:
		if s, ok := w.pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			base := w.walkExpr(e.X)
			if p := w.place(e); p != nil {
				return w.getPlace(p).union(base)
			}
			return base
		}
		return w.walkExpr(e.X)
	case *ast.CallExpr:
		ts := w.callResultTaints(e, 1)
		return ts[0]
	case *ast.BinaryExpr:
		return w.walkExpr(e.X).union(w.walkExpr(e.Y))
	case *ast.UnaryExpr:
		return w.walkExpr(e.X)
	case *ast.StarExpr:
		return w.walkExpr(e.X)
	case *ast.IndexExpr:
		// An element read out of an order-tainted sequence is itself
		// position-dependent. Map indexing is deterministic.
		it := w.walkExpr(e.Index)
		xt := w.walkExpr(e.X)
		if tv, ok := w.pkg.Info.Types[e.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return it
			}
		}
		return xt.union(it)
	case *ast.SliceExpr:
		return w.walkExpr(e.X)
	case *ast.TypeAssertExpr:
		return w.walkExpr(e.X)
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.union(w.walkExpr(kv.Value))
				continue
			}
			t = t.union(w.walkExpr(el))
		}
		return t
	case *ast.FuncLit:
		// Closures share the enclosing variables' taint; their bodies
		// are walked for sink effects at the definition point.
		w.walkStmt(e.Body)
		return taint{}
	}
	return taint{}
}

// callResultTaints processes one call for its effects (sinks,
// sanitizers, summaries) and returns the taint of each of nres
// results.
func (w *flowWalker) callResultTaints(call *ast.CallExpr, nres int) []taint {
	out := make([]taint, nres)

	// Builtins first: append and copy are propagation, not calls.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				// Appending order-tainted elements (the loop variables
				// of an unordered range) builds the slice in that order.
				var t taint
				for _, arg := range call.Args {
					t = t.union(w.walkExpr(arg))
				}
				out[0] = t
				return out
			case "copy":
				st := w.walkExpr(call.Args[1])
				w.walkExpr(call.Args[0])
				if p := w.place(call.Args[0]); p != nil {
					w.setPlace(p, w.getPlace(p).union(st))
				}
				return out
			default:
				for _, arg := range call.Args {
					w.walkExpr(arg)
				}
				return out
			}
		}
	}

	argTaints := make([]taint, len(call.Args))
	var argUnion taint
	for i, arg := range call.Args {
		argTaints[i] = w.walkExpr(arg)
		argUnion = argUnion.union(argTaints[i])
	}
	// Method calls: walk the receiver expression once — its taint joins
	// the argument union so methods like Builder.String() propagate the
	// receiver's accumulated order.
	var recvTaint taint
	funWalked := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := w.pkg.Info.Selections[sel]; isSel {
			recvTaint = w.walkExpr(sel.X)
			argUnion = argUnion.union(recvTaint)
			funWalked = true
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: walk its body.
		w.walkStmt(fl.Body)
		return out
	}

	callee := Callee(w.pkg, call)
	if callee == nil {
		// Dynamic call (func value, interface method not resolved):
		// conservative collection pass-through.
		if !funWalked {
			w.walkExpr(call.Fun)
		}
		for i := range out {
			out[i] = w.passThrough(argUnion)
		}
		return out
	}

	// kvio.Run, the in-memory sorted run, carries order in its receiver.
	if isMethodOn(callee, w.df.prog.ModulePath+"/internal/kvio", "Run") && funWalked {
		recv := ast.Unparen(call.Fun).(*ast.SelectorExpr).X
		switch callee.Name() {
		case "SortByKeyValue", "SortByPartKey":
			// A canonicalizing sort, like kvio.Sort: the run's order is
			// the sort's from here on.
			w.clearPlaceOf(recv)
			return out
		case "Append", "AppendBlock":
			// Pairs join the run in the order the calls are made.
			if p := w.place(recv); p != nil {
				w.setPlace(p, w.getPlace(p).union(argUnion))
			}
			return out
		case "Entries", "Source":
			// The index, in the run's current order.
			out[0] = recvTaint
			return out
		case "Key", "Value", "Wire":
			// A pair cut from the arena by an entry of that index.
			out[0] = argUnion
			return out
		}
	}

	// Sanitizers: canonicalizing sorts clean their argument in place.
	if mask, ok := w.sanitizerArgs(callee, call); ok {
		for i, arg := range call.Args {
			if mask&(1<<uint(i)) != 0 {
				w.clearPlaceOf(arg)
			}
		}
		return out
	}

	// Sinks: order-sensitive emission points.
	if desc, ok := w.sinkCall(callee); ok {
		w.sinkHit(call.Pos(), desc, argUnion)
		return out
	}

	// Module-internal callee: apply its summary.
	if sum, known := w.df.summaries[callee]; known {
		// Parameters the callee sorts are clean afterwards.
		if sum.SanitizesParams != 0 {
			for i, arg := range call.Args {
				if sum.SanitizesParams&(1<<uint(paramIndex(w.sig, callee, i))) != 0 {
					w.clearPlaceOf(arg)
					argTaints[i] = taint{}
				}
			}
		}
		// Parameters that reach a sink inside the callee: passing
		// order-tainted data (or calling per-iteration in an unordered
		// region) leaks order through it.
		if sum.SinkParams != 0 {
			var leaked taint
			for i := range call.Args {
				if sum.SinkParams&(1<<uint(paramIndex(w.sig, callee, i))) != 0 {
					leaked = leaked.union(argTaints[i])
				}
			}
			w.sinkHit(call.Pos(), funcDisplayName(callee)+" (which emits its argument to an order-sensitive sink)", leaked)
		}
		for i := range out {
			if i < len(sum.UnorderedResults) && sum.UnorderedResults[i] {
				out[i] = out[i].union(taint{srcs: []orderSrc{{
					desc: "the unordered result of " + funcDisplayName(callee),
					pos:  call.Pos(),
				}}})
			}
			if i < len(sum.ResultParams) && sum.ResultParams[i] != 0 {
				for j := range call.Args {
					if sum.ResultParams[i]&(1<<uint(j)) != 0 && j < len(argTaints) {
						out[i] = out[i].union(argTaints[j])
					}
				}
			}
		}
		return out
	}

	// Unknown external callee: results that are collection-shaped
	// conservatively inherit argument order (strings.Join,
	// slices.Collect, bytes.Join ... all preserve element order).
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < nres && i < sig.Results().Len(); i++ {
			if isOrderCarrying(sig.Results().At(i).Type()) {
				out[i] = w.passThrough(argUnion)
			}
		}
	}
	return out
}

// paramIndex maps a call-site argument index to the callee's parameter
// index, folding variadic overflow onto the last parameter.
func paramIndex(_ *types.Signature, callee *types.Func, argIdx int) int {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return argIdx
	}
	if argIdx >= sig.Params().Len() {
		return sig.Params().Len() - 1
	}
	return argIdx
}

// passThrough keeps only taint worth propagating through an opaque
// callee.
func (w *flowWalker) passThrough(t taint) taint { return t }

// sinkHit handles order taint arriving at a sink: nondeterministic
// sources become findings, parameter marks become summary facts. Only
// the taint of the data actually passed matters — a sink executing
// inside an unordered loop with untainted arguments emits the same
// bytes regardless of iteration order.
func (w *flowWalker) sinkHit(pos token.Pos, desc string, argTaint taint) {
	full := argTaint
	if full.params != 0 {
		w.markSinkParams(full.params)
	}
	if len(full.srcs) > 0 {
		w.finding("order-leak", pos,
			"%s receives data whose order derives from %s without an intervening canonicalizing sort; byte-identical output across runs requires a deterministic emission order (sort keys first, or emit through kvio.Sort or a sorted kvio.Run)",
			desc, describe(full))
	}
}

// sanitizerArgs reports whether callee is a canonicalizing sort and
// which argument indices it sanitizes.
func (w *flowWalker) sanitizerArgs(callee *types.Func, call *ast.CallExpr) (uint64, bool) {
	if callee.Pkg() == nil {
		return 0, false
	}
	switch callee.Pkg().Path() {
	case "sort":
		switch callee.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return 1, true
		}
	case "slices":
		switch callee.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return 1, true
		}
	}
	if callee.Pkg().Path() == w.df.prog.ModulePath+"/internal/kvio" && callee.Name() == "Sort" {
		return 1, true
	}
	return 0, false
}

// sinkCall reports whether callee is an order-sensitive emission point.
func (w *flowWalker) sinkCall(callee *types.Func) (string, bool) {
	if callee.Pkg() == nil {
		return "", false
	}
	mod := w.df.prog.ModulePath
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "fmt":
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name + " output", true
		}
	case mod + "/internal/kvio":
		if name == "AppendKV" {
			return "the kvio wire encoder (AppendKV)", true
		}
	case mod + "/internal/obs":
		if name == "WriteChromeTrace" {
			return "the Chrome-trace writer", true
		}
	case mod + "/internal/obs/comm":
		if name == "WriteJSON" {
			return "the comm_report writer", true
		}
	}
	switch {
	case isMethodOn(callee, mod+"/internal/kvio", "Run") && (name == "AppendWire" || name == "AppendWireKV"):
		return "the kvio run writer", true
	case isMethodOn(callee, mod+"/internal/datampi", "OContext") && name == "Send":
		return "the shuffle send path (OContext.Send)", true
	case isMethodOn(callee, "io", "Writer") && name == "Write":
		return "an io.Writer", true
	case isMethodOn(callee, "bufio", "Writer") && strings.HasPrefix(name, "Write"):
		return "a bufio.Writer", true
	case isMethodOn(callee, "bytes", "Buffer") && strings.HasPrefix(name, "Write"):
		return "a bytes.Buffer", true
	case isMethodOn(callee, "strings", "Builder") && strings.HasPrefix(name, "Write"):
		return "a strings.Builder", true
	}
	return "", false
}

// ---- type helpers ----

func (w *flowWalker) exprType(e ast.Expr) types.Type {
	if tv, ok := w.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// inertType reports whether values of the type cannot carry observable
// order: integers and bools. Folding a map's values into an int
// max/sum/count yields the same scalar in any iteration order, so
// assignment into such a target is sound to drop. Floats are NOT
// inert — their folds are non-associative, and a tainted float copy
// must keep its mark so a later `sum += x` still fires.
func inertType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// isOrderCarrying reports whether a type can carry element order:
// slices, arrays and strings (the shapes taint propagates through).
func isOrderCarrying(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Info()&types.IsString != 0
	}
	return false
}
