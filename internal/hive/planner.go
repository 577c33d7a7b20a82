package hive

import (
	"fmt"

	"hivempi/internal/exec"
	"hivempi/internal/storage"
)

// Planner lowers SELECT statements into exec.Stage DAGs. It performs
// the optimizations the paper's evaluation depends on: predicate
// pushdown to table scans, column projection for ORC and Text, map-join
// selection for small tables, map-side partial aggregation, and the
// staged join/aggregate/order decomposition that Hive's MapReduce
// compiler produces.
type Planner struct {
	Env *exec.Env
	MS  *Metastore

	// MapJoinThresholdBytes selects map joins for tables smaller than
	// this (hive.mapjoin.smalltable.filesize analogue).
	MapJoinThresholdBytes int64
	// TmpRoot is the DFS directory for intermediate stage output.
	TmpRoot string

	// Ablation switches (benchmarking the planner's optimizations).
	DisableMapAggregation bool // ship raw rows instead of partial states
	DisableProjection     bool // materialize every column of ORC and Text scans
	DisablePushdown       bool // no ORC stripe-skip predicates

	seq int
}

// DefaultMapJoinThreshold is scaled for the 1:1000 datasets.
const DefaultMapJoinThreshold = 256 << 10

// dest describes where a query's final stage delivers rows.
type dest struct {
	sinkDir string
	format  storage.Format
	collect bool
}

// relation is a planning-time intermediate: a readable input plus the
// operator chain still pending on it and its visible columns.
type relation struct {
	input    exec.TableInput
	sch      relSchema
	pending  []exec.MapOp
	base     bool  // raw table scan (projection/predicate pushdown applies)
	rawBytes int64 // metastore RawBytes estimate (0 = unknown)
}

func (p *Planner) tmpDir() string {
	p.seq++
	return fmt.Sprintf("%s/stage%05d", p.TmpRoot, p.seq)
}

func (p *Planner) threshold() int64 {
	if p.MapJoinThresholdBytes > 0 {
		return p.MapJoinThresholdBytes
	}
	return DefaultMapJoinThreshold
}

// PlanQuery lowers one SELECT into stages; the final stage delivers to
// d. Returns the stages and the output schema.
func (p *Planner) PlanQuery(s *SelectStmt, d dest) ([]*exec.Stage, relSchema, error) {
	var stages []*exec.Stage
	out, err := p.planSelect(s, d, &stages)
	if err != nil {
		return nil, nil, err
	}
	// Only a user-facing SELECT's final job is "the last stage in a
	// query" for the enhanced strategy's 1-reducer rule (paper §IV-D);
	// a CTAS/INSERT statement materializes a table other jobs read, so
	// collapsing it to one reducer would serialize the pipeline.
	if len(stages) > 0 && d.collect {
		stages[len(stages)-1].LastStage = true
	}
	return stages, out, nil
}

// planSelect appends the stages for s to *stages.
func (p *Planner) planSelect(s *SelectStmt, d dest, stages *[]*exec.Stage) (relSchema, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("hive: SELECT without FROM is not supported")
	}

	// Resolve FROM entries to relations.
	rels := make([]*relation, len(s.From))
	aliases := make([]string, len(s.From))
	for i, ref := range s.From {
		rel, err := p.fromRelation(ref, stages)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
		aliases[i] = ref.Alias
	}

	// A relation on the null-producing side of an outer join must not
	// receive pushed-down WHERE filters: predicates like "x IS NULL"
	// test the join's padding and only hold post-join.
	nullable := make([]bool, len(s.From))
	for i, ref := range s.From {
		if ref.Join == JoinLeftOuterK {
			nullable[i] = true
		}
		if ref.Join == JoinRightOuterK {
			for j := 0; j < i; j++ {
				nullable[j] = true
			}
		}
	}

	// Split WHERE into conjuncts and classify them.
	var conjuncts []Node
	splitConjuncts(s.Where, &conjuncts)
	var residual []Node
	for _, c := range conjuncts {
		owner, multi := p.conjunctOwner(c, rels, aliases)
		if !multi && owner >= 0 && !nullable[owner] {
			f, _, err := resolve(c, rels[owner].sch)
			if err != nil {
				return nil, err
			}
			p.pushFilter(rels[owner], f)
			continue
		}
		residual = append(residual, c)
	}

	// Column pruning for shuffle joins (Hive's ReduceSink pruning):
	// collect every column the rest of the query can reference, so join
	// stages only shuffle and materialize those.
	needed := neededColumns(s)

	// Bushy decomposition first: an all-inner FROM whose join graph
	// splits into two connected halves plans each half independently,
	// so the stage DAG scheduler can overlap them. Falls back to the
	// left-deep chain when the query does not qualify.
	cur, rest, bushy, err := p.planBushy(s, rels, aliases, residual, needed, stages)
	if err != nil {
		return nil, err
	}
	if bushy {
		residual = rest
	} else {
		// Left-deep join.
		cur = rels[0]
		curAliases := map[string]bool{aliases[0]: true}
		for i := 1; i < len(s.From); i++ {
			ref := s.From[i]
			right := rels[i]
			// Gather join conditions: explicit ON plus residual
			// equalities now spanning cur and right.
			var conds []Node
			splitConjuncts(ref.On, &conds)
			var stillResidual []Node
			for _, c := range residual {
				if p.refersOnly(c, curAliases, aliases[i]) {
					conds = append(conds, c)
				} else {
					stillResidual = append(stillResidual, c)
				}
			}
			residual = stillResidual

			var err error
			cur, err = p.planJoin(cur, right, ref.Join, conds, needed, stages)
			if err != nil {
				return nil, err
			}
			curAliases[aliases[i]] = true

			// Residual conjuncts now fully resolvable run as filters.
			residual = p.applyResolvable(residual, cur)
		}
	}
	if len(residual) > 0 {
		// Single-table query: filters attach directly.
		if len(s.From) == 1 {
			for _, c := range residual {
				f, _, err := resolve(c, cur.sch)
				if err != nil {
					return nil, err
				}
				p.pushFilter(cur, f)
			}
		} else {
			return nil, fmt.Errorf("hive: WHERE conjunct not resolvable after joins: %s", nodeKey(residual[0]))
		}
	}

	// DISTINCT becomes GROUP BY over every select item.
	items := s.Items
	groupBy := s.GroupBy
	if s.Distinct {
		if len(groupBy) > 0 {
			return nil, fmt.Errorf("hive: SELECT DISTINCT with GROUP BY is not supported")
		}
		for _, it := range items {
			if it.Star != "" {
				return nil, fmt.Errorf("hive: SELECT DISTINCT * is not supported")
			}
			groupBy = append(groupBy, it.Expr)
		}
	}

	// Expand stars.
	items, err = p.expandStars(items, cur.sch)
	if err != nil {
		return nil, err
	}

	// Detect aggregation.
	var aggs []*FuncExpr
	seen := map[string]bool{}
	for _, it := range items {
		collectAggs(it.Expr, &aggs, seen)
	}
	collectAggs(s.Having, &aggs, seen)
	for _, o := range s.OrderBy {
		collectAggs(o.Expr, &aggs, seen)
	}
	hasAgg := len(aggs) > 0 || len(groupBy) > 0

	if hasAgg {
		return p.planAggregate(s, cur, items, groupBy, aggs, d, stages)
	}
	return p.planSimple(s, cur, items, d, stages)
}

// fromRelation resolves one FROM entry.
func (p *Planner) fromRelation(ref TableRef, stages *[]*exec.Stage) (*relation, error) {
	if ref.Subquery != nil {
		// Hive inlines simple derived tables into the consuming stage's
		// map work instead of materializing them (the HiBench JOIN
		// workload compiles to three jobs because of this).
		if rel, ok, err := p.inlineSubquery(ref); err != nil {
			return nil, err
		} else if ok {
			return rel, nil
		}
		tmp := p.tmpDir()
		sub, err := p.planSelect(ref.Subquery, dest{sinkDir: tmp, format: storage.FormatSequence}, stages)
		if err != nil {
			return nil, err
		}
		sch := make(relSchema, len(sub))
		for i, c := range sub {
			sch[i] = colInfo{qualifier: ref.Alias, name: c.name, kind: c.kind}
		}
		return &relation{
			input: exec.TableInput{
				Table:  ref.Alias,
				Dir:    tmp,
				Format: storage.FormatSequence,
				Schema: sch.toSchema(),
			},
			sch: sch,
		}, nil
	}
	t, err := p.MS.Get(ref.Table)
	if err != nil {
		return nil, err
	}
	paths := t.DataPaths(p.Env.FS)
	if len(paths) == 0 {
		return nil, fmt.Errorf("hive: table %s has no data files under %s", t.Name, t.Location)
	}
	sch := make(relSchema, t.Schema.Len())
	for i, c := range t.Schema.Columns {
		sch[i] = colInfo{qualifier: ref.Alias, name: c.Name, kind: c.Type}
	}
	return &relation{
		input: exec.TableInput{
			Table: t.Name,
			Paths: paths,
			// Dir carries the table's location as its identity: the
			// adapt runtime keys partition-histogram observations by
			// directory, so a scan of a just-materialized table finds
			// the distribution its producer recorded. Paths still pin
			// the scanned files (ResolvePaths prefers them).
			Dir:    t.Location,
			Format: t.Format,
			Schema: t.Schema,
		},
		sch:      sch,
		base:     true,
		rawBytes: t.Stats.RawBytes,
	}, nil
}

// inlineSubquery merges a single-table scan/filter/project derived
// table into a relation with pending operators (no extra stage).
func (p *Planner) inlineSubquery(ref TableRef) (*relation, bool, error) {
	sub := ref.Subquery
	if len(sub.From) != 1 || sub.From[0].Subquery != nil ||
		len(sub.GroupBy) > 0 || sub.Having != nil || len(sub.OrderBy) > 0 ||
		sub.Limit >= 0 || sub.Distinct {
		return nil, false, nil
	}
	var aggs []*FuncExpr
	seen := map[string]bool{}
	for _, it := range sub.Items {
		if it.Star != "" {
			return nil, false, nil
		}
		collectAggs(it.Expr, &aggs, seen)
	}
	if len(aggs) > 0 {
		return nil, false, nil
	}
	var noStages []*exec.Stage
	rel, err := p.fromRelation(sub.From[0], &noStages)
	if err != nil || len(noStages) > 0 {
		return nil, false, err
	}
	if sub.Where != nil {
		f, _, err := resolve(sub.Where, rel.sch)
		if err != nil {
			return nil, false, err
		}
		p.pushFilter(rel, f)
	}
	exprs := make([]exec.Expr, len(sub.Items))
	outSch := make(relSchema, len(sub.Items))
	for i, it := range sub.Items {
		e, k, err := resolve(it.Expr, rel.sch)
		if err != nil {
			return nil, false, err
		}
		exprs[i] = e
		outSch[i] = colInfo{qualifier: ref.Alias, name: itemName(it, i), kind: k}
	}
	rel.pending = append(rel.pending, &exec.SelectOp{Exprs: exprs})
	rel.sch = outSch
	return rel, true, nil
}

// pushFilter appends a filter to the relation's pending chain, also
// registering a pushdown predicate for ORC scans when the shape allows
// (only while the pending chain hasn't remapped columns yet).
func (p *Planner) pushFilter(rel *relation, f exec.Expr) {
	defer func() { rel.pending = append(rel.pending, &exec.FilterOp{Cond: f}) }()
	if !rel.base || rel.input.Predicate != nil || p.DisablePushdown {
		return
	}
	for _, op := range rel.pending {
		if _, ok := op.(*exec.FilterOp); !ok {
			return // column indices no longer match the scan schema
		}
	}
	if pred := extractPredicate(f); pred != nil {
		rel.input.Predicate = pred
	}
}

// extractPredicate recognizes Cmp(ColRef, Const) shapes for ORC
// stripe skipping.
func extractPredicate(f exec.Expr) *storage.Predicate {
	cmp, ok := f.(*exec.Cmp)
	if !ok {
		return nil
	}
	colL, okL := cmp.L.(*exec.ColRef)
	constR, okCR := cmp.R.(*exec.Const)
	if okL && okCR {
		op, ok := predOp(cmp.Op, false)
		if !ok {
			return nil
		}
		return &storage.Predicate{Column: colL.Idx, Op: op, Value: constR.D}
	}
	constL, okCL := cmp.L.(*exec.Const)
	colR, okR := cmp.R.(*exec.ColRef)
	if okCL && okR {
		op, ok := predOp(cmp.Op, true)
		if !ok {
			return nil
		}
		return &storage.Predicate{Column: colR.Idx, Op: op, Value: constL.D}
	}
	return nil
}

func predOp(op exec.CmpOpKind, flipped bool) (storage.PredicateOp, bool) {
	switch op {
	case exec.CmpEQ:
		return storage.PredEQ, true
	case exec.CmpLT:
		if flipped {
			return storage.PredGT, true
		}
		return storage.PredLT, true
	case exec.CmpLE:
		if flipped {
			return storage.PredGE, true
		}
		return storage.PredLE, true
	case exec.CmpGT:
		if flipped {
			return storage.PredLT, true
		}
		return storage.PredGT, true
	case exec.CmpGE:
		if flipped {
			return storage.PredLE, true
		}
		return storage.PredGE, true
	default:
		return 0, false
	}
}

// conjunctOwner reports which single FROM entry a conjunct references
// (-1 when none), and whether it spans multiple entries.
func (p *Planner) conjunctOwner(c Node, rels []*relation, aliases []string) (int, bool) {
	var ids []*Ident
	identsOf(c, &ids)
	owner := -1
	for _, id := range ids {
		found := -1
		for i, rel := range rels {
			if id.Qualifier != "" {
				if id.Qualifier == aliases[i] {
					found = i
					break
				}
				continue
			}
			if _, err := rel.sch.find("", id.Name); err == nil {
				if found >= 0 {
					return -1, true // ambiguous unqualified name
				}
				found = i
			}
		}
		if found < 0 {
			return -1, true
		}
		if owner >= 0 && owner != found {
			return -1, true
		}
		owner = found
	}
	return owner, false
}

// refersOnly reports whether every ident of c belongs to curAliases or
// to the right alias, with at least one reference to each side (so it
// can act as a join condition).
func (p *Planner) refersOnly(c Node, curAliases map[string]bool, right string) bool {
	var ids []*Ident
	identsOf(c, &ids)
	usesCur, usesRight := false, false
	for _, id := range ids {
		switch {
		case id.Qualifier == right:
			usesRight = true
		case id.Qualifier != "" && curAliases[id.Qualifier]:
			usesCur = true
		default:
			return false // unqualified or unknown: keep residual
		}
	}
	return usesCur && usesRight
}

// columnsUsed walks resolved exprs collecting base-scan column indices.
func columnsUsed(exprs []exec.Expr, ops []exec.MapOp, width int) []int {
	set := map[int]bool{}
	var walk func(e exec.Expr)
	walk = func(e exec.Expr) {
		switch x := e.(type) {
		case nil:
		case *exec.ColRef:
			if x.Idx < width {
				set[x.Idx] = true
			}
		case *exec.BinOp:
			walk(x.L)
			walk(x.R)
		case *exec.Cmp:
			walk(x.L)
			walk(x.R)
		case *exec.Logic:
			walk(x.L)
			walk(x.R)
		case *exec.IsNull:
			walk(x.E)
		case *exec.In:
			walk(x.E)
			for _, le := range x.List {
				walk(le)
			}
		case *exec.Between:
			walk(x.E)
			walk(x.Lo)
			walk(x.Hi)
		case *exec.Like:
			walk(x.E)
		case *exec.Case:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Value)
			}
			walk(x.Else)
		case *exec.Func:
			for _, a := range x.Args {
				walk(a)
			}
		case *exec.Cast:
			walk(x.E)
		}
	}
	// Only expressions evaluated against the scan row matter. Walk the
	// chain until the first schema-changing operator (SelectOp or
	// GroupByPartialOp replace the row; MapJoinOp appends columns but
	// preserves scan ordinals); shuffle keys/values only count when no
	// operator replaced the row first.
	replaced := false
	for _, op := range ops {
		switch o := op.(type) {
		case *exec.FilterOp:
			walk(o.Cond)
		case *exec.MapJoinOp:
			for _, e := range o.ProbeKeys {
				walk(e)
			}
		case *exec.SelectOp:
			for _, e := range o.Exprs {
				walk(e)
			}
			replaced = true
		case *exec.GroupByPartialOp:
			for _, e := range o.Keys {
				walk(e)
			}
			for _, a := range o.Aggs {
				walk(a.Arg)
			}
			replaced = true
		}
		if replaced {
			break
		}
	}
	if !replaced {
		for _, e := range exprs {
			walk(e)
		}
	}
	out := make([]int, 0, len(set))
	for i := 0; i < width; i++ {
		if set[i] {
			out = append(out, i)
		}
	}
	return out
}

// buildMapWork assembles a MapWork over rel with the given shuffle
// emission, applying column projection for base scans of the formats
// that honour one (Sequence files hold undeclared kinds and always
// fill the full row).
func (p *Planner) buildMapWork(rel *relation, extraOps []exec.MapOp,
	tag int, keys, values []exec.Expr) exec.MapWork {
	ops := append(append([]exec.MapOp{}, rel.pending...), extraOps...)
	input := rel.input
	if rel.base && input.Format != storage.FormatSequence && !p.DisableProjection {
		var exprs []exec.Expr
		exprs = append(exprs, keys...)
		exprs = append(exprs, values...)
		input.Projection = columnsUsed(exprs, ops, input.Schema.Len())
	}
	return exec.MapWork{Input: input, Ops: ops, Tag: tag, Keys: keys, Values: values,
		RawInputBytes: rel.rawBytes}
}

// colRefs builds ColRef expressions 0..n-1.
func colRefs(n int) []exec.Expr {
	out := make([]exec.Expr, n)
	for i := range out {
		out[i] = &exec.ColRef{Idx: i}
	}
	return out
}
