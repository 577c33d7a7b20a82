package hive

import (
	"fmt"

	"hivempi/internal/exec"
	"hivempi/internal/storage"
	"hivempi/internal/types"
)

// neededColumns collects every (qualifier, name) the query references
// in any clause; join stages shuffle only these (ReduceSink pruning).
// Unqualified names are recorded under the "" qualifier and match any
// relation carrying that name. Star items disable pruning entirely.
type neededCols struct {
	all  bool
	cols map[string]map[string]bool // qualifier -> name set
}

func (n *neededCols) keep(qualifier, name string) bool {
	if n == nil || n.all {
		return true
	}
	if set := n.cols[qualifier]; set != nil && set[name] {
		return true
	}
	if set := n.cols[""]; set != nil && set[name] {
		return true
	}
	return false
}

func neededColumns(s *SelectStmt) *neededCols {
	out := &neededCols{cols: map[string]map[string]bool{}}
	add := func(nodes ...Node) {
		var ids []*Ident
		for _, n := range nodes {
			identsOf(n, &ids)
		}
		for _, id := range ids {
			if out.cols[id.Qualifier] == nil {
				out.cols[id.Qualifier] = map[string]bool{}
			}
			out.cols[id.Qualifier][id.Name] = true
		}
	}
	for _, it := range s.Items {
		if it.Star != "" {
			out.all = true
			return out
		}
		add(it.Expr)
	}
	add(s.Where, s.Having)
	add(s.GroupBy...)
	for _, o := range s.OrderBy {
		add(o.Expr)
	}
	for _, ref := range s.From {
		add(ref.On)
	}
	return out
}

// pruneForShuffle selects the columns of rel worth shuffling: those the
// query references plus any referenced by this join's key expressions.
func pruneForShuffle(rel *relation, keys []exec.Expr, needed *neededCols) ([]exec.Expr, relSchema) {
	keyCols := map[int]bool{}
	var walk func(e exec.Expr)
	walk = func(e exec.Expr) {
		if cr, ok := e.(*exec.ColRef); ok {
			keyCols[cr.Idx] = true
			return
		}
		switch x := e.(type) {
		case *exec.BinOp:
			walk(x.L)
			walk(x.R)
		case *exec.Func:
			for _, a := range x.Args {
				walk(a)
			}
		case *exec.Cast:
			walk(x.E)
		}
	}
	for _, k := range keys {
		walk(k)
	}
	var values []exec.Expr
	var sch relSchema
	for i, c := range rel.sch {
		if keyCols[i] || needed.keep(c.qualifier, c.name) {
			values = append(values, &exec.ColRef{Idx: i, Name: c.name})
			sch = append(sch, c)
		}
	}
	if len(values) == 0 {
		// Keep one column so rows survive (e.g. pure COUNT(*) joins).
		values = []exec.Expr{&exec.ColRef{Idx: 0, Name: rel.sch[0].name}}
		sch = relSchema{rel.sch[0]}
	}
	return values, sch
}

// planJoin joins left and right into one relation, either as a pending
// map join (small base table on the right) or as a shuffle join stage.
func (p *Planner) planJoin(left, right *relation, kind JoinKind, conds []Node,
	needed *neededCols, stages *[]*exec.Stage) (*relation, error) {
	// Classify conditions into key equalities and residual predicates.
	var leftKeys, rightKeys []exec.Expr
	var keyKinds []types.Kind
	var residual []Node
	for _, c := range conds {
		cmp, ok := c.(*CmpExpr)
		if ok && cmp.Op == "=" {
			if le, lk, err := resolve(cmp.L, left.sch); err == nil {
				if re, _, err2 := resolve(cmp.R, right.sch); err2 == nil {
					leftKeys = append(leftKeys, le)
					rightKeys = append(rightKeys, re)
					keyKinds = append(keyKinds, lk)
					continue
				}
			}
			if le, lk, err := resolve(cmp.R, left.sch); err == nil {
				if re, _, err2 := resolve(cmp.L, right.sch); err2 == nil {
					leftKeys = append(leftKeys, le)
					rightKeys = append(rightKeys, re)
					keyKinds = append(keyKinds, lk)
					continue
				}
			}
		}
		residual = append(residual, c)
	}

	if kind == JoinRightOuterK {
		// a RIGHT OUTER b  ==  b LEFT OUTER a, followed by a column
		// reorder so downstream resolution still sees left ++ right.
		// Pruning is disabled on this path because the reorder indexes
		// assume full schemas. The conditions pass unchanged: equality
		// extraction tries both orientations.
		swapped, err := p.planJoin(right, left, JoinLeftOuterK,
			conds, &neededCols{all: true}, stages)
		if err != nil {
			return nil, err
		}
		lw, rw := len(left.sch), len(right.sch)
		reorder := make([]exec.Expr, 0, lw+rw)
		for i := 0; i < lw; i++ {
			reorder = append(reorder, &exec.ColRef{Idx: rw + i})
		}
		for i := 0; i < rw; i++ {
			reorder = append(reorder, &exec.ColRef{Idx: i})
		}
		swapped.pending = append(swapped.pending, &exec.SelectOp{Exprs: reorder})
		swapped.sch = append(append(relSchema{}, left.sch...), right.sch...)
		return swapped, nil
	}

	joinedSch := append(append(relSchema{}, left.sch...), right.sch...)

	// Outer-join ON semantics: residual conditions referencing only the
	// right side filter the right input BEFORE the join (a post-join
	// filter would wrongly drop null-padded rows); anything else cannot
	// be expressed post-hoc for LEFT OUTER.
	if kind == JoinLeftOuterK {
		var keep []Node
		for _, c := range residual {
			if f, _, err := resolve(c, right.sch); err == nil {
				right.pending = append(right.pending, &exec.FilterOp{Cond: f})
				continue
			}
			keep = append(keep, c)
		}
		if len(keep) > 0 {
			return nil, fmt.Errorf("hive: LEFT OUTER JOIN ON condition %s must reference "+
				"only the right side unless it is a key equality", nodeKey(keep[0]))
		}
		residual = nil
	}

	// Map-join: small base table on the right, inner or left-outer.
	if right.base && (kind == JoinInnerK || kind == JoinLeftOuterK || kind == JoinCross) {
		if rightBytes := p.inputBytes(right); rightBytes >= 0 && rightBytes < p.threshold() {
			op := &exec.MapJoinOp{
				Small:      right.input,
				SmallOps:   right.pending,
				ProbeKeys:  leftKeys,
				BuildKeys:  rightKeys,
				Outer:      kind == JoinLeftOuterK,
				SmallWidth: len(right.sch),
			}
			left.pending = append(left.pending, op)
			left.sch = joinedSch
			for _, c := range residual {
				f, _, err := resolve(c, left.sch)
				if err != nil {
					return nil, fmt.Errorf("hive: join condition: %w", err)
				}
				left.pending = append(left.pending, &exec.FilterOp{Cond: f})
			}
			return left, nil
		}
	}

	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("hive: join between %s and %s has no equality condition "+
			"and the right side is too large for a broadcast join",
			left.input.Table, right.input.Table)
	}

	// Shuffle join stage. Inner joins drop NULL keys on both sides;
	// left outer keeps left NULLs (they cannot match because right
	// NULLs are dropped).
	jt := exec.JoinInner
	if kind == JoinLeftOuterK {
		jt = exec.JoinLeftOuter
	}
	leftExtra := []exec.MapOp{}
	if jt == exec.JoinInner {
		if f := notNullFilter(leftKeys); f != nil {
			leftExtra = append(leftExtra, f)
		}
	}
	rightExtra := []exec.MapOp{}
	if f := notNullFilter(rightKeys); f != nil {
		rightExtra = append(rightExtra, f)
	}

	// ReduceSink column pruning: shuffle only columns the rest of the
	// query (or this join's keys/residuals) can reference.
	leftValues, leftSch := pruneForShuffle(left, leftKeys, needed)
	rightValues, rightSch := pruneForShuffle(right, rightKeys, needed)
	prunedSch := append(append(relSchema{}, leftSch...), rightSch...)

	mapL := p.buildMapWork(left, leftExtra, 0, leftKeys, leftValues)
	mapR := p.buildMapWork(right, rightExtra, 1, rightKeys, rightValues)

	var post []exec.MapOp
	for _, c := range residual {
		f, _, err := resolve(c, prunedSch)
		if err != nil {
			return nil, fmt.Errorf("hive: join condition: %w", err)
		}
		post = append(post, &exec.FilterOp{Cond: f})
	}

	tmp := p.tmpDir()
	outSchema := prunedSch.toStorageSchemaUnique()
	stage := &exec.Stage{
		ID:      fmt.Sprintf("join%05d", p.seq),
		Maps:    []exec.MapWork{mapL, mapR},
		Shuffle: &exec.ShuffleSpec{},
		Reduce: &exec.ReduceWork{
			KeyKinds: keyKinds,
			Op: &exec.JoinReduce{
				TagCount:    2,
				ValueWidths: []int{len(leftSch), len(rightSch)},
				JoinTypes:   []exec.JoinType{jt},
			},
			Post: post,
		},
		Sink: &exec.FileSinkSpec{Dir: tmp, Format: storage.FormatSequence, Schema: outSchema},
	}
	*stages = append(*stages, stage)
	return &relation{
		input: exec.TableInput{
			Table:  stage.ID,
			Dir:    tmp,
			Format: storage.FormatSequence,
			Schema: outSchema,
		},
		sch: prunedSch,
	}, nil
}

// inputBytes sums a base relation's file sizes (-1 when unknown).
func (p *Planner) inputBytes(rel *relation) int64 {
	paths := rel.input.ResolvePaths(p.Env.FS)
	if len(paths) == 0 {
		return -1
	}
	var total int64
	for _, path := range paths {
		sz, err := p.Env.FS.Size(path)
		if err != nil {
			return -1
		}
		total += sz
	}
	return total
}

// notNullFilter builds "k1 IS NOT NULL AND ..." over the join keys.
func notNullFilter(keys []exec.Expr) *exec.FilterOp {
	var cond exec.Expr
	for _, k := range keys {
		nn := exec.Expr(&exec.IsNull{E: k, Negate: true})
		if cond == nil {
			cond = nn
		} else {
			cond = &exec.Logic{Op: exec.LogicAnd, L: cond, R: nn}
		}
	}
	if cond == nil {
		return nil
	}
	return &exec.FilterOp{Cond: cond}
}

// toStorageSchemaUnique renders a relSchema for materialization with
// qualifier-prefixed names so duplicate column names across joined
// tables stay distinct.
func (s relSchema) toStorageSchemaUnique() *types.Schema {
	cols := make([]types.Column, len(s))
	used := map[string]int{}
	for i, c := range s {
		name := c.name
		if name == "" {
			name = fmt.Sprintf("_c%d", i)
		}
		if n := used[name]; n > 0 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		used[c.name]++
		cols[i] = types.Col(name, c.kind)
	}
	return &types.Schema{Columns: cols}
}

// expandStars replaces * and alias.* select items with explicit idents.
func (p *Planner) expandStars(items []SelectItem, sch relSchema) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		switch {
		case it.Star == "":
			out = append(out, it)
		case it.Star == "*":
			for _, c := range sch {
				out = append(out, SelectItem{
					Expr:  &Ident{Qualifier: c.qualifier, Name: c.name},
					Alias: c.name,
				})
			}
		default:
			found := false
			for _, c := range sch {
				if c.qualifier == it.Star {
					out = append(out, SelectItem{
						Expr:  &Ident{Qualifier: c.qualifier, Name: c.name},
						Alias: c.name,
					})
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("hive: unknown alias %s.*", it.Star)
			}
		}
	}
	return out, nil
}

// itemName derives the output column name for a select item.
func itemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("_c%d", i)
}

// planSimple lowers a non-aggregating SELECT.
func (p *Planner) planSimple(s *SelectStmt, cur *relation, items []SelectItem,
	d dest, stages *[]*exec.Stage) (relSchema, error) {
	selExprs := make([]exec.Expr, len(items))
	outSch := make(relSchema, len(items))
	for i, it := range items {
		e, k, err := resolve(it.Expr, cur.sch)
		if err != nil {
			return nil, err
		}
		selExprs[i] = e
		outSch[i] = colInfo{name: itemName(it, i), kind: k}
	}
	sel := &exec.SelectOp{Exprs: selExprs}

	switch {
	case len(s.OrderBy) > 0:
		orderExprs, descs, keyKinds, err := p.resolveOrder(s.OrderBy, items, nil, outSch)
		if err != nil {
			return nil, err
		}
		mw := p.buildMapWork(cur, []exec.MapOp{sel}, 0, orderExprs, colRefs(len(outSch)))
		stage := p.finalStage("order", []exec.MapWork{mw},
			&exec.ShuffleSpec{NumReducers: 1, SortDescs: descs},
			&exec.ReduceWork{
				KeyKinds: keyKinds,
				KeyDescs: descs,
				Op:       &exec.ExtractReduce{ValueWidth: len(outSch)},
				Limit:    limitOf(s),
			}, outSch, d)
		*stages = append(*stages, stage)
		return outSch, nil

	case s.Limit >= 0:
		// Global LIMIT without ORDER BY: map-side limit plus a single
		// reducer with a constant key for an exact global cut.
		ops := []exec.MapOp{sel, &exec.LimitOp{N: s.Limit}}
		mw := p.buildMapWork(cur, ops, 0,
			[]exec.Expr{&exec.Const{D: types.Int(0)}}, colRefs(len(outSch)))
		stage := p.finalStage("limit", []exec.MapWork{mw},
			&exec.ShuffleSpec{NumReducers: 1},
			&exec.ReduceWork{
				KeyKinds: []types.Kind{types.KindInt},
				Op:       &exec.ExtractReduce{ValueWidth: len(outSch)},
				Limit:    s.Limit,
			}, outSch, d)
		*stages = append(*stages, stage)
		return outSch, nil

	default:
		mw := p.buildMapWork(cur, []exec.MapOp{sel}, 0, nil, nil)
		stage := p.finalStage("select", []exec.MapWork{mw}, nil, nil, outSch, d)
		*stages = append(*stages, stage)
		return outSch, nil
	}
}

// planAggregate lowers a grouping/aggregating SELECT (and the ORDER BY
// stage over its output when present).
func (p *Planner) planAggregate(s *SelectStmt, cur *relation, items []SelectItem,
	groupBy []Node, aggs []*FuncExpr, d dest, stages *[]*exec.Stage) (relSchema, error) {
	anyDistinct := false
	for _, a := range aggs {
		if a.Distinct {
			anyDistinct = true
		}
	}
	// The ablation switch forces the raw-row path (no map-side hash
	// aggregation), the same mode DISTINCT aggregates require.
	if p.DisableMapAggregation {
		anyDistinct = true
	}

	// Resolve group keys over the input.
	gkExprs := make([]exec.Expr, len(groupBy))
	gkKinds := make([]types.Kind, len(groupBy))
	groupKeyMap := map[string]int{}
	for i, g := range groupBy {
		e, k, err := resolve(g, cur.sch)
		if err != nil {
			return nil, fmt.Errorf("hive: GROUP BY: %w", err)
		}
		gkExprs[i] = e
		gkKinds[i] = k
		groupKeyMap[nodeKey(g)] = i
		// An Ident group key matches qualified and unqualified spellings.
		if id, ok := g.(*Ident); ok {
			idx, err := cur.sch.find(id.Qualifier, id.Name)
			if err == nil {
				groupKeyMap["col:"+itoaKey(idx)] = i
			}
		}
	}

	// Resolve aggregate specs.
	specs := make([]exec.AggSpec, len(aggs))
	aggKinds := make([]types.Kind, len(aggs))
	aggSlotMap := map[string]int{}
	for i, a := range aggs {
		spec, k, err := aggSpecFor(a, cur.sch)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		aggKinds[i] = k
		aggSlotMap[nodeKey(a)] = i
	}

	// Build the aggregation stage.
	var mapExtra []exec.MapOp
	var keys, values []exec.Expr
	reduceAggs := make([]exec.AggSpec, len(specs))
	copy(reduceAggs, specs)
	if anyDistinct {
		// Complete mode: raw argument values travel to the reducer.
		keys = gkExprs
		values = make([]exec.Expr, len(specs))
		for i, spec := range specs {
			if spec.Kind == exec.AggCountStar || spec.Arg == nil {
				values[i] = &exec.Const{D: types.Int(1)}
			} else {
				values[i] = spec.Arg
			}
		}
	} else {
		partial := &exec.GroupByPartialOp{Keys: gkExprs, Aggs: specs}
		mapExtra = append(mapExtra, partial)
		keys = colRefs(len(gkExprs))
		width := 0
		for _, spec := range specs {
			width += spec.PartialWidth()
		}
		values = make([]exec.Expr, width)
		for i := 0; i < width; i++ {
			values[i] = &exec.ColRef{Idx: len(gkExprs) + i}
		}
	}

	// Post-aggregation schema: _gk0.._gkN, _agg0.._aggM.
	postSch := make(relSchema, 0, len(groupBy)+len(aggs))
	for i, k := range gkKinds {
		postSch = append(postSch, colInfo{name: fmt.Sprintf("_gk%d", i), kind: k})
	}
	for i, k := range aggKinds {
		postSch = append(postSch, colInfo{name: fmt.Sprintf("_agg%d", i), kind: k})
	}

	// Rewrite select/having/order over the post-agg schema.
	rewrite := func(n Node) Node {
		return p.rewriteAgg(n, groupKeyMap, aggSlotMap, cur.sch)
	}
	var post []exec.MapOp
	if s.Having != nil {
		h, _, err := resolve(rewrite(s.Having), postSch)
		if err != nil {
			return nil, fmt.Errorf("hive: HAVING: %w", err)
		}
		post = append(post, &exec.FilterOp{Cond: h})
	}
	selExprs := make([]exec.Expr, len(items))
	outSch := make(relSchema, len(items))
	rewrittenItems := make([]Node, len(items))
	for i, it := range items {
		rw := rewrite(it.Expr)
		rewrittenItems[i] = rw
		e, k, err := resolve(rw, postSch)
		if err != nil {
			return nil, fmt.Errorf("hive: select item %d: %w", i+1, err)
		}
		selExprs[i] = e
		outSch[i] = colInfo{name: itemName(it, i), kind: k}
	}
	post = append(post, &exec.SelectOp{Exprs: selExprs})

	mw := p.buildMapWork(cur, mapExtra, 0, keys, values)
	aggReduce := &exec.ReduceWork{
		KeyKinds: gkKinds,
		Op:       &exec.GroupByReduce{Aggs: reduceAggs, Complete: anyDistinct},
		Post:     post,
	}
	shuffle := &exec.ShuffleSpec{}
	if len(gkExprs) == 0 {
		shuffle.NumReducers = 1 // global aggregate
	}

	if len(s.OrderBy) == 0 {
		aggReduce.Limit = limitOf(s)
		stage := p.finalStage("groupby", []exec.MapWork{mw}, shuffle, aggReduce, outSch, d)
		*stages = append(*stages, stage)
		return outSch, nil
	}

	// Aggregate to temp, then a dedicated ORDER BY stage.
	tmp := p.tmpDir()
	aggStage := &exec.Stage{
		ID:      fmt.Sprintf("groupby%05d", p.seq),
		Maps:    []exec.MapWork{mw},
		Shuffle: shuffle,
		Reduce:  aggReduce,
		Sink: &exec.FileSinkSpec{Dir: tmp, Format: storage.FormatSequence,
			Schema: outSch.toSchema()},
	}
	*stages = append(*stages, aggStage)

	orderRel := &relation{
		input: exec.TableInput{Table: aggStage.ID, Dir: tmp,
			Format: storage.FormatSequence, Schema: outSch.toSchema()},
		sch: outSch,
	}
	orderExprs, descs, keyKinds, err := p.resolveOrder(s.OrderBy, items, rewrittenItems, outSch)
	if err != nil {
		return nil, err
	}
	omw := p.buildMapWork(orderRel, nil, 0, orderExprs, colRefs(len(outSch)))
	orderStage := p.finalStage("order", []exec.MapWork{omw},
		&exec.ShuffleSpec{NumReducers: 1, SortDescs: descs},
		&exec.ReduceWork{
			KeyKinds: keyKinds,
			KeyDescs: descs,
			Op:       &exec.ExtractReduce{ValueWidth: len(outSch)},
			Limit:    limitOf(s),
		}, outSch, d)
	*stages = append(*stages, orderStage)
	return outSch, nil
}

// rewriteAgg substitutes aggregate calls and group-key expressions with
// post-aggregation column references, including column-identity
// matching for Ident group keys.
func (p *Planner) rewriteAgg(n Node, groupKeys, aggSlots map[string]int, inSch relSchema) Node {
	if n == nil {
		return nil
	}
	if id, ok := n.(*Ident); ok {
		if idx, err := inSch.find(id.Qualifier, id.Name); err == nil {
			if slot, ok := groupKeys["col:"+itoaKey(idx)]; ok {
				return &Ident{Name: fmt.Sprintf("_gk%d", slot)}
			}
		}
	}
	return rewriteForAgg(n, groupKeys, aggSlots)
}

func itoaKey(i int) string { return fmt.Sprintf("%d", i) }

// resolveOrder resolves ORDER BY expressions against the select output:
// by alias/name, by structural identity with a select item, or directly
// over the output schema.
func (p *Planner) resolveOrder(order []OrderItem, items []SelectItem,
	rewrittenItems []Node, outSch relSchema) ([]exec.Expr, []bool, []types.Kind, error) {
	exprs := make([]exec.Expr, len(order))
	descs := make([]bool, len(order))
	kinds := make([]types.Kind, len(order))
	for i, o := range order {
		descs[i] = o.Desc
		// Structural identity with a select item.
		found := false
		ok := nodeKey(o.Expr)
		for j, it := range items {
			if it.Star != "" {
				continue
			}
			if nodeKey(it.Expr) == ok ||
				(rewrittenItems != nil && nodeKey(rewrittenItems[j]) == ok) {
				exprs[i] = &exec.ColRef{Idx: j, Name: outSch[j].name}
				kinds[i] = outSch[j].kind
				found = true
				break
			}
		}
		if found {
			continue
		}
		// Alias / output-name match for bare identifiers.
		if id, ok := o.Expr.(*Ident); ok {
			matched := -1
			for j, c := range outSch {
				if c.name == id.Name {
					matched = j
					break
				}
			}
			if matched >= 0 {
				exprs[i] = &exec.ColRef{Idx: matched, Name: id.Name}
				kinds[i] = outSch[matched].kind
				continue
			}
		}
		// Last resort: resolve over the output schema.
		e, k, err := resolve(o.Expr, outSch)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("hive: ORDER BY item %d: %w", i+1, err)
		}
		exprs[i] = e
		kinds[i] = k
	}
	return exprs, descs, kinds, nil
}

func limitOf(s *SelectStmt) int {
	if s.Limit < 0 {
		return 0
	}
	return s.Limit
}

// finalStage assembles a stage that delivers to the destination.
func (p *Planner) finalStage(kind string, maps []exec.MapWork, shuffle *exec.ShuffleSpec,
	reduce *exec.ReduceWork, outSch relSchema, d dest) *exec.Stage {
	p.seq++
	st := &exec.Stage{
		ID:      fmt.Sprintf("%s%05d", kind, p.seq),
		Maps:    maps,
		Shuffle: shuffle,
		Reduce:  reduce,
		Collect: d.collect,
	}
	if d.sinkDir != "" {
		st.Sink = &exec.FileSinkSpec{Dir: d.sinkDir, Format: d.format, Schema: outSch.toSchema()}
	}
	return st
}
