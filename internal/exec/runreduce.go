package exec

import (
	"fmt"
	"slices"

	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// ReduceDriver executes the reduce-side program: both engines feed it
// key groups in global key order (Hadoop after merge, DataMPI from the
// A-side iterator) and it pushes result rows through the post chain
// into the output sink — the ExecReducer of the paper.
type ReduceDriver struct {
	work    *ReduceWork
	post    RowSink
	metrics *trace.Task

	limitLeft int
	groupsFed int
	closed    bool

	// Per-group scratch, reset by each Feed instead of reallocated
	// (DESIGN.md "The reduce side decodes a group into one slab"). The
	// group's key row and value rows are sub-slices of slab; value i
	// ends at rowEnds[i] and carries tags[i]. Nothing handed to post
	// is scratch: group-by output rows, join fold rows and extract rows
	// are fresh per group, and their strings point into the group's
	// immutable arena.
	slab    types.RowSlab
	rowEnds []int
	tags    []byte
	states  []AggState
	buckets [][]types.Row
	folds   [2][]types.Row // row headers of alternate join fold steps
}

// NewReduceDriver builds the post chain ending at out.
func NewReduceDriver(env *Env, work *ReduceWork, out RowSink, metrics *trace.Task) (*ReduceDriver, error) {
	d := &ReduceDriver{work: work, metrics: metrics, limitLeft: work.Limit}
	terminal := out
	if work.Limit > 0 {
		inner := out
		terminal = func(row types.Row) error {
			if d.limitLeft <= 0 {
				return nil
			}
			d.limitLeft--
			return inner(row)
		}
	}
	counted := func(row types.Row) error {
		if metrics != nil {
			metrics.OutputRecords++
		}
		return terminal(row)
	}
	post, err := buildPost(work.Post, counted)
	if err != nil {
		return nil, err
	}
	d.post = post
	return d, nil
}

// buildPost compiles the reduce-side post chain into a push pipeline
// ending at sink. The reduce side stays row-at-a-time over Expr.Eval:
// the planner only places HAVING/residual-join filters and the final
// projection after a reduce operator, and neither blocks, so there is
// nothing to flush on close.
func buildPost(ops []MapOp, sink RowSink) (RowSink, error) {
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i].(type) {
		case *FilterOp:
			sink = newPostFilter(op.Cond, sink)
		case *SelectOp:
			sink = newPostSelect(op.Exprs, sink)
		default:
			return nil, fmt.Errorf("exec: reduce post chain cannot run %T", ops[i])
		}
	}
	return sink, nil
}

// newPostFilter passes on the rows cond holds for.
func newPostFilter(cond Expr, next RowSink) RowSink {
	return func(row types.Row) error {
		d, err := cond.Eval(row)
		if err != nil || d.IsNull() || !d.Bool() {
			return err
		}
		return next(row)
	}
}

// newPostSelect passes on a fresh row of exprs evaluated over each row.
func newPostSelect(exprs []Expr, next RowSink) RowSink {
	return func(row types.Row) error {
		out := make(types.Row, len(exprs))
		for j, e := range exprs {
			d, err := e.Eval(row)
			if err != nil {
				return err
			}
			out[j] = d
		}
		return next(out)
	}
}

// decodeGroup decodes the group's key and values into the slab and
// returns the key row; value i is d.row(i).
func (d *ReduceDriver) decodeGroup(key []byte, values [][]byte) (types.Row, error) {
	s := &d.slab
	s.Reset()
	d.rowEnds, d.tags = d.rowEnds[:0], d.tags[:0]
	pos := 0
	for i, k := range d.work.KeyKinds {
		desc := false
		if d.work.KeyDescs != nil && i < len(d.work.KeyDescs) {
			desc = d.work.KeyDescs[i]
		}
		n, err := s.AppendKey(key[pos:], k, desc)
		if err != nil {
			return nil, fmt.Errorf("exec: decode key column %d: %w", i, err)
		}
		pos += n
	}
	for _, v := range values {
		if len(v) == 0 {
			return nil, fmt.Errorf("exec: empty shuffle value")
		}
		if _, err := s.AppendRow(v[1:]); err != nil {
			return nil, fmt.Errorf("exec: decode shuffle value: %w", err)
		}
		d.tags = append(d.tags, v[0])
		d.rowEnds = append(d.rowEnds, len(s.Datums))
	}
	s.Seal()
	nk := len(d.work.KeyKinds)
	return s.Datums[:nk:nk], nil
}

// row is value i of the group decodeGroup last decoded, capacity-capped
// so an append cannot reach the next row.
func (d *ReduceDriver) row(i int) types.Row {
	lo := len(d.work.KeyKinds)
	if i > 0 {
		lo = d.rowEnds[i-1]
	}
	hi := d.rowEnds[i]
	return d.slab.Datums[lo:hi:hi]
}

// Feed processes one key group.
func (d *ReduceDriver) Feed(key []byte, values [][]byte) error {
	d.groupsFed++
	if d.metrics != nil {
		d.metrics.InputRecords += int64(len(values))
	}
	keyRow, err := d.decodeGroup(key, values)
	if err != nil {
		return err
	}
	switch op := d.work.Op.(type) {
	case *GroupByReduce:
		return d.feedGroupBy(op, keyRow, len(values))
	case *JoinReduce:
		return d.feedJoin(op, len(values))
	case *ExtractReduce:
		// The sink may keep the rows: copy them out of the slab, into
		// one fresh slab per group.
		rows := slices.Clone(d.slab.Datums[len(keyRow):])
		lo := 0
		for i := range values {
			hi := d.rowEnds[i] - len(keyRow)
			if err := d.post(rows[lo:hi:hi]); err != nil {
				return err
			}
			lo = hi
		}
		return nil
	default:
		return fmt.Errorf("exec: unknown reduce op %T", d.work.Op)
	}
}

// feedGroupBy merges the group's n partial states (or raw values in
// complete mode) and emits key ++ finals.
func (d *ReduceDriver) feedGroupBy(op *GroupByReduce, keyRow types.Row, n int) error {
	if d.states == nil {
		d.states = make([]AggState, len(op.Aggs))
	}
	states := d.states
	for i := range states {
		states[i].reset()
	}
	for v := 0; v < n; v++ {
		row := d.row(v)
		if op.Complete {
			// Raw mode: row carries one evaluated argument per agg.
			if len(row) != len(op.Aggs) {
				return fmt.Errorf("exec: raw agg row width %d, want %d", len(row), len(op.Aggs))
			}
			for i := range states {
				states[i].Update(&op.Aggs[i], row[i])
			}
			continue
		}
		pos := 0
		for i := range states {
			w := op.Aggs[i].PartialWidth()
			if pos+w > len(row) {
				return fmt.Errorf("exec: partial agg row too narrow (%d < %d)", len(row), pos+w)
			}
			if err := states[i].MergePartial(&op.Aggs[i], row[pos:pos+w]); err != nil {
				return err
			}
			pos += w
		}
	}
	out := make(types.Row, 0, len(keyRow)+len(states))
	out = append(out, keyRow...)
	for i := range states {
		out = append(out, states[i].Final(&op.Aggs[i]))
	}
	if d.metrics != nil {
		d.metrics.ReduceGroups++
	}
	return d.post(out)
}

// feedJoin buckets the group's n rows by tag and emits the join of the
// buckets, left-folding with the configured join types. Each fold step
// builds its rows in one fresh slab; the zero Datum is the NULL pad.
func (d *ReduceDriver) feedJoin(op *JoinReduce, n int) error {
	if d.buckets == nil {
		d.buckets = make([][]types.Row, op.TagCount)
	}
	buckets := d.buckets
	for t := range buckets {
		clear(buckets[t]) // do not pin a grown slab's old array
		buckets[t] = buckets[t][:0]
	}
	for v := 0; v < n; v++ {
		tag, row := int(d.tags[v]), d.row(v)
		if tag >= op.TagCount {
			return fmt.Errorf("exec: join tag %d out of range %d", tag, op.TagCount)
		}
		if len(row) != op.ValueWidths[tag] {
			return fmt.Errorf("exec: join tag %d row width %d, want %d",
				tag, len(row), op.ValueWidths[tag])
		}
		buckets[tag] = append(buckets[tag], row)
	}

	// Left-fold: acc starts as tag 0's rows (scratch; Stage.Validate
	// demands a second tag, so a fold always copies them out).
	acc := buckets[0]
	accWidth := op.ValueWidths[0]
	for t := 1; t < op.TagCount; t++ {
		jt := JoinInner
		if t-1 < len(op.JoinTypes) {
			jt = op.JoinTypes[t-1]
		}
		right := buckets[t]
		w := accWidth + op.ValueWidths[t]
		next := d.folds[t%2]
		clear(next) // do not pin an earlier fold's rows
		next = next[:0]
		switch {
		case len(right) == 0 && jt == JoinLeftOuter:
			rows := make([]types.Datum, len(acc)*w)
			for i, l := range acc {
				out := rows[i*w : (i+1)*w : (i+1)*w]
				copy(out, l)
				next = append(next, out)
			}
		case len(right) == 0 || len(acc) == 0:
		default:
			rows := make([]types.Datum, len(acc)*len(right)*w)
			i := 0
			for _, l := range acc {
				for _, r := range right {
					out := rows[i*w : (i+1)*w : (i+1)*w]
					copy(out, l)
					copy(out[accWidth:], r)
					next = append(next, out)
					i++
				}
			}
		}
		d.folds[t%2] = next
		acc = next
		accWidth = w
		if len(acc) == 0 {
			return nil // no left rows survive; later folds stay empty
		}
	}
	if d.metrics != nil {
		d.metrics.ReduceGroups++
	}
	for _, row := range acc {
		if err := d.post(row); err != nil {
			return err
		}
	}
	return nil
}

// LimitReached reports whether a configured LIMIT has been satisfied
// (engines may stop feeding early).
func (d *ReduceDriver) LimitReached() bool {
	return d.work.Limit > 0 && d.limitLeft <= 0
}

// Close ends the reduce task. A global aggregate (no group
// keys) that received no input still emits its single empty-group row
// (SQL: SELECT sum(x) over zero rows yields one NULL row). The planner
// forces such stages onto a single reducer, so exactly one row appears.
func (d *ReduceDriver) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if gb, ok := d.work.Op.(*GroupByReduce); ok &&
		len(d.work.KeyKinds) == 0 && d.groupsFed == 0 {
		keyRow, err := d.decodeGroup(nil, nil)
		if err != nil {
			return err
		}
		return d.feedGroupBy(gb, keyRow, 0)
	}
	return nil
}
