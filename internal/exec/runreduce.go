package exec

import (
	"fmt"

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

	// Per-group scratch, reset by each Feed instead of reallocated:
	// nothing emitted refers to it (group-by output copies keyRow and
	// takes Final values; join buckets only hold freshly decoded rows).
	keyRow  types.Row
	states  []*AggState
	buckets [][]types.Row
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
		next := sink
		switch op := ops[i].(type) {
		case *FilterOp:
			cond := op.Cond
			sink = func(row types.Row) error {
				d, err := cond.Eval(row)
				if err != nil || d.IsNull() || !d.Bool() {
					return err
				}
				return next(row)
			}
		case *SelectOp:
			exprs := op.Exprs
			sink = func(row types.Row) error {
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
		default:
			return nil, fmt.Errorf("exec: reduce post chain cannot run %T", ops[i])
		}
	}
	return sink, nil
}

// decodeKey reverses the order-preserving key encoding into the
// driver's key row, valid until the next call.
func (d *ReduceDriver) decodeKey(key []byte) (types.Row, error) {
	out := d.keyRow[:0]
	pos := 0
	for i, k := range d.work.KeyKinds {
		desc := false
		if d.work.KeyDescs != nil && i < len(d.work.KeyDescs) {
			desc = d.work.KeyDescs[i]
		}
		dat, n, err := types.DecodeKeyDatum(key[pos:], k, desc)
		if err != nil {
			return nil, fmt.Errorf("exec: decode key column %d: %w", i, err)
		}
		out = append(out, dat)
		pos += n
	}
	d.keyRow = out
	return out, nil
}

// decodeValue strips the tag byte and decodes the row payload.
func decodeValue(val []byte) (int, types.Row, error) {
	if len(val) == 0 {
		return 0, nil, fmt.Errorf("exec: empty shuffle value")
	}
	tag := int(val[0])
	row, _, err := types.DecodeRow(val[1:])
	if err != nil {
		return 0, nil, fmt.Errorf("exec: decode shuffle value: %w", err)
	}
	return tag, row, nil
}

// Feed processes one key group.
func (d *ReduceDriver) Feed(key []byte, values [][]byte) error {
	d.groupsFed++
	if d.metrics != nil {
		d.metrics.InputRecords += int64(len(values))
	}
	keyRow, err := d.decodeKey(key)
	if err != nil {
		return err
	}
	switch op := d.work.Op.(type) {
	case *GroupByReduce:
		return d.feedGroupBy(op, keyRow, values)
	case *JoinReduce:
		return d.feedJoin(op, values)
	case *ExtractReduce:
		for _, v := range values {
			_, row, err := decodeValue(v)
			if err != nil {
				return err
			}
			if err := d.post(row); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("exec: unknown reduce op %T", d.work.Op)
	}
}

// feedGroupBy merges partial states (or raw values in complete mode)
// and emits key ++ finals.
func (d *ReduceDriver) feedGroupBy(op *GroupByReduce, keyRow types.Row, values [][]byte) error {
	if d.states == nil {
		d.states = make([]*AggState, len(op.Aggs))
		for i, spec := range op.Aggs {
			d.states[i] = NewAggState(spec)
		}
	}
	states := d.states
	for _, st := range states {
		st.reset()
	}
	for _, v := range values {
		_, row, err := decodeValue(v)
		if err != nil {
			return err
		}
		if op.Complete {
			// Raw mode: row carries one evaluated argument per agg.
			if len(row) != len(op.Aggs) {
				return fmt.Errorf("exec: raw agg row width %d, want %d", len(row), len(op.Aggs))
			}
			for i, st := range states {
				if op.Aggs[i].Kind == AggCountStar {
					st.count++
					continue
				}
				st.UpdateDatum(row[i])
			}
			continue
		}
		pos := 0
		for i, st := range states {
			w := op.Aggs[i].PartialWidth()
			if pos+w > len(row) {
				return fmt.Errorf("exec: partial agg row too narrow (%d < %d)", len(row), pos+w)
			}
			if err := st.MergePartial(row[pos : pos+w]); err != nil {
				return err
			}
			pos += w
		}
	}
	out := make(types.Row, 0, len(keyRow)+len(states))
	out = append(out, keyRow...)
	for _, st := range states {
		out = append(out, st.Final())
	}
	if d.metrics != nil {
		d.metrics.ReduceGroups++
	}
	return d.post(out)
}

// feedJoin buckets the group's rows by tag and emits the join of the
// buckets, left-folding with the configured join types.
func (d *ReduceDriver) feedJoin(op *JoinReduce, values [][]byte) error {
	if d.buckets == nil {
		d.buckets = make([][]types.Row, op.TagCount)
	}
	buckets := d.buckets
	for t := range buckets {
		clear(buckets[t]) // do not pin the last group's rows
		buckets[t] = buckets[t][:0]
	}
	for _, v := range values {
		tag, row, err := decodeValue(v)
		if err != nil {
			return err
		}
		if tag < 0 || tag >= op.TagCount {
			return fmt.Errorf("exec: join tag %d out of range %d", tag, op.TagCount)
		}
		if len(row) != op.ValueWidths[tag] {
			return fmt.Errorf("exec: join tag %d row width %d, want %d",
				tag, len(row), op.ValueWidths[tag])
		}
		buckets[tag] = append(buckets[tag], row)
	}

	// Left-fold: acc starts as tag 0's rows.
	acc := buckets[0]
	accWidth := op.ValueWidths[0]
	for t := 1; t < op.TagCount; t++ {
		jt := JoinInner
		if t-1 < len(op.JoinTypes) {
			jt = op.JoinTypes[t-1]
		}
		right := buckets[t]
		rightWidth := op.ValueWidths[t]
		var next []types.Row
		switch {
		case len(right) == 0 && jt == JoinLeftOuter:
			nulls := make(types.Row, rightWidth)
			for _, l := range acc {
				out := make(types.Row, 0, accWidth+rightWidth)
				out = append(out, l...)
				out = append(out, nulls...)
				next = append(next, out)
			}
		case len(right) == 0 || len(acc) == 0:
			next = nil
		default:
			for _, l := range acc {
				for _, r := range right {
					out := make(types.Row, 0, accWidth+rightWidth)
					out = append(out, l...)
					out = append(out, r...)
					next = append(next, out)
				}
			}
		}
		acc = next
		accWidth += rightWidth
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
		return d.feedGroupBy(gb, nil, nil)
	}
	return nil
}
