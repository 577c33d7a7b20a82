package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// The references below are the accumulator and the map-side partial
// aggregator as they were before the pooled slab: one *refAggState per
// aggregate per group, a map entry per group keyed by its encoded key,
// and every lane folded through UpdateDatum. They are the oracle
// newPartialAgg (and, through refReduceDriver, feedGroupBy) is held to.

type refAggState struct {
	spec  AggSpec
	acc   types.Datum
	count int64
	set   map[string]struct{}
}

func newRefAggState(spec AggSpec) *refAggState {
	st := &refAggState{spec: spec}
	if spec.Distinct {
		st.set = make(map[string]struct{})
	}
	return st
}

func (st *refAggState) reset() {
	st.acc = types.Datum{}
	st.count = 0
	clear(st.set)
}

func refAddNumeric(acc, d types.Datum) types.Datum {
	if acc.IsNull() {
		if d.K == types.KindFloat {
			return types.Float(d.F)
		}
		return types.Int(d.Int())
	}
	if acc.K == types.KindInt && d.K != types.KindFloat {
		return types.Int(acc.I + d.Int())
	}
	return types.Float(acc.Float() + d.Float())
}

func (st *refAggState) UpdateDatum(d types.Datum) {
	if st.spec.Kind == AggCountStar {
		st.count++
		return
	}
	if d.IsNull() {
		return
	}
	if st.spec.Distinct {
		key := string(types.AppendDatum(nil, d))
		if _, ok := st.set[key]; ok {
			return
		}
		st.set[key] = struct{}{}
	}
	switch st.spec.Kind {
	case AggSum:
		st.acc = refAddNumeric(st.acc, d)
	case AggCount:
		st.count++
	case AggAvg:
		st.acc = refAddNumeric(st.acc, d)
		st.count++
	case AggMin:
		if st.acc.IsNull() || types.Compare(d, st.acc) < 0 {
			st.acc = d
		}
	case AggMax:
		if st.acc.IsNull() || types.Compare(d, st.acc) > 0 {
			st.acc = d
		}
	}
}

func (st *refAggState) EmitPartial() []types.Datum {
	switch st.spec.Kind {
	case AggSum, AggMin, AggMax:
		return []types.Datum{st.acc}
	case AggCount, AggCountStar:
		return []types.Datum{types.Int(st.count)}
	case AggAvg:
		return []types.Datum{st.acc, types.Int(st.count)}
	default:
		return []types.Datum{types.Null()}
	}
}

func (st *refAggState) MergePartial(part []types.Datum) error {
	if len(part) != st.spec.PartialWidth() {
		return fmt.Errorf("exec: partial width %d, want %d", len(part), st.spec.PartialWidth())
	}
	switch st.spec.Kind {
	case AggSum:
		if !part[0].IsNull() {
			st.acc = refAddNumeric(st.acc, part[0])
		}
	case AggCount, AggCountStar:
		st.count += part[0].Int()
	case AggAvg:
		if !part[0].IsNull() {
			st.acc = refAddNumeric(st.acc, part[0])
		}
		st.count += part[1].Int()
	case AggMin:
		if !part[0].IsNull() && (st.acc.IsNull() || types.Compare(part[0], st.acc) < 0) {
			st.acc = part[0]
		}
	case AggMax:
		if !part[0].IsNull() && (st.acc.IsNull() || types.Compare(part[0], st.acc) > 0) {
			st.acc = part[0]
		}
	default:
		return fmt.Errorf("exec: merge of %v", st.spec.Kind)
	}
	return nil
}

func (st *refAggState) Final() types.Datum {
	switch st.spec.Kind {
	case AggSum, AggMin, AggMax:
		return st.acc
	case AggCount, AggCountStar:
		return types.Int(st.count)
	case AggAvg:
		if st.count == 0 {
			return types.Null()
		}
		return types.Float(st.acc.Float() / float64(st.count))
	default:
		return types.Null()
	}
}

func refPartialAgg(op *GroupByPartialOp, next batchSink) (batchSink, func() error) {
	maxEntries := op.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultHashAggEntries
	}
	keyKs := compileKernels(op.Keys)
	argKs := make([]kernel, len(op.Aggs))
	for i, spec := range op.Aggs {
		if spec.Arg != nil {
			argKs[i] = compileKernel(spec.Arg)
		}
	}
	type entry struct {
		keys   []types.Datum
		states []*refAggState
	}
	groups := make(map[string]*entry)

	width := len(op.Keys)
	for _, spec := range op.Aggs {
		width += spec.PartialWidth()
	}
	flush := func() error {
		if len(groups) == 0 {
			return nil
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := newDatumBatcher(width, vec.DefaultSize, next)
		defer out.release()
		for _, k := range keys {
			e := groups[k]
			c := 0
			for _, d := range e.keys {
				out.set(c, d)
				c++
			}
			for _, st := range e.states {
				for _, d := range st.EmitPartial() {
					out.set(c, d)
					c++
				}
			}
			if err := out.endRow(); err != nil {
				return err
			}
		}
		groups = make(map[string]*entry)
		return out.flush()
	}

	keyVs := make([]vec.Vector, len(keyKs))
	argVs := make([]vec.Vector, len(argKs))
	var kb []byte
	process := func(b *vec.Batch) error {
		if err := evalKernels(keyKs, b, keyVs); err != nil {
			return err
		}
		if err := evalKernels(argKs, b, argVs); err != nil {
			return err
		}
		for lane := 0; lane < b.N; lane++ {
			kb, _ = appendLaneKey(kb[:0], keyVs, lane, nil)
			e, ok := groups[string(kb)]
			if !ok {
				e = &entry{keys: make([]types.Datum, len(keyVs)), states: make([]*refAggState, len(op.Aggs))}
				for i := range keyVs {
					e.keys[i] = keyVs[i].Datum(lane)
				}
				for i, spec := range op.Aggs {
					e.states[i] = newRefAggState(spec)
				}
				groups[string(kb)] = e
			}
			for i, st := range e.states {
				var d types.Datum
				if argKs[i] != nil {
					d = argVs[i].Datum(lane)
				}
				st.UpdateDatum(d)
			}
			if len(groups) >= maxEntries {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return process, flush
}

// aggColumnKinds are the kinds an aggregation test column is drawn as;
// vec.KindAny is a demoted column of mixed datums.
var aggColumnKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindDate,
	types.KindBool, types.KindString, vec.KindAny}

// hostileFloats are the doubles a sum must fold bit for bit.
var hostileFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	0.1, 1e308, -1e308, 2.5}

// aggDatum draws one value of kind k from a domain of about card
// values, NULL one time in nine.
func aggDatum(rng *rand.Rand, k types.Kind, card int) types.Datum {
	if rng.Intn(9) == 0 {
		return types.Null()
	}
	switch k {
	case types.KindInt:
		return types.Int(int64(rng.Intn(card)) - int64(card/3))
	case types.KindFloat:
		if rng.Intn(5) == 0 {
			return types.Float(hostileFloats[rng.Intn(len(hostileFloats))])
		}
		return types.Float(float64(rng.Intn(card)) / 4)
	case types.KindDate:
		return types.Date(9000 + int64(rng.Intn(card)))
	case types.KindBool:
		return types.Bool(rng.Intn(2) == 0)
	case types.KindString:
		const alphabet = "ab\x00\xffz"
		b := make([]byte, rng.Intn(3))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return types.String(fmt.Sprintf("%s%d", b, rng.Intn(card)))
	default: // a demoted column: any kind, and ints that collide with bools
		kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindDate, types.KindBool, types.KindString}
		return aggDatum(rng, kinds[rng.Intn(len(kinds))], min(card, 3))
	}
}

// aggBatch draws a batch of n lanes whose column c has kind kinds[c].
func aggBatch(rng *rand.Rand, kinds []types.Kind, n, card int) *vec.Batch {
	b := &vec.Batch{N: n, Cols: make([]*vec.Vector, len(kinds))}
	for c, k := range kinds {
		v := vec.NewVector(k, n)
		for lane := 0; lane < n; lane++ {
			v.SetDatum(lane, aggDatum(rng, k, card))
		}
		b.Cols[c] = v
	}
	return b
}

// aggRun is what one partial aggregator emitted: each output batch's
// rows encoded (floats by their bits), then the first error.
type aggRun struct {
	batches [][]byte
	err     error
}

// runPartialAgg pushes batches through an aggregator built by mk and
// closes it. The sink fails with errSink on output batch failAt (0:
// never).
func runPartialAgg(mk func(*GroupByPartialOp, batchSink) (batchSink, func() error),
	op *GroupByPartialOp, batches []*vec.Batch, failAt int) aggRun {
	var run aggRun
	var row types.Row
	process, closer := mk(op, func(b *vec.Batch) error {
		if len(run.batches)+1 == failAt {
			return errSink
		}
		var enc []byte
		for lane := 0; lane < b.N; lane++ {
			row = b.Row(lane, row)
			enc = types.EncodeRow(enc, row)
		}
		run.batches = append(run.batches, enc)
		return nil
	})
	for _, b := range batches {
		if run.err = process(b); run.err != nil {
			return run
		}
	}
	run.err = closer()
	return run
}

var errSink = errors.New("sink full")

func sameAggRun(t *testing.T, name string, got, want aggRun) {
	t.Helper()
	if !errors.Is(got.err, want.err) {
		t.Fatalf("%s: error %v, want %v", name, got.err, want.err)
	}
	if len(got.batches) != len(want.batches) {
		t.Fatalf("%s: %d output batches, want %d", name, len(got.batches), len(want.batches))
	}
	for i := range want.batches {
		if string(got.batches[i]) != string(want.batches[i]) {
			t.Fatalf("%s: output batch %d differs from the reference", name, i)
		}
	}
}

// aggTask is one seeded map task: an op over columns of the given kinds
// and the batches it reads.
type aggTask struct {
	op      *GroupByPartialOp
	batches []*vec.Batch
}

// newAggTask groups by keyCols and runs every aggregate over every
// column, with a COUNT(*) and two DISTINCT aggregates. Column 0 is an
// int in even batches and a double in odd ones, so a group's sum and
// avg see an int batch, then a double batch.
func newAggTask(seed int64, kinds []types.Kind, keyCols []int, nBatches, card, maxEntries int) aggTask {
	rng := rand.New(rand.NewSource(seed))
	op := &GroupByPartialOp{MaxEntries: maxEntries}
	for _, c := range keyCols {
		op.Keys = append(op.Keys, col(c))
	}
	for c := range kinds {
		for _, k := range []AggKind{AggSum, AggCount, AggAvg, AggMin, AggMax} {
			op.Aggs = append(op.Aggs, AggSpec{Kind: k, Arg: col(c)})
		}
	}
	op.Aggs = append(op.Aggs, AggSpec{Kind: AggCountStar},
		AggSpec{Kind: AggCount, Arg: col(1), Distinct: true},
		AggSpec{Kind: AggMin, Arg: col(len(kinds) - 1), Distinct: true})
	task := aggTask{op: op}
	// A flush every few lanes costs the reference a pooled batch of
	// DefaultSize rows each: keep those tasks' batches short.
	size := vec.DefaultSize
	if maxEntries > 0 && maxEntries < 8 {
		size = 40
	}
	for i := 0; i < nBatches; i++ {
		bk := append([]types.Kind(nil), kinds...)
		bk[0] = []types.Kind{types.KindInt, types.KindFloat}[i%2]
		n := size
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(size)
		}
		task.batches = append(task.batches, aggBatch(rng, bk, n, card))
	}
	return task
}

// TestPartialAggMatchesOracle holds the slab aggregator to the per-lane
// reference, datum for datum with floats by their bits, over keys and
// arguments of every kind (NULLs, NaN, ±0, ±Inf, demoted columns), a
// group promoted from int to double, every aggregate, and flush
// thresholds that cut batches.
func TestPartialAggMatchesOracle(t *testing.T) {
	cols := append([]types.Kind{types.KindInt}, aggColumnKinds...) // 0: int/double by batch
	keySets := map[string][]int{
		"int":    {1},
		"double": {2},
		"string": {5},
		"any":    {6},
		"none":   nil,
		"all":    {5, 1, 6, 2, 3, 4}, // with the date and bool keys
	}
	for kname, keys := range keySets {
		for _, maxEntries := range []int{1, 2, 7, 0} {
			for seed := int64(0); seed < 3; seed++ {
				card := []int{4, 40, 3000}[seed]
				task := newAggTask(seed*17+int64(maxEntries), cols, keys, 3, card, maxEntries)
				want := runPartialAgg(refPartialAgg, task.op, task.batches, 0)
				got := runPartialAgg(newPartialAgg, task.op, task.batches, 0)
				name := fmt.Sprintf("keys %s, MaxEntries %d, seed %d", kname, maxEntries, seed)
				if want.err != nil || len(want.batches) == 0 {
					t.Fatalf("%s: reference emitted %d batches, error %v", name, len(want.batches), want.err)
				}
				sameAggRun(t, name, got, want)
			}
		}
	}
}

// TestPartialAggSlabPool: tasks of different shapes share the pooled
// slab, in turn and concurrently, and each still matches the
// reference, also after a task whose sink failed in the middle of a
// flush (at close, and inside a batch).
func TestPartialAggSlabPool(t *testing.T) {
	a := newAggTask(1, []types.Kind{types.KindInt, types.KindString, types.KindFloat}, []int{1}, 6, 3000, 0)
	b := newAggTask(2, []types.Kind{types.KindInt, types.KindFloat, vec.KindAny, types.KindDate}, []int{2, 3}, 3, 50, 7)
	tasks := []aggTask{a, b, a}
	wants := make([]aggRun, len(tasks))
	for i, task := range tasks {
		wants[i] = runPartialAgg(refPartialAgg, task.op, task.batches, 0)
	}
	check := func(name string) {
		for i, task := range tasks {
			sameAggRun(t, fmt.Sprintf("%s, task %d", name, i), runPartialAgg(newPartialAgg, task.op, task.batches, 0), wants[i])
		}
	}
	check("in turn")

	// a flushes more than one output batch at close; b flushes inside
	// its batches.
	for _, task := range []aggTask{a, b} {
		want := runPartialAgg(refPartialAgg, task.op, task.batches, 2)
		got := runPartialAgg(newPartialAgg, task.op, task.batches, 2)
		if want.err != errSink {
			t.Fatalf("reference did not fail: %v", want.err)
		}
		sameAggRun(t, "failing sink", got, want)
		check("after a failed flush")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(tasks))
	for r := 0; r < 4; r++ {
		for i, task := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := runPartialAgg(newPartialAgg, task.op, task.batches, 0)
				if got.err != nil || len(got.batches) != len(wants[i].batches) {
					errs <- fmt.Errorf("task %d: %d batches, error %v", i, len(got.batches), got.err)
					return
				}
				for j := range got.batches {
					if string(got.batches[j]) != string(wants[i].batches[j]) {
						errs <- fmt.Errorf("task %d: output batch %d differs", i, j)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAggSlabResetPinsNothing: after a flush, no slot of the slab's
// key, state or scratch storage holds a string, and its table is empty.
func TestAggSlabResetPinsNothing(t *testing.T) {
	task := newAggTask(3, []types.Kind{types.KindInt, types.KindString}, []int{1}, 1, 100, 0)
	op := &GroupByPartialOp{Keys: task.op.Keys, Aggs: []AggSpec{{Kind: AggMax, Arg: col(1)}}}
	b := task.batches[0]
	keyVs := make([]vec.Vector, 1)
	if err := evalKernels(compileKernels(op.Keys), b, keyVs); err != nil {
		t.Fatal(err)
	}
	s := new(aggSlab)
	s.gids = make([]int32, b.N)
	for lane := 0; lane < b.N; lane++ {
		s.add(keyVs, lane, 1)
	}
	s.fold(0, 1, &op.Aggs[0], &keyVs[0], 0, b.N)
	rows := 0
	if err := s.flush(op, 2, func(out *vec.Batch) error { rows += out.N; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows == 0 || s.groups() != 0 {
		t.Fatalf("flushed %d rows, %d groups left", rows, s.groups())
	}
	for _, d := range append(s.keys[:cap(s.keys)], s.row[:cap(s.row)]...) {
		if d != (types.Datum{}) {
			t.Fatalf("reset slab holds %v", d)
		}
	}
	for _, st := range s.states[:cap(s.states)] {
		if st.acc != (types.Datum{}) || st.count != 0 {
			t.Fatalf("reset slab holds state %+v", st)
		}
	}
	for _, str := range s.order[:cap(s.order)] {
		if str != "" {
			t.Fatalf("reset slab holds %q", str)
		}
	}
	for _, e := range s.slots {
		if e != 0 {
			t.Fatal("reset slab's table is not empty")
		}
	}
}
