package exec

import (
	"testing"

	"hivempi/internal/types"
)

// reduceGroup is one Feed call's input.
type reduceGroup struct {
	key    types.Datum
	values []types.Row
	tags   []byte // per value; nil = all tag 0
}

// feedGroups runs the groups through drivers built by newDriver: one
// driver for all of them when shared, a fresh one per group otherwise.
func feedGroups(t *testing.T, work *ReduceWork, groups []reduceGroup, shared bool) []string {
	t.Helper()
	var out []string
	sink := func(r types.Row) error {
		out = append(out, r.Text('|'))
		return nil
	}
	var rd *ReduceDriver
	for i, g := range groups {
		if rd == nil || !shared {
			var err error
			if rd, err = NewReduceDriver(testEnv(t), work, sink, nil); err != nil {
				t.Fatal(err)
			}
		}
		key := types.AppendKeyDatum(nil, g.key, false)
		var vals [][]byte
		for j, row := range g.values {
			tag := byte(0)
			if g.tags != nil {
				tag = g.tags[j]
			}
			vals = append(vals, types.EncodeRow([]byte{tag}, row))
		}
		if err := rd.Feed(key, vals); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	return out
}

func checkSharedDriverMatchesFresh(t *testing.T, work *ReduceWork, groups []reduceGroup) {
	t.Helper()
	fresh := feedGroups(t, work, groups, false)
	shared := feedGroups(t, work, groups, true)
	if len(fresh) == 0 {
		t.Fatal("reference produced no rows")
	}
	if len(shared) != len(fresh) {
		t.Fatalf("one driver emitted %d rows, a driver per group %d", len(shared), len(fresh))
	}
	for i := range fresh {
		if shared[i] != fresh[i] {
			t.Errorf("row %d: one driver %q, a driver per group %q", i, shared[i], fresh[i])
		}
	}
}

// TestReduceDriverGroupStateDoesNotLeak feeds consecutive groups
// through one driver — whose aggregate states, key row and join buckets
// are reset per group, not reallocated — and demands the rows a fresh
// driver per group produces: no distinct set, running min/max, avg
// count or join bucket may survive into the next group.
func TestReduceDriverGroupStateDoesNotLeak(t *testing.T) {
	null := types.Null()
	t.Run("complete", func(t *testing.T) {
		work := &ReduceWork{
			KeyKinds: []types.Kind{types.KindString},
			Op: &GroupByReduce{Complete: true, Aggs: []AggSpec{
				{Kind: AggCount, Arg: col(0), Distinct: true},
				{Kind: AggMin, Arg: col(1)},
				{Kind: AggMax, Arg: col(2)},
				{Kind: AggAvg, Arg: col(3)},
				{Kind: AggCountStar},
			}},
		}
		row := func(a, b, c, d types.Datum) types.Row { return types.Row{a, b, c, d, null} }
		checkSharedDriverMatchesFresh(t, work, []reduceGroup{
			{key: types.String("a"), values: []types.Row{
				row(types.Int(1), types.Int(-5), types.Int(90), types.Float(2.5)),
				row(types.Int(1), types.Int(7), types.Int(3), types.Float(4.5)),
				row(types.Int(2), types.Int(0), types.Int(8), null),
			}},
			// Every input NULL: count 0, min/max/avg NULL, not group a's.
			{key: types.String("b"), values: []types.Row{
				row(null, null, null, null),
				row(null, null, null, null),
			}},
			// Repeats a value group a already saw; larger min, smaller max.
			{key: types.String("c"), values: []types.Row{
				row(types.Int(1), types.Int(40), types.Int(41), types.Float(1)),
			}},
		})
	})
	t.Run("partials", func(t *testing.T) {
		work := &ReduceWork{
			KeyKinds: []types.Kind{types.KindInt},
			Op: &GroupByReduce{Aggs: []AggSpec{
				{Kind: AggSum, Arg: col(0)}, {Kind: AggAvg, Arg: col(1)},
				{Kind: AggMin, Arg: col(2)}, {Kind: AggCount, Arg: col(3)},
			}},
		}
		checkSharedDriverMatchesFresh(t, work, []reduceGroup{
			{key: types.Int(1), values: []types.Row{
				{types.Float(1.25), types.Float(10), types.Int(2), types.String("k"), types.Int(3)},
				{types.Float(2.5), types.Float(6), types.Int(1), types.String("b"), types.Int(4)},
			}},
			{key: types.Int(2), values: []types.Row{
				{null, null, types.Int(0), null, types.Int(0)},
			}},
			{key: types.Int(3), values: []types.Row{
				{types.Float(0.5), types.Float(1), types.Int(1), types.String("z"), types.Int(1)},
			}},
		})
	})
	t.Run("join", func(t *testing.T) {
		work := &ReduceWork{
			KeyKinds: []types.Kind{types.KindInt},
			Op: &JoinReduce{TagCount: 3, ValueWidths: []int{1, 1, 1},
				JoinTypes: []JoinType{JoinInner, JoinLeftOuter}},
		}
		s := func(v string) types.Row { return types.Row{types.String(v)} }
		checkSharedDriverMatchesFresh(t, work, []reduceGroup{
			{key: types.Int(1), values: []types.Row{s("l1"), s("l2"), s("m1"), s("r1"), s("r2")},
				tags: []byte{0, 0, 1, 2, 2}},
			// No tag-2 rows: the outer side must null-pad, not reuse r1/r2.
			{key: types.Int(2), values: []types.Row{s("l3"), s("m2")}, tags: []byte{0, 1}},
			// No tag-1 rows: the inner join must drop l4, not meet m2.
			{key: types.Int(3), values: []types.Row{s("l4"), s("r3")}, tags: []byte{0, 2}},
			{key: types.Int(4), values: []types.Row{s("l5"), s("m3"), s("m4")}, tags: []byte{0, 1, 1}},
		})
	})
}
