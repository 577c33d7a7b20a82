package exec

import (
	"testing"

	"hivempi/internal/types"
)

func TestAggSumCountAvgMinMax(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(0)},
		{Kind: AggCount, Arg: col(0)},
		{Kind: AggCountStar},
		{Kind: AggAvg, Arg: col(0)},
		{Kind: AggMin, Arg: col(0)},
		{Kind: AggMax, Arg: col(0)},
	}
	states := make([]*AggState, len(specs))
	for i, s := range specs {
		states[i] = NewAggState(s)
	}
	inputs := []types.Datum{types.Int(4), types.Int(2), types.Null(), types.Int(6)}
	for _, d := range inputs {
		for _, st := range states {
			st.UpdateDatum(d)
		}
	}
	wants := []string{"12", "3", "4", "4", "2", "6"}
	for i, st := range states {
		if got := st.Final().Text(); got != wants[i] {
			t.Errorf("agg %d (%v) = %s, want %s", i, specs[i].Kind, got, wants[i])
		}
	}
}

func TestAggPartialMergeEqualsDirect(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggSum, Arg: col(0)},
		{Kind: AggCountStar},
		{Kind: AggAvg, Arg: col(0)},
		{Kind: AggMin, Arg: col(0)},
		{Kind: AggMax, Arg: col(0)},
	}
	vals := []int64{5, 3, 9, 1, 7, 7, 2}
	for _, spec := range specs {
		direct := NewAggState(spec)
		for _, v := range vals {
			direct.UpdateDatum(types.Int(v))
		}
		// Split into two partials and merge.
		p1, p2 := NewAggState(spec), NewAggState(spec)
		for i, v := range vals {
			st := p1
			if i%2 == 1 {
				st = p2
			}
			st.UpdateDatum(types.Int(v))
		}
		merged := NewAggState(spec)
		if err := merged.MergePartial(p1.EmitPartial()); err != nil {
			t.Fatal(err)
		}
		if err := merged.MergePartial(p2.EmitPartial()); err != nil {
			t.Fatal(err)
		}
		if types.Compare(direct.Final(), merged.Final()) != 0 {
			t.Errorf("%v: direct %v != merged %v", spec.Kind, direct.Final(), merged.Final())
		}
	}
}

func TestAggDistinct(t *testing.T) {
	st := NewAggState(AggSpec{Kind: AggCount, Arg: col(0), Distinct: true})
	for _, v := range []int64{1, 2, 2, 3, 3, 3} {
		st.UpdateDatum(types.Int(v))
	}
	if got := st.Final().Int(); got != 3 {
		t.Errorf("count(distinct) = %d, want 3", got)
	}
	sum := NewAggState(AggSpec{Kind: AggSum, Arg: col(0), Distinct: true})
	for _, v := range []int64{5, 5, 7} {
		sum.UpdateDatum(types.Int(v))
	}
	if got := sum.Final().Int(); got != 12 {
		t.Errorf("sum(distinct) = %d, want 12", got)
	}
}

func TestAggEmptyGroup(t *testing.T) {
	if got := NewAggState(AggSpec{Kind: AggSum, Arg: col(0)}).Final(); !got.IsNull() {
		t.Errorf("sum of empty = %v, want NULL", got)
	}
	if got := NewAggState(AggSpec{Kind: AggCountStar}).Final(); got.Int() != 0 {
		t.Errorf("count(*) of empty = %v, want 0", got)
	}
	if got := NewAggState(AggSpec{Kind: AggAvg, Arg: col(0)}).Final(); !got.IsNull() {
		t.Errorf("avg of empty = %v, want NULL", got)
	}
}

func TestAggFloatPromotion(t *testing.T) {
	st := NewAggState(AggSpec{Kind: AggSum, Arg: col(0)})
	st.UpdateDatum(types.Int(1))
	st.UpdateDatum(types.Float(2.5))
	if got := st.Final().Float(); got != 3.5 {
		t.Errorf("mixed sum = %v, want 3.5", got)
	}
}

func TestAggMergeWidthValidation(t *testing.T) {
	st := NewAggState(AggSpec{Kind: AggAvg, Arg: col(0)})
	if err := st.MergePartial([]types.Datum{types.Int(1)}); err == nil {
		t.Error("avg merge with width 1 should fail")
	}
}
