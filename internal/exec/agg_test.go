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
	states := make([]AggState, len(specs))
	inputs := []types.Datum{types.Int(4), types.Int(2), types.Null(), types.Int(6)}
	for _, d := range inputs {
		for i := range states {
			states[i].Update(&specs[i], d)
		}
	}
	wants := []string{"12", "3", "4", "4", "2", "6"}
	for i := range states {
		if got := states[i].Final(&specs[i]).Text(); got != wants[i] {
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
		var direct AggState
		for _, v := range vals {
			direct.Update(&spec, types.Int(v))
		}
		// Split into two partials and merge.
		var p [2]AggState
		for i, v := range vals {
			p[i%2].Update(&spec, types.Int(v))
		}
		var merged AggState
		for i := range p {
			if err := merged.MergePartial(&spec, p[i].AppendPartial(nil, &spec)); err != nil {
				t.Fatal(err)
			}
		}
		if types.Compare(direct.Final(&spec), merged.Final(&spec)) != 0 {
			t.Errorf("%v: direct %v != merged %v", spec.Kind, direct.Final(&spec), merged.Final(&spec))
		}
	}
}

func TestAggDistinct(t *testing.T) {
	count := AggSpec{Kind: AggCount, Arg: col(0), Distinct: true}
	var st AggState
	for _, v := range []int64{1, 2, 2, 3, 3, 3} {
		st.Update(&count, types.Int(v))
	}
	if got := st.Final(&count).Int(); got != 3 {
		t.Errorf("count(distinct) = %d, want 3", got)
	}
	// A reset state keeps its set's storage but forgets its values.
	st.reset()
	st.Update(&count, types.Int(1))
	if got := st.Final(&count).Int(); got != 1 {
		t.Errorf("count(distinct) after reset = %d, want 1", got)
	}
	sum := AggSpec{Kind: AggSum, Arg: col(0), Distinct: true}
	var sumSt AggState
	for _, v := range []int64{5, 5, 7} {
		sumSt.Update(&sum, types.Int(v))
	}
	if got := sumSt.Final(&sum).Int(); got != 12 {
		t.Errorf("sum(distinct) = %d, want 12", got)
	}
}

func TestAggEmptyGroup(t *testing.T) {
	var empty AggState
	if got := empty.Final(&AggSpec{Kind: AggSum, Arg: col(0)}); !got.IsNull() {
		t.Errorf("sum of empty = %v, want NULL", got)
	}
	if got := empty.Final(&AggSpec{Kind: AggCountStar}); got.Int() != 0 {
		t.Errorf("count(*) of empty = %v, want 0", got)
	}
	if got := empty.Final(&AggSpec{Kind: AggAvg, Arg: col(0)}); !got.IsNull() {
		t.Errorf("avg of empty = %v, want NULL", got)
	}
}

func TestAggFloatPromotion(t *testing.T) {
	spec := AggSpec{Kind: AggSum, Arg: col(0)}
	var st AggState
	st.Update(&spec, types.Int(1))
	st.Update(&spec, types.Float(2.5))
	if got := st.Final(&spec).Float(); got != 3.5 {
		t.Errorf("mixed sum = %v, want 3.5", got)
	}
}

func TestAggMergeWidthValidation(t *testing.T) {
	var st AggState
	if err := st.MergePartial(&AggSpec{Kind: AggAvg, Arg: col(0)}, []types.Datum{types.Int(1)}); err == nil {
		t.Error("avg merge with width 1 should fail")
	}
}
