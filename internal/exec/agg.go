package exec

import (
	"fmt"

	"hivempi/internal/types"
)

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggSum AggKind = iota + 1
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

// String returns the HiveQL spelling.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount, AggCountStar:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// AggSpec describes one aggregate call in a GROUP BY.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// PartialWidth is the number of datums the partial state serializes to.
func (s AggSpec) PartialWidth() int {
	if s.Distinct {
		return 1 // the raw argument value; dedup happens at the reducer
	}
	if s.Kind == AggAvg {
		return 2 // (sum, count)
	}
	return 1
}

// AggState accumulates one aggregate for one group.
type AggState struct {
	spec  AggSpec
	acc   types.Datum // running sum (sum, avg), minimum or maximum
	count int64
	set   map[string]struct{} // distinct values, keyed by encoded datum
}

// NewAggState returns an empty accumulator for the spec.
func NewAggState(spec AggSpec) *AggState {
	st := &AggState{spec: spec}
	if spec.Distinct {
		st.set = make(map[string]struct{})
	}
	return st
}

// reset empties the accumulator for the next group.
func (st *AggState) reset() {
	st.acc = types.Datum{}
	st.count = 0
	clear(st.set)
}

func addNumeric(acc, d types.Datum) types.Datum {
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

// UpdateDatum folds one already-evaluated argument value.
func (st *AggState) UpdateDatum(d types.Datum) {
	if st.spec.Kind == AggCountStar {
		st.count++
		return
	}
	if d.IsNull() {
		return // SQL aggregates ignore NULL inputs
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
		st.acc = addNumeric(st.acc, d)
	case AggCount:
		st.count++
	case AggAvg:
		st.acc = addNumeric(st.acc, d)
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

// EmitPartial serializes the state for the shuffle (map-side partial
// aggregation). Distinct aggregates are not partialized: the planner
// ships raw values instead and the reducer runs in complete mode.
func (st *AggState) EmitPartial() []types.Datum {
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

// MergePartial folds a serialized partial state (width PartialWidth).
func (st *AggState) MergePartial(part []types.Datum) error {
	if len(part) != st.spec.PartialWidth() {
		return fmt.Errorf("exec: partial width %d, want %d", len(part), st.spec.PartialWidth())
	}
	switch st.spec.Kind {
	case AggSum:
		if !part[0].IsNull() {
			st.acc = addNumeric(st.acc, part[0])
		}
	case AggCount, AggCountStar:
		st.count += part[0].Int()
	case AggAvg:
		if !part[0].IsNull() {
			st.acc = addNumeric(st.acc, part[0])
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

// Final produces the aggregate's result value.
func (st *AggState) Final() types.Datum {
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
