package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"hivempi/internal/types"
	"hivempi/internal/vec"
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

// AggState accumulates one aggregate for one group. It is a value: the
// zero AggState is the empty accumulator, and every method is told the
// spec it folds for, so a slab of states ([]AggState) holds a task's
// groups on the map side and a group's aggregates on the reduce side
// with no pointer per state.
type AggState struct {
	acc   types.Datum // running sum (sum, avg), minimum or maximum
	count int64
	set   map[string]struct{} // distinct values, keyed by encoded datum
}

// reset empties the accumulator for the next group, keeping the
// storage of its distinct set.
func (st *AggState) reset() {
	st.acc = types.Datum{}
	st.count = 0
	clear(st.set)
}

// add folds a non-NULL value into the running sum (sum, avg) in place:
// the sum stays an int until its first double.
func (st *AggState) add(d types.Datum) {
	switch {
	case st.acc.K == types.KindNull:
		if d.K == types.KindFloat {
			st.acc = types.Float(d.F)
		} else {
			st.acc = types.Int(d.Int())
		}
	case st.acc.K == types.KindInt && d.K != types.KindFloat:
		st.acc.I += d.I
	default:
		// Not acc.F += d.F: when both are NaN, the operand order
		// decides which NaN's bits the sum keeps, and these are the
		// bits the per-lane aggregator kept.
		st.acc = types.Float(st.acc.Float() + d.Float())
	}
}

// Update folds one already-evaluated argument value.
func (st *AggState) Update(spec *AggSpec, d types.Datum) {
	if spec.Kind == AggCountStar {
		st.count++
		return
	}
	if d.IsNull() {
		return // SQL aggregates ignore NULL inputs
	}
	if spec.Distinct {
		key := string(types.AppendDatum(nil, d))
		if _, ok := st.set[key]; ok {
			return
		}
		if st.set == nil {
			st.set = make(map[string]struct{})
		}
		st.set[key] = struct{}{}
	}
	switch spec.Kind {
	case AggSum:
		st.add(d)
	case AggCount:
		st.count++
	case AggAvg:
		st.add(d)
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

// AppendPartial appends the state serialized for the shuffle (map-side
// partial aggregation) to dst. Distinct aggregates are not partialized:
// the planner ships raw values instead and the reducer runs in
// complete mode.
func (st *AggState) AppendPartial(dst []types.Datum, spec *AggSpec) []types.Datum {
	switch spec.Kind {
	case AggSum, AggMin, AggMax:
		return append(dst, st.acc)
	case AggCount, AggCountStar:
		return append(dst, types.Int(st.count))
	case AggAvg:
		return append(dst, st.acc, types.Int(st.count))
	default:
		return append(dst, types.Null())
	}
}

// MergePartial folds a serialized partial state (width PartialWidth).
func (st *AggState) MergePartial(spec *AggSpec, part []types.Datum) error {
	if len(part) != spec.PartialWidth() {
		return fmt.Errorf("exec: partial width %d, want %d", len(part), spec.PartialWidth())
	}
	switch spec.Kind {
	case AggSum:
		if !part[0].IsNull() {
			st.add(part[0])
		}
	case AggCount, AggCountStar:
		st.count += part[0].Int()
	case AggAvg:
		if !part[0].IsNull() {
			st.add(part[0])
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
		return fmt.Errorf("exec: merge of %v", spec.Kind)
	}
	return nil
}

// Final produces the aggregate's result value.
func (st *AggState) Final(spec *AggSpec) types.Datum {
	switch spec.Kind {
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

// aggSlab is one map task's partial-aggregation table (newPartialAgg).
// A group is a slab row: its key datums in keys, its states in states,
// and its encoded key in arena, found again through an open-addressing
// table. A new group appends a row; a flush empties the slab and keeps
// its capacity, and aggSlabs hands it on to the next task.
type aggSlab struct {
	// arena holds each group's encoded key followed by its id, 4 bytes
	// big-endian; group g's piece ends at ends[g]. Encoded keys of one
	// width are prefix-free, so the pieces sort as their keys do and a
	// sorted piece still names its group.
	arena  []byte
	ends   []int
	hashes []uint64 // hash of each group's key
	slots  []int32  // group id + 1 at the key's probe position; 0 is empty

	keys   []types.Datum // group g's keys at [g*nk, (g+1)*nk)
	states []AggState    // group g's states at [g*na, (g+1)*na)
	gids   []int32       // the group of each lane of the batch being folded
	order  []string      // flush scratch: the groups' arena pieces
	row    []types.Datum // flush scratch: one output row
}

// aggSeed seeds the slabs' key hash. Probe order never reaches the
// output, which flush sorts by key bytes, so the seed need not be fixed.
var aggSeed = maphash.MakeSeed()

// aggSlabs hands slabs from task to task, so a task's table starts at
// the size its predecessors grew it to.
var aggSlabs = sync.Pool{New: func() any { return new(aggSlab) }}

func (s *aggSlab) groups() int { return len(s.ends) }

// key returns group g's encoded key.
func (s *aggSlab) key(g int) []byte {
	lo := 0
	if g > 0 {
		lo = s.ends[g-1]
	}
	return s.arena[lo : s.ends[g]-4]
}

// add resolves lane's group into gids[lane] and reports whether its key
// is new, in which case the group's slab row (keys, then na empty
// states) is appended.
func (s *aggSlab) add(keyVs []vec.Vector, lane, na int) bool {
	start := len(s.arena)
	s.arena, _ = appendLaneKey(s.arena, keyVs, lane, nil)
	g, isNew := s.find(start)
	s.gids[lane] = int32(g)
	if isNew {
		for k := range keyVs {
			s.keys = append(s.keys, keyVs[k].Datum(lane))
		}
		s.states = append(s.states, make([]AggState, na)...)
	}
	return isNew
}

// find returns the group whose encoded key is arena[start:]. A key seen
// before is cut off the arena again; a new one stays, its group id is
// appended after it and the caller fills the group's row.
func (s *aggSlab) find(start int) (g int, isNew bool) {
	key := s.arena[start:]
	h := maphash.Bytes(aggSeed, key)
	if 2*(len(s.ends)+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			g = len(s.ends)
			s.slots[i] = int32(g + 1)
			s.hashes = append(s.hashes, h)
			s.arena = binary.BigEndian.AppendUint32(s.arena, uint32(g))
			s.ends = append(s.ends, len(s.arena))
			return g, true
		}
		if g = int(e - 1); s.hashes[g] == h && bytes.Equal(s.key(g), key) {
			s.arena = s.arena[:start]
			return g, false
		}
	}
}

// grow doubles the table and re-probes every group into it.
func (s *aggSlab) grow() {
	s.slots = make([]int32, max(64, 2*len(s.slots)))
	mask := uint64(len(s.slots) - 1)
	for g, h := range s.hashes {
		i := h & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(g + 1)
	}
}

// reset empties the slab for the next flush or task. Only the slots
// its groups hold are cleared, so a table grown by an earlier task
// costs a small one nothing; keys, states and scratch are zeroed so the
// slab pins no strings.
func (s *aggSlab) reset() {
	mask := uint64(len(s.slots) - 1)
	for g, h := range s.hashes {
		i := h & mask
		for s.slots[i] != int32(g+1) {
			i = (i + 1) & mask
		}
		s.slots[i] = 0
	}
	clear(s.keys)
	clear(s.states)
	clear(s.order)
	clear(s.row)
	s.arena, s.ends, s.hashes = s.arena[:0], s.ends[:0], s.hashes[:0]
	s.keys, s.states, s.order, s.row = s.keys[:0], s.states[:0], s.order[:0], s.row[:0]
}

// fold adds lanes [lo, hi) of aggregate i's argument vector v (nil for
// COUNT(*)) to the states of the lanes' groups, in lane order, through
// Update.
func (s *aggSlab) fold(i, na int, spec *AggSpec, v *vec.Vector, lo, hi int) {
	states, gids := s.states, s.gids
	for lane := lo; lane < hi; lane++ {
		var d types.Datum
		if v != nil {
			d = v.Datum(lane)
		}
		states[int(gids[lane])*na+i].Update(spec, d)
	}
}

// flush hands every group to next as a row of op's keys and partial
// states (width datums), in the byte order of the groups' encoded keys,
// and empties the slab. The pieces to sort are cut from one copy of
// the arena.
func (s *aggSlab) flush(op *GroupByPartialOp, width int, next batchSink) error {
	n := s.groups()
	if n == 0 {
		return nil
	}
	defer s.reset()
	nk, na := len(op.Keys), len(op.Aggs)
	arena, lo := string(s.arena), 0
	for _, hi := range s.ends {
		s.order = append(s.order, arena[lo:hi])
		lo = hi
	}
	sort.Strings(s.order)
	out := newDatumBatcher(width, min(n, vec.DefaultSize), next)
	defer out.release()
	for _, piece := range s.order {
		id := piece[len(piece)-4:]
		g := int(id[0])<<24 | int(id[1])<<16 | int(id[2])<<8 | int(id[3])
		s.row = append(s.row[:0], s.keys[g*nk:(g+1)*nk]...)
		for i := range op.Aggs {
			s.row = s.states[g*na+i].AppendPartial(s.row, &op.Aggs[i])
		}
		for c, d := range s.row {
			out.set(c, d)
		}
		if err := out.endRow(); err != nil {
			return err
		}
	}
	return out.flush()
}
