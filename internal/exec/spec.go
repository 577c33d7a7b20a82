package exec

import (
	"fmt"

	"hivempi/internal/dfs"
	"hivempi/internal/storage"
	"hivempi/internal/types"
)

// Physical plan model. The compiler lowers a HiveQL statement into a
// DAG of Stages; each Stage is one MapReduce/DataMPI job: map works
// (one per input alias) feeding an optional shuffle into a reduce work.
// The specs are pure data plus expression trees, so both engines
// execute the identical plan — the paper's plug-in property.

// TableInput describes one scanned input. Either Paths lists the data
// files directly or Dir names a DFS directory whose files are resolved
// at run time (intermediate stage outputs do not exist at plan time).
type TableInput struct {
	Table      string // metastore name, for diagnostics
	Paths      []string
	Dir        string
	Format     Format
	Schema     *types.Schema
	Projection []int              // columns to materialize (ORC pruning); nil = all
	Predicate  *storage.Predicate // stripe-skip predicate (ORC)
}

// Format aliases storage.Format for plan construction convenience.
type Format = storage.Format

// ResolvePaths returns the concrete data files at run time. Explicit
// Paths win: a base-table scan pins the files enumerated at plan time
// and keeps Dir only as the table's identity (observation keying);
// intermediate inputs list their producer's directory at run time.
func (in *TableInput) ResolvePaths(fs *dfs.FileSystem) []string {
	if len(in.Paths) > 0 {
		return in.Paths
	}
	if in.Dir != "" {
		return fs.List(in.Dir)
	}
	return nil
}

// MapOp is one operator in the map-side chain.
type MapOp interface {
	isMapOp()
	String() string
}

// FilterOp drops rows whose condition is not true.
type FilterOp struct {
	Cond Expr
}

func (*FilterOp) isMapOp() {}

func (f *FilterOp) String() string { return fmt.Sprintf("Filter[%s]", f.Cond) }

// SelectOp projects/computes a new row.
type SelectOp struct {
	Exprs []Expr
}

func (*SelectOp) isMapOp() {}

func (s *SelectOp) String() string { return fmt.Sprintf("Select[%d exprs]", len(s.Exprs)) }

// MapJoinOp hash-joins the stream against a small broadcast table
// (Hive's map join for dimension tables like nation/region).
type MapJoinOp struct {
	Small     TableInput
	SmallOps  []MapOp // filter/project applied while loading the small side
	ProbeKeys []Expr  // evaluated on the streaming (post-SmallOps) row
	BuildKeys []Expr  // evaluated on the small-table row
	Outer     bool    // left outer: emit probe row with nulls on miss
	// SmallWidth is the built row width (post-SmallOps); when 0 the
	// small schema's width is used.
	SmallWidth int
}

func (*MapJoinOp) isMapOp() {}

func (m *MapJoinOp) String() string { return fmt.Sprintf("MapJoin[%s]", m.Small.Table) }

// GroupByPartialOp is Hive's map-side hash aggregation: it accumulates
// partial aggregate states per group and flushes (group keys ++ partial
// state datums) rows downstream when the hash fills and at close.
type GroupByPartialOp struct {
	Keys       []Expr
	Aggs       []AggSpec
	MaxEntries int // flush threshold; DefaultHashAggEntries if 0
}

func (*GroupByPartialOp) isMapOp() {}

func (g *GroupByPartialOp) String() string {
	return fmt.Sprintf("GroupByPartial[%d keys, %d aggs]", len(g.Keys), len(g.Aggs))
}

// DefaultHashAggEntries bounds the map-side aggregation hash.
const DefaultHashAggEntries = 64 << 10

// LimitOp truncates the stream (map-side limit optimization).
type LimitOp struct {
	N int
}

func (*LimitOp) isMapOp() {}

func (l *LimitOp) String() string { return fmt.Sprintf("Limit[%d]", l.N) }

// MapWork is the map-side program for one input alias.
type MapWork struct {
	Input TableInput
	Ops   []MapOp

	// RawInputBytes is the planner's estimate of the input's
	// uncompressed logical size (from metastore statistics); engines
	// prefer it over compressed file bytes when sizing reducers.
	RawInputBytes int64

	// Shuffle emission (nil Keys means map-only: rows go to the sink).
	Tag    int // join input tag; 0 for single-input stages
	Keys   []Expr
	Values []Expr
}

// ShuffleSpec configures the stage's shuffle.
type ShuffleSpec struct {
	NumReducers int    // planner hint; engine config may override
	SortDescs   []bool // per key column; nil = all ascending
	// PartitionKeys is how many leading key columns select the reducer
	// (the rest only sort). 0 means all keys partition.
	PartitionKeys int
}

// JoinType is the join semantics between adjacent tags.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota + 1
	JoinLeftOuter
)

// ReduceOp consumes key groups.
type ReduceOp interface {
	isReduceOp()
	String() string
}

// GroupByReduce finalizes aggregation.
type GroupByReduce struct {
	Aggs []AggSpec
	// Complete mode means value rows carry raw argument values (used
	// when a DISTINCT aggregate disables map-side partials); otherwise
	// value rows carry serialized partial states.
	Complete bool
	// Output row: key datums ++ one final per agg.
}

func (*GroupByReduce) isReduceOp() {}

func (g *GroupByReduce) String() string { return fmt.Sprintf("GroupBy[%d aggs]", len(g.Aggs)) }

// JoinReduce joins the tagged value rows of each key group.
type JoinReduce struct {
	TagCount    int
	ValueWidths []int      // columns per tag
	JoinTypes   []JoinType // len TagCount-1: between accumulated result and tag i+1
	// Output row: tag0 cols ++ tag1 cols ++ ... (null-padded on outer miss).
}

func (*JoinReduce) isReduceOp() {}

func (j *JoinReduce) String() string { return fmt.Sprintf("Join[%d tags]", j.TagCount) }

// ExtractReduce passes value rows through in key order (ORDER BY).
type ExtractReduce struct {
	ValueWidth int
}

func (*ExtractReduce) isReduceOp() {}

func (e *ExtractReduce) String() string { return "Extract" }

// ReduceWork is the reduce-side program.
type ReduceWork struct {
	KeyKinds []types.Kind // for key decoding
	KeyDescs []bool       // matching the shuffle's SortDescs
	Op       ReduceOp
	Post     []MapOp // having / residual join filters / projection after the reduce op: FilterOp and SelectOp only
	Limit    int     // 0 = unlimited
}

// FileSinkSpec materializes output rows to a DFS directory.
type FileSinkSpec struct {
	Dir    string // each task writes Dir + "/part-<NNNNN>"
	Format storage.Format
	Schema *types.Schema
}

// Stage is one job of the query plan.
type Stage struct {
	ID      string
	Maps    []MapWork
	Shuffle *ShuffleSpec // nil = map-only stage
	Reduce  *ReduceWork  // nil = map-only stage
	Sink    *FileSinkSpec
	// Collect, when true, routes final rows back to the driver instead
	// of (or in addition to) the sink.
	Collect bool
	// LastStage marks the query's final job (the enhanced parallelism
	// strategy forces one reducer here, paper §IV-D).
	LastStage bool
}

// Validate sanity-checks the stage wiring.
func (s *Stage) Validate() error {
	if len(s.Maps) == 0 {
		return fmt.Errorf("exec: stage %s has no map works", s.ID)
	}
	mapOnly := s.Shuffle == nil
	if mapOnly != (s.Reduce == nil) {
		return fmt.Errorf("exec: stage %s shuffle/reduce mismatch", s.ID)
	}
	for i, mw := range s.Maps {
		if mapOnly && mw.Keys != nil {
			return fmt.Errorf("exec: stage %s map %d emits keys without shuffle", s.ID, i)
		}
		if !mapOnly && mw.Keys == nil {
			// A non-nil empty key list is a valid global aggregate
			// (every row shuffles to one group); nil means map-only.
			return fmt.Errorf("exec: stage %s map %d missing shuffle keys", s.ID, i)
		}
		if len(mw.Input.Paths) == 0 && mw.Input.Dir == "" {
			return fmt.Errorf("exec: stage %s map %d has no input paths", s.ID, i)
		}
	}
	if !mapOnly {
		if jr, ok := s.Reduce.Op.(*JoinReduce); ok {
			// A one-tag join would hand the driver's scratch rows to
			// the post chain; the planner never builds one.
			if jr.TagCount < 2 {
				return fmt.Errorf("exec: stage %s join has %d tags, want at least 2", s.ID, jr.TagCount)
			}
			if jr.TagCount != len(s.Maps) {
				return fmt.Errorf("exec: stage %s join tags %d != map works %d",
					s.ID, jr.TagCount, len(s.Maps))
			}
		}
	}
	if s.Sink == nil && !s.Collect {
		return fmt.Errorf("exec: stage %s has neither sink nor collect", s.ID)
	}
	return nil
}
