package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// benchExecBatch builds a lineitem-shaped batch: qty int, price float,
// disc float, flag string.
func benchExecBatch(n int) *vec.Batch {
	rng := rand.New(rand.NewSource(3))
	b := &vec.Batch{N: n}
	b.Cols = []*vec.Vector{
		vec.NewVector(types.KindInt, n),
		vec.NewVector(types.KindFloat, n),
		vec.NewVector(types.KindFloat, n),
		vec.NewVector(types.KindString, n),
	}
	flags := []string{"A", "N", "R"}
	for i := 0; i < n; i++ {
		b.Cols[0].I64[i] = int64(rng.Intn(50))
		b.Cols[1].F64[i] = rng.Float64() * 1000
		b.Cols[2].F64[i] = rng.Float64() * 0.1
		b.Cols[3].Str[i] = flags[rng.Intn(len(flags))]
	}
	return b
}

// benchFilterExpr is Q6-shaped: disc between bounds AND qty < 24.
func benchFilterExpr() Expr {
	return &Logic{Op: LogicAnd,
		L: &Between{E: col(2), Lo: fLit(0.02), Hi: fLit(0.08)},
		R: &Cmp{Op: CmpLT, L: col(0), R: iLit(24)},
	}
}

func BenchmarkFilterRowEval(b *testing.B) {
	e := benchFilterExpr()
	batch := benchExecBatch(vec.DefaultSize)
	var scratch types.Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept := 0
		for lane := 0; lane < batch.N; lane++ {
			scratch = batch.Row(lane, scratch)
			d, err := e.Eval(scratch)
			if err != nil {
				b.Fatal(err)
			}
			if !d.IsNull() && d.Bool() {
				kept++
			}
		}
	}
}

func BenchmarkFilterKernel(b *testing.B) {
	k := compileKernel(benchFilterExpr())
	batch := benchExecBatch(vec.DefaultSize)
	var out vec.Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k(batch, &out); err != nil {
			b.Fatal(err)
		}
		kept := 0
		for lane := 0; lane < batch.N; lane++ {
			if laneBool(&out, lane) {
				kept++
			}
		}
	}
}

// benchProjectExpr is Q1's revenue expression: price * (1 - disc).
func benchProjectExpr() Expr {
	return &BinOp{Op: OpMul, L: col(1),
		R: &BinOp{Op: OpSub, L: fLit(1), R: col(2)}}
}

func BenchmarkProjectRowEval(b *testing.B) {
	e := benchProjectExpr()
	batch := benchExecBatch(vec.DefaultSize)
	var scratch types.Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lane := 0; lane < batch.N; lane++ {
			scratch = batch.Row(lane, scratch)
			if _, err := e.Eval(scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkProjectKernel(b *testing.B) {
	k := compileKernel(benchProjectExpr())
	batch := benchExecBatch(vec.DefaultSize)
	var out vec.Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k(batch, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAggOps is a Q1-shaped map-side aggregation: group by flag,
// sum(qty), sum(price*(1-disc)), count(*).
func benchAggOps() []MapOp {
	return []MapOp{&GroupByPartialOp{
		Keys: []Expr{col(3)},
		Aggs: []AggSpec{
			{Kind: AggSum, Arg: col(0)},
			{Kind: AggSum, Arg: benchProjectExpr()},
			{Kind: AggCountStar},
		},
	}}
}

func BenchmarkGroupByPartial(b *testing.B) {
	batch := benchExecBatch(vec.DefaultSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := buildChain(nil, benchAggOps(), func(*vec.Batch) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		if err := c.process(batch); err != nil {
			b.Fatal(err)
		}
		if err := c.close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchZipfBatches builds a HiBench AGGREGATE-shaped task input:
// nBatches full batches of (sourceIP string, adRevenue double) whose
// keys follow a Zipf law over 1<<20 addresses.
func benchZipfBatches(nBatches int) []*vec.Batch {
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.05, 1, 1<<20)
	batches := make([]*vec.Batch, nBatches)
	for i := range batches {
		b := &vec.Batch{N: vec.DefaultSize, Cols: []*vec.Vector{
			vec.NewVector(types.KindString, vec.DefaultSize),
			vec.NewVector(types.KindFloat, vec.DefaultSize),
		}}
		for lane := 0; lane < b.N; lane++ {
			b.Cols[0].Str[lane] = fmt.Sprintf("10.%d.%d.%d", zipf.Uint64()>>16, zipf.Uint64()>>8&0xFF, zipf.Uint64()&0xFF)
			b.Cols[1].F64[lane] = rng.Float64() * 100
		}
		batches[i] = b
	}
	return batches
}

// BenchmarkGroupByPartialManyGroups is one map task of
// SELECT sourceip, sum(adrevenue) ... GROUP BY sourceip over Zipf keys:
// 32 batches with about 12k distinct keys, and a table that fills once
// in the middle of the task.
func BenchmarkGroupByPartialManyGroups(b *testing.B) {
	batches := benchZipfBatches(32)
	op := &GroupByPartialOp{Keys: []Expr{col(0)}, Aggs: []AggSpec{{Kind: AggSum, Arg: col(1)}}, MaxEntries: 10000}
	run := func() int {
		rows := 0
		c, err := buildChain(nil, []MapOp{op}, func(out *vec.Batch) error { rows += out.N; return nil })
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := c.process(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.close(); err != nil {
			b.Fatal(err)
		}
		return rows
	}
	// One flush in the middle: more rows than the table holds, fewer
	// than two full tables.
	if rows := run(); rows <= op.MaxEntries || rows >= 2*op.MaxEntries {
		b.Fatalf("%d rows out of a %d-entry table: not one mid-task flush", rows, op.MaxEntries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchJoinGroup is a Q3-shaped join group: one left row (a string
// and a date) meeting n right rows (a string, an int, a float).
func benchJoinGroup(n int) (*ReduceWork, []byte, [][]byte) {
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op: &JoinReduce{TagCount: 2, ValueWidths: []int{2, 3},
			JoinTypes: []JoinType{JoinInner}},
	}
	values := [][]byte{types.EncodeRow([]byte{0},
		types.Row{types.String("Customer#000004242"), types.MustDate("1995-03-15")})}
	for i := 0; i < n; i++ {
		values = append(values, types.EncodeRow([]byte{1}, types.Row{
			types.String(fmt.Sprintf("1-URGENT-%05d", i)), types.Int(int64(i)), types.Float(float64(i) * 1.5)}))
	}
	return work, types.AppendKeyDatum(nil, types.Int(4242), false), values
}

// benchGroupByGroup is a partial-merge group with a string key: n
// partial states of sum, avg and count.
func benchGroupByGroup(n int) (*ReduceWork, []byte, [][]byte) {
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindString},
		Op: &GroupByReduce{Aggs: []AggSpec{
			{Kind: AggSum, Arg: col(0)}, {Kind: AggAvg, Arg: col(1)}, {Kind: AggCount, Arg: col(2)},
		}},
	}
	var values [][]byte
	for i := 0; i < n; i++ {
		values = append(values, types.EncodeRow([]byte{0}, types.Row{
			types.Float(float64(i) * 0.25), types.Float(float64(i)), types.Int(3), types.Int(int64(i))}))
	}
	return work, types.AppendKeyDatum(nil, types.String("BUILDING-1995-03"), false), values
}

// benchFeed feeds one group per op through a driver whose sink drops
// the rows.
func benchFeed(b *testing.B, work *ReduceWork, key []byte, values [][]byte) {
	rd, err := NewReduceDriver(&Env{}, work, func(types.Row) error { return nil }, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rd.Feed(key, values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceFeedJoin(b *testing.B) {
	work, key, values := benchJoinGroup(64)
	benchFeed(b, work, key, values)
}

func BenchmarkReduceFeedGroupBy(b *testing.B) {
	work, key, values := benchGroupByGroup(64)
	benchFeed(b, work, key, values)
}
