package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/storage"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	return &Env{FS: dfs.New(dfs.Config{BlockSize: 8 << 10, Nodes: []string{"n1", "n2"}})}
}

func writeTable(t *testing.T, env *Env, path string, schema *types.Schema, rows []types.Row) TableInput {
	t.Helper()
	w, err := storage.CreateTableFile(env.FS, path, storage.FormatText, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return TableInput{Table: path, Paths: []string{path}, Format: storage.FormatText, Schema: schema}
}

func wholeSplit(t *testing.T, env *Env, path string) dfs.Split {
	t.Helper()
	sz, err := env.FS.Size(path)
	if err != nil {
		t.Fatal(err)
	}
	return dfs.Split{Path: path, Offset: 0, Length: sz}
}

// runChain drives the map-side chain the way a scan does: rows are
// packed into batches of at most vec.DefaultSize (typed columns when
// kinds is given, datum mode otherwise), pushed through ops, and the
// rows reaching the sink are collected after close.
func runChain(t *testing.T, env *Env, ops []MapOp, kinds []types.Kind, rows []types.Row) ([]types.Row, error) {
	t.Helper()
	var got []types.Row
	c, err := buildChain(env, ops, func(b *vec.Batch) error {
		rows := vec.Materialize(b)
		for i := 0; i < b.N; i++ {
			got = append(got, rows.Row(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(rows); lo += vec.DefaultSize {
		chunk := rows[lo:min(lo+vec.DefaultSize, len(rows))]
		b := vec.NewBatch(len(chunk[0]), vec.DefaultSize)
		for ci, v := range b.Cols {
			kind := vec.KindAny
			if kinds != nil {
				kind = kinds[ci]
			}
			v.Reset(kind, vec.DefaultSize)
			for i, r := range chunk {
				v.SetDatum(i, r[ci])
			}
		}
		b.N = len(chunk)
		if err := c.process(b); err != nil {
			return nil, err
		}
	}
	return got, c.close()
}

func intRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i + 1)), types.String("v")}
	}
	return rows
}

var intStrKinds = []types.Kind{types.KindInt, types.KindString}

func TestChainFilterSelect(t *testing.T) {
	ops := []MapOp{
		&FilterOp{Cond: &Cmp{Op: CmpGT, L: col(0), R: iLit(2)}},
		&SelectOp{Exprs: []Expr{&BinOp{OpMul, col(0), iLit(10)}, col(1)}},
	}
	// 1024 and 1025 rows: a full batch, and a second batch of one row.
	for _, n := range []int{1, 5, vec.DefaultSize, vec.DefaultSize + 1} {
		for _, kinds := range [][]types.Kind{intStrKinds, nil} {
			got, err := runChain(t, testEnv(t), ops, kinds, intRows(n))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != max(n-2, 0) {
				t.Fatalf("%d rows in (kinds %v): %d rows out, want %d", n, kinds, len(got), max(n-2, 0))
			}
			for i, r := range got {
				if r[0] != types.Int(int64(i+3)*10) || r[1] != types.String("v") {
					t.Fatalf("%d rows in: row %d = %v", n, i, r)
				}
			}
		}
	}
}

func TestChainLimit(t *testing.T) {
	cases := []struct{ limit, rows, want int }{
		{2, 10, 2}, // cut inside the first batch
		{vec.DefaultSize, 2 * vec.DefaultSize, vec.DefaultSize},             // cut on the boundary
		{vec.DefaultSize + 476, 3 * vec.DefaultSize, vec.DefaultSize + 476}, // across a boundary, then a batch dropped whole
		{50, 7, 7}, // never reached
		{0, 7, 0},
	}
	for _, c := range cases {
		got, err := runChain(t, testEnv(t), []MapOp{&LimitOp{N: c.limit}}, intStrKinds, intRows(c.rows))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Errorf("limit %d over %d rows let %d through, want %d", c.limit, c.rows, len(got), c.want)
		}
		for i, r := range got {
			if r[0].Int() != int64(i+1) {
				t.Fatalf("limit %d: row %d is %v, not the input's row %d", c.limit, i, r, i)
			}
		}
	}
}

func TestGroupByPartialFlushAndMerge(t *testing.T) {
	op := &GroupByPartialOp{
		Keys:       []Expr{col(0)},
		Aggs:       []AggSpec{{Kind: AggSum, Arg: col(1)}, {Kind: AggCountStar}},
		MaxEntries: 2, // the table fills, and flushes, in the middle of the batch
	}
	data := []struct {
		k string
		v int64
	}{{"a", 1}, {"b", 2}, {"c", 3}, {"a", 4}, {"b", 5}, {"a", 6}}
	rows := make([]types.Row, len(data))
	for i, d := range data {
		rows[i] = types.Row{types.String(d.k), types.Int(d.v)}
	}
	got, err := runChain(t, testEnv(t), []MapOp{op}, []types.Kind{types.KindString, types.KindInt}, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Each flush emits its groups in key order: {a,b} after row 2,
	// {a,c} after row 4, {a,b} after row 6, nothing left at close.
	want := []types.Row{
		{types.String("a"), types.Int(1), types.Int(1)},
		{types.String("b"), types.Int(2), types.Int(1)},
		{types.String("a"), types.Int(4), types.Int(1)},
		{types.String("c"), types.Int(3), types.Int(1)},
		{types.String("a"), types.Int(6), types.Int(1)},
		{types.String("b"), types.Int(5), types.Int(1)},
	}
	if len(got) != len(want) {
		t.Fatalf("partials %v, want %v", got, want)
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("partial %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	// Merging the partials per key must give the totals.
	totals, counts := map[string]int64{}, map[string]int64{}
	for _, r := range got {
		totals[r[0].Str()] += r[1].Int()
		counts[r[0].Str()] += r[2].Int()
	}
	if totals["a"] != 11 || totals["b"] != 7 || totals["c"] != 3 {
		t.Errorf("partial sums %v", totals)
	}
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Errorf("partial counts %v", counts)
	}
}

// TestGroupByPartialAcrossBatches: groups survive batch boundaries (no
// flush between batches below MaxEntries) and come out once, at close.
func TestGroupByPartialAcrossBatches(t *testing.T) {
	op := &GroupByPartialOp{
		Keys: []Expr{&BinOp{OpMod, col(0), iLit(3)}},
		Aggs: []AggSpec{{Kind: AggSum, Arg: col(0)}, {Kind: AggCount, Arg: col(1)}},
	}
	n := 2*vec.DefaultSize + 1
	got, err := runChain(t, testEnv(t), []MapOp{op}, intStrKinds, intRows(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d groups, want 3: %v", len(got), got)
	}
	var sum, count int64
	for g, r := range got {
		if r[0].Int() != int64(g) {
			t.Errorf("group %d has key %v", g, r[0])
		}
		sum += r[1].Int()
		count += r[2].Int()
	}
	if want := int64(n) * int64(n+1) / 2; sum != want || count != int64(n) {
		t.Errorf("sum %d count %d, want %d and %d", sum, count, want, n)
	}
}

func TestMapJoinInnerAndOuter(t *testing.T) {
	env := testEnv(t)
	small := writeTable(t, env, "/dim", types.NewSchema(
		types.Col("id", types.KindInt), types.Col("name", types.KindString)),
		[]types.Row{
			{types.Int(1), types.String("one")},
			{types.Int(2), types.String("two")},
			{types.Null(), types.String("nobody")}, // a NULL build key joins nothing
			{types.Int(2), types.String("deux")},
		})
	probe := []types.Row{
		{types.Int(1), types.String("p1")},
		{types.Int(2), types.String("p2")},
		{types.Int(3), types.String("p3")},
		{types.Null(), types.String("pnull")}, // nor does a NULL probe key
	}
	run := func(outer bool) []string {
		op := &MapJoinOp{Small: small, ProbeKeys: []Expr{col(0)}, BuildKeys: []Expr{col(0)}, Outer: outer}
		got, err := runChain(t, env, []MapOp{op}, intStrKinds, probe)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(got))
		for i, r := range got {
			out[i] = r.Text('|')
		}
		return out
	}
	wantInner := []string{`1|p1|1|one`, `2|p2|2|two`, `2|p2|2|deux`}
	if got := run(false); !reflect.DeepEqual(got, wantInner) {
		t.Errorf("inner join = %q, want %q", got, wantInner)
	}
	wantOuter := append(append([]string(nil), wantInner...), `3|p3|\N|\N`, `\N|pnull|\N|\N`)
	if got := run(true); !reflect.DeepEqual(got, wantOuter) {
		t.Errorf("outer join = %q, want %q", got, wantOuter)
	}
}

// TestMapJoinFanOutAcrossOutputBatches: one probe batch whose matches
// overflow the output batch flushes mid-probe and loses nothing.
func TestMapJoinFanOutAcrossOutputBatches(t *testing.T) {
	env := testEnv(t)
	dim := make([]types.Row, 3)
	for i := range dim {
		dim[i] = types.Row{types.Int(7), types.String(fmt.Sprint("m", i))}
	}
	small := writeTable(t, env, "/fan", types.NewSchema(
		types.Col("id", types.KindInt), types.Col("name", types.KindString)), dim)
	probe := make([]types.Row, vec.DefaultSize)
	for i := range probe {
		probe[i] = types.Row{types.Int(7), types.String(fmt.Sprint("p", i))}
	}
	op := &MapJoinOp{Small: small, ProbeKeys: []Expr{col(0)}, BuildKeys: []Expr{col(0)}}
	got, err := runChain(t, env, []MapOp{op}, intStrKinds, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*vec.DefaultSize {
		t.Fatalf("join produced %d rows, want %d", len(got), 3*vec.DefaultSize)
	}
	for i, r := range got {
		if r[1].Str() != fmt.Sprint("p", i/3) || r[3].Str() != fmt.Sprint("m", i%3) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestRunMapTaskShuffleEmission(t *testing.T) {
	env := testEnv(t)
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	in := writeTable(t, env, "/src", schema, []types.Row{
		{types.String("x"), types.Int(1)},
		{types.String("y"), types.Int(2)},
		{types.String("x"), types.Int(3)},
	})
	stage := &Stage{
		ID: "s1",
		Maps: []MapWork{{
			Input:  in,
			Ops:    []MapOp{&FilterOp{Cond: &Cmp{Op: CmpGE, L: col(1), R: iLit(2)}}},
			Keys:   []Expr{col(0)},
			Values: []Expr{col(1)},
		}},
		Shuffle: &ShuffleSpec{NumReducers: 2},
		Reduce: &ReduceWork{
			KeyKinds: []types.Kind{types.KindString},
			Op:       &ExtractReduce{ValueWidth: 1},
		},
		Collect: true,
	}
	if err := stage.Validate(); err != nil {
		t.Fatal(err)
	}
	var pairs [][2][]byte
	err := RunMapTask(env, EngineConf{}, stage, 0, wholeSplit(t, env, "/src"),
		func(k, v []byte) error {
			pairs = append(pairs, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
			return nil
		}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("emitted %d pairs, want 2 (filter drops v=1)", len(pairs))
	}
	// Feed the pairs into a reduce driver and check round trip.
	var out []types.Row
	rd, err := NewReduceDriver(env, stage.Reduce, func(r types.Row) error {
		out = append(out, r)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := rd.Feed(p[0], [][]byte{p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("reduce emitted %d rows", len(out))
	}
}

func TestReduceDriverGroupBy(t *testing.T) {
	env := testEnv(t)
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindString},
		Op:       &GroupByReduce{Aggs: []AggSpec{{Kind: AggSum, Arg: col(0)}, {Kind: AggCountStar}}},
	}
	var out []types.Row
	rd, err := NewReduceDriver(env, work, func(r types.Row) error {
		out = append(out, r)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := types.AppendKeyDatum(nil, types.String("g"), false)
	// Two partial rows: (sum=5,count=2) and (sum=3,count=1).
	v1 := append([]byte{0}, types.EncodeRow(nil, types.Row{types.Int(5), types.Int(2)})...)
	v2 := append([]byte{0}, types.EncodeRow(nil, types.Row{types.Int(3), types.Int(1)})...)
	if err := rd.Feed(key, [][]byte{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("groupby emitted %d rows", len(out))
	}
	if out[0][0].Str() != "g" || out[0][1].Int() != 8 || out[0][2].Int() != 3 {
		t.Errorf("groupby row %v", out[0])
	}
}

func TestReduceDriverJoin(t *testing.T) {
	env := testEnv(t)
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op: &JoinReduce{
			TagCount:    2,
			ValueWidths: []int{2, 1},
			JoinTypes:   []JoinType{JoinLeftOuter},
		},
	}
	var out []types.Row
	rd, err := NewReduceDriver(env, work, func(r types.Row) error {
		out = append(out, r)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := types.AppendKeyDatum(nil, types.Int(7), false)
	left1 := append([]byte{0}, types.EncodeRow(nil, types.Row{types.String("l1"), types.Int(10)})...)
	left2 := append([]byte{0}, types.EncodeRow(nil, types.Row{types.String("l2"), types.Int(20)})...)
	right := append([]byte{1}, types.EncodeRow(nil, types.Row{types.String("r")})...)
	if err := rd.Feed(key, [][]byte{left1, right, left2}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("join emitted %d rows, want 2", len(out))
	}
	// Left outer with missing right bucket.
	out = nil
	key2 := types.AppendKeyDatum(nil, types.Int(8), false)
	if err := rd.Feed(key2, [][]byte{left1}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0][2].IsNull() {
		t.Errorf("left outer miss produced %v", out)
	}
	// Inner with missing left bucket produces nothing.
	out = nil
	key3 := types.AppendKeyDatum(nil, types.Int(9), false)
	if err := rd.Feed(key3, [][]byte{right}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("join with empty left emitted %v", out)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceDriverLimit(t *testing.T) {
	env := testEnv(t)
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op:       &ExtractReduce{ValueWidth: 1},
		Limit:    2,
	}
	n := 0
	rd, err := NewReduceDriver(env, work, func(types.Row) error { n++; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := types.AppendKeyDatum(nil, types.Int(int64(i)), false)
		val := append([]byte{0}, types.EncodeRow(nil, types.Row{types.Int(int64(i))})...)
		if err := rd.Feed(key, [][]byte{val}); err != nil {
			t.Fatal(err)
		}
		if rd.LimitReached() {
			break
		}
	}
	if n != 2 {
		t.Errorf("limit emitted %d rows", n)
	}
	if !rd.LimitReached() {
		t.Error("LimitReached should be true")
	}
}

func TestPartitionForKeyPrefix(t *testing.T) {
	// Rows with the same first column but different second column must
	// land on the same reducer when PartitionKeys=1.
	k1 := types.EncodeKey(nil, []types.Datum{types.String("grp"), types.Int(1)}, nil)
	k2 := types.EncodeKey(nil, []types.Datum{types.String("grp"), types.Int(999)}, nil)
	p1 := PartitionForKey(k1, 1, 2, 16)
	p2 := PartitionForKey(k2, 1, 2, 16)
	if p1 != p2 {
		t.Errorf("prefix partitioning split a group: %d vs %d", p1, p2)
	}
	// Different first columns should usually differ (spot check).
	k3 := types.EncodeKey(nil, []types.Datum{types.String("other"), types.Int(1)}, nil)
	if PartitionForKey(k1, 1, 2, 1024) == PartitionForKey(k3, 1, 2, 1024) {
		t.Log("hash collision on 1024 buckets (acceptable but unusual)")
	}
	// Full-key partitioning may differ.
	if PartitionForKey(k1, 0, 2, 64) < 0 {
		t.Error("partition must be non-negative")
	}
	// Descending string keys keep prefix parsing working.
	kd := types.EncodeKey(nil, []types.Datum{types.String("grp"), types.Int(5)}, []bool{true, false})
	kd2 := types.EncodeKey(nil, []types.Datum{types.String("grp"), types.Int(6)}, []bool{true, false})
	if PartitionForKey(kd, 1, 2, 32) != PartitionForKey(kd2, 1, 2, 32) {
		t.Error("descending prefix partitioning split a group")
	}
}

func TestStageValidate(t *testing.T) {
	if err := (&Stage{ID: "x"}).Validate(); err == nil {
		t.Error("empty stage should fail validation")
	}
	st := &Stage{
		ID:   "y",
		Maps: []MapWork{{Input: TableInput{Paths: []string{"/p"}}, Keys: []Expr{col(0)}}},
	}
	if err := st.Validate(); err == nil {
		t.Error("keys without shuffle should fail")
	}
	join := func(tags int) *Stage {
		st := &Stage{
			ID:      "j",
			Shuffle: &ShuffleSpec{},
			Reduce:  &ReduceWork{Op: &JoinReduce{TagCount: tags, ValueWidths: make([]int, tags)}},
			Collect: true,
		}
		for i := 0; i < tags; i++ {
			st.Maps = append(st.Maps, MapWork{Input: TableInput{Paths: []string{"/p"}}, Tag: i, Keys: []Expr{col(0)}})
		}
		return st
	}
	if err := join(2).Validate(); err != nil {
		t.Errorf("two-tag join: %v", err)
	}
	if err := join(1).Validate(); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("one-tag join: %v", err)
	}
}

func TestReduceDriverErrorPaths(t *testing.T) {
	env := testEnv(t)
	// Join with an out-of-range tag.
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op:       &JoinReduce{TagCount: 2, ValueWidths: []int{1, 1}},
	}
	rd, err := NewReduceDriver(env, work, func(types.Row) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := types.AppendKeyDatum(nil, types.Int(1), false)
	badTag := append([]byte{9}, types.EncodeRow(nil, types.Row{types.Int(1)})...)
	if err := rd.Feed(key, [][]byte{badTag}); err == nil {
		t.Error("out-of-range join tag should fail")
	}
	// Wrong row width for the tag.
	wide := append([]byte{0}, types.EncodeRow(nil, types.Row{types.Int(1), types.Int(2)})...)
	if err := rd.Feed(key, [][]byte{wide}); err == nil {
		t.Error("wrong join row width should fail")
	}
	// Empty shuffle value.
	if err := rd.Feed(key, [][]byte{{}}); err == nil {
		t.Error("empty shuffle value should fail")
	}
	// Partial-agg row too narrow.
	gw := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op: &GroupByReduce{Aggs: []AggSpec{
			{Kind: AggAvg, Arg: col(0)}, // width 2
		}},
	}
	gd, err := NewReduceDriver(env, gw, func(types.Row) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	narrow := append([]byte{0}, types.EncodeRow(nil, types.Row{types.Int(1)})...)
	if err := gd.Feed(key, [][]byte{narrow}); err == nil {
		t.Error("narrow partial row should fail")
	}
	// Complete-mode width mismatch.
	cw := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op:       &GroupByReduce{Aggs: []AggSpec{{Kind: AggSum, Arg: col(0)}}, Complete: true},
	}
	cd, err := NewReduceDriver(env, cw, func(types.Row) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cd.Feed(key, [][]byte{wide}); err == nil {
		t.Error("complete-mode width mismatch should fail")
	}
	// Corrupt key bytes.
	if err := rd.Feed([]byte{0x77}, [][]byte{}); err == nil {
		t.Error("corrupt key should fail")
	}
}

func TestBuildChainUnknownOp(t *testing.T) {
	type fakeOp struct{ MapOp }
	if _, err := runChain(t, testEnv(t), []MapOp{fakeOp{}}, nil, nil); err == nil {
		t.Error("unknown op should fail chain building")
	}
}

// TestReducePostChainRejectsOtherOps: the reduce side runs filters and
// projections only; anything else in a Post chain is a planner bug and
// fails when the driver is built, not silently at run time.
func TestReducePostChainRejectsOtherOps(t *testing.T) {
	sink := func(types.Row) error { return nil }
	for _, op := range []MapOp{&LimitOp{N: 1}, &GroupByPartialOp{}, &MapJoinOp{}} {
		work := &ReduceWork{
			KeyKinds: []types.Kind{types.KindInt},
			Op:       &ExtractReduce{ValueWidth: 1},
			Post:     []MapOp{&FilterOp{Cond: &Cmp{Op: CmpGT, L: col(0), R: iLit(0)}}, op},
		}
		if _, err := NewReduceDriver(testEnv(t), work, sink, nil); err == nil {
			t.Errorf("%T in a reduce post chain should fail", op)
		}
	}
}

// TestReducePostChainFilterSelect: HAVING then projection, row at a time.
func TestReducePostChainFilterSelect(t *testing.T) {
	work := &ReduceWork{
		KeyKinds: []types.Kind{types.KindInt},
		Op:       &ExtractReduce{ValueWidth: 1},
		Post: []MapOp{
			&FilterOp{Cond: &Cmp{Op: CmpGE, L: col(0), R: iLit(2)}},
			&SelectOp{Exprs: []Expr{&BinOp{OpMul, col(0), iLit(10)}}},
		},
	}
	var out []types.Row
	rd, err := NewReduceDriver(testEnv(t), work, func(r types.Row) error {
		out = append(out, r)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []types.Datum{types.Int(1), types.Int(2), types.Null(), types.Int(3)} {
		key := types.AppendKeyDatum(nil, types.Int(0), false)
		val := append([]byte{0}, types.EncodeRow(nil, types.Row{v})...)
		if err := rd.Feed(key, [][]byte{val}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0] != types.Int(20) || out[1][0] != types.Int(30) {
		t.Errorf("post chain produced %v", out)
	}
}

func TestMapJoinMissingSmallTable(t *testing.T) {
	op := &MapJoinOp{
		Small:     TableInput{Paths: []string{"/missing"}, Format: storage.FormatText, Schema: types.NewSchema(types.Col("a", types.KindInt))},
		ProbeKeys: []Expr{col(0)},
		BuildKeys: []Expr{col(0)},
	}
	if _, err := runChain(t, testEnv(t), []MapOp{op}, nil, nil); err == nil {
		t.Error("missing small table should fail")
	}
}
