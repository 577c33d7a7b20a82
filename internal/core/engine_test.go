package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/mrengine"
	"hivempi/internal/storage"
	"hivempi/internal/types"
)

func testEnv() *exec.Env {
	return &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 4 << 10,
		Nodes:     []string{"slave1", "slave2", "slave3"},
	})}
}

func testConf(t *testing.T) exec.EngineConf {
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"slave1", "slave2", "slave3"}
	conf.SlotsPerNode = 2
	return conf
}

func writeTable(t *testing.T, env *exec.Env, path string, schema *types.Schema,
	rows []types.Row) exec.TableInput {
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
	return exec.TableInput{Table: path, Paths: []string{path},
		Format: storage.FormatText, Schema: schema}
}

func sortRows(rows []types.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a := types.EncodeKey(nil, rows[i], nil)
		b := types.EncodeKey(nil, rows[j], nil)
		return string(a) < string(b)
	})
}

func rowsText(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Text('|')
	}
	return out
}

// runBoth executes the stage on both engines and requires identical
// result sets (the plug-in property: same plan, same answer).
func runBoth(t *testing.T, mkStage func() *exec.Stage, env *exec.Env, conf exec.EngineConf) []types.Row {
	t.Helper()
	engines := []exec.Engine{New(), mrengine.New()}
	var results [][]types.Row
	for _, eng := range engines {
		res, err := eng.Run(env, mkStage(), conf)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		rows := res.Rows
		sortRows(rows)
		results = append(results, rows)
		if res.Trace == nil || res.Trace.Engine != eng.Name() {
			t.Errorf("%s: trace missing or mislabeled", eng.Name())
		}
	}
	a, b := rowsText(results[0]), rowsText(results[1])
	if len(a) != len(b) {
		t.Fatalf("datampi %d rows, hadoop %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\n  datampi: %s\n  hadoop:  %s", i, a[i], b[i])
		}
	}
	return results[0]
}

func groupByStage(in exec.TableInput) *exec.Stage {
	return &exec.Stage{
		ID: "gb",
		Maps: []exec.MapWork{{
			Input: in,
			Ops: []exec.MapOp{&exec.GroupByPartialOp{
				Keys: []exec.Expr{&exec.ColRef{Idx: 0}},
				Aggs: []exec.AggSpec{
					{Kind: exec.AggSum, Arg: &exec.ColRef{Idx: 1}},
					{Kind: exec.AggCountStar},
				},
			}},
			Keys:   []exec.Expr{&exec.ColRef{Idx: 0}},
			Values: []exec.Expr{&exec.ColRef{Idx: 1}, &exec.ColRef{Idx: 2}},
		}},
		Shuffle: &exec.ShuffleSpec{NumReducers: 3},
		Reduce: &exec.ReduceWork{
			KeyKinds: []types.Kind{types.KindString},
			Op: &exec.GroupByReduce{Aggs: []exec.AggSpec{
				{Kind: exec.AggSum, Arg: &exec.ColRef{Idx: 1}},
				{Kind: exec.AggCountStar},
			}},
		},
		Collect: true,
	}
}

func TestEnginesAgreeOnGroupBy(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	var rows []types.Row
	want := map[string]int64{}
	counts := map[string]int64{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("ip-%d", i%37)
		v := int64(i % 101)
		rows = append(rows, types.Row{types.String(k), types.Int(v)})
		want[k] += v
		counts[k]++
	}
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	in := writeTable(t, env, "/gb/src", schema, rows)
	got := runBoth(t, func() *exec.Stage { return groupByStage(in) }, env, conf)
	if len(got) != 37 {
		t.Fatalf("got %d groups, want 37", len(got))
	}
	for _, r := range got {
		k := r[0].Str()
		if r[1].Int() != want[k] || r[2].Int() != counts[k] {
			t.Errorf("group %s = (%d,%d), want (%d,%d)",
				k, r[1].Int(), r[2].Int(), want[k], counts[k])
		}
	}
}

func TestEnginesAgreeOnJoin(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	left := make([]types.Row, 0, 500)
	right := make([]types.Row, 0, 200)
	for i := 0; i < 500; i++ {
		left = append(left, types.Row{types.Int(int64(i % 50)), types.String(fmt.Sprintf("L%d", i))})
	}
	for i := 0; i < 200; i++ {
		right = append(right, types.Row{types.Int(int64(i % 80)), types.Float(float64(i))})
	}
	ls := types.NewSchema(types.Col("k", types.KindInt), types.Col("lv", types.KindString))
	rs := types.NewSchema(types.Col("k", types.KindInt), types.Col("rv", types.KindFloat))
	lin := writeTable(t, env, "/j/left", ls, left)
	rin := writeTable(t, env, "/j/right", rs, right)
	mk := func() *exec.Stage {
		return &exec.Stage{
			ID: "join",
			Maps: []exec.MapWork{
				{
					Input:  lin,
					Tag:    0,
					Keys:   []exec.Expr{&exec.ColRef{Idx: 0}},
					Values: []exec.Expr{&exec.ColRef{Idx: 0}, &exec.ColRef{Idx: 1}},
				},
				{
					Input:  rin,
					Tag:    1,
					Keys:   []exec.Expr{&exec.ColRef{Idx: 0}},
					Values: []exec.Expr{&exec.ColRef{Idx: 1}},
				},
			},
			Shuffle: &exec.ShuffleSpec{NumReducers: 2},
			Reduce: &exec.ReduceWork{
				KeyKinds: []types.Kind{types.KindInt},
				Op: &exec.JoinReduce{
					TagCount:    2,
					ValueWidths: []int{2, 1},
					JoinTypes:   []exec.JoinType{exec.JoinInner},
				},
			},
			Collect: true,
		}
	}
	got := runBoth(t, mk, env, conf)
	// Expected inner join size: keys 0..49 on the left; right has keys
	// 0..79. Left key k appears 10 times, right key k appears 200/80
	// times (2 or 3: keys < 40 appear 3 times... compute directly).
	rightCount := map[int64]int{}
	for _, r := range right {
		rightCount[r[0].Int()]++
	}
	wantRows := 0
	for _, l := range left {
		wantRows += rightCount[l[0].Int()]
	}
	if len(got) != wantRows {
		t.Errorf("join produced %d rows, want %d", len(got), wantRows)
	}
}

func TestEnginesAgreeOnOrderByLimit(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.Int(int64((i * 7919) % 1000)), types.String(fmt.Sprintf("r%d", i))})
	}
	schema := types.NewSchema(types.Col("v", types.KindInt), types.Col("s", types.KindString))
	in := writeTable(t, env, "/ob/src", schema, rows)
	mk := func() *exec.Stage {
		return &exec.Stage{
			ID: "orderby",
			Maps: []exec.MapWork{{
				Input:  in,
				Keys:   []exec.Expr{&exec.ColRef{Idx: 0}},
				Values: []exec.Expr{&exec.ColRef{Idx: 0}, &exec.ColRef{Idx: 1}},
			}},
			Shuffle: &exec.ShuffleSpec{NumReducers: 1, SortDescs: []bool{true}},
			Reduce: &exec.ReduceWork{
				KeyKinds: []types.Kind{types.KindInt},
				KeyDescs: []bool{true},
				Op:       &exec.ExtractReduce{ValueWidth: 2},
				Limit:    5,
			},
			Collect:   true,
			LastStage: true,
		}
	}
	// Run each engine separately to check ordering (runBoth sorts).
	for _, eng := range []exec.Engine{New(), mrengine.New()} {
		res, err := eng.Run(env, mk(), conf)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("%s: limit produced %d rows", eng.Name(), len(res.Rows))
		}
		for i := 0; i < len(res.Rows)-1; i++ {
			if res.Rows[i][0].Int() < res.Rows[i+1][0].Int() {
				t.Errorf("%s: rows not descending at %d: %v then %v",
					eng.Name(), i, res.Rows[i], res.Rows[i+1])
			}
		}
		if res.Rows[0][0].Int() != 999 {
			t.Errorf("%s: top row %v, want key 999", eng.Name(), res.Rows[0])
		}
	}
}

func TestMapOnlyStageWithSink(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	var rows []types.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, types.Row{types.Int(int64(i)), types.String("x")})
	}
	schema := types.NewSchema(types.Col("v", types.KindInt), types.Col("s", types.KindString))
	in := writeTable(t, env, "/mo/src", schema, rows)
	outSchema := types.NewSchema(types.Col("v", types.KindInt))
	mk := func(dir string) *exec.Stage {
		return &exec.Stage{
			ID: "maponly",
			Maps: []exec.MapWork{{
				Input: in,
				Ops: []exec.MapOp{
					&exec.FilterOp{Cond: &exec.Cmp{Op: exec.CmpLT,
						L: &exec.ColRef{Idx: 0}, R: &exec.Const{D: types.Int(100)}}},
					&exec.SelectOp{Exprs: []exec.Expr{&exec.ColRef{Idx: 0}}},
				},
			}},
			Sink: &exec.FileSinkSpec{Dir: dir, Format: storage.FormatText, Schema: outSchema},
		}
	}
	for _, eng := range []exec.Engine{New(), mrengine.New()} {
		dir := "/out/" + eng.Name()
		res, err := eng.Run(env, mk(dir), conf)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		total := 0
		for _, p := range env.FS.List(dir) {
			rows, err := storage.ReadAll(env.FS, p, storage.FormatText, outSchema)
			if err != nil {
				t.Fatal(err)
			}
			total += len(rows)
		}
		if total != 100 {
			t.Errorf("%s: sink holds %d rows, want 100", eng.Name(), total)
		}
		if res.Trace.NumReds != 0 {
			t.Errorf("%s: map-only stage has %d reducers", eng.Name(), res.Trace.NumReds)
		}
	}
}

func TestEnhancedParallelismGeometry(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	conf.Parallelism = exec.ParallelismEnhanced
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.String(fmt.Sprintf("k%d", i%11)), types.Int(1)})
	}
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	in := writeTable(t, env, "/ep/src", schema, rows)
	res, err := New().Run(env, groupByStage(in), conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumReds != res.Trace.NumMaps {
		t.Errorf("enhanced: A=%d O=%d, want equal", res.Trace.NumReds, res.Trace.NumMaps)
	}
	// Last stage forces a single reducer.
	st := groupByStage(in)
	st.LastStage = true
	res2, err := New().Run(env, st, conf)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace.NumReds != 1 {
		t.Errorf("enhanced last stage: A=%d, want 1", res2.Trace.NumReds)
	}
}

func TestBlockingStyleProducesSameResults(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	conf.NonBlocking = false
	var rows []types.Row
	want := map[string]int64{}
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("k%d", i%13)
		rows = append(rows, types.Row{types.String(k), types.Int(int64(i))})
		want[k] += int64(i)
	}
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	in := writeTable(t, env, "/bl/src", schema, rows)
	res, err := New().Run(env, groupByStage(in), conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("blocking run got %d groups", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Str()] {
			t.Errorf("group %s sum %d want %d", r[0].Str(), r[1].Int(), want[r[0].Str()])
		}
	}
	if res.Trace.NonBlocking {
		t.Error("trace should record blocking style")
	}
}

// TestDataMPIWorkDescriptor verifies the serialized work flow of §IV-B:
// the engine uploads plan/conf/splits to the DFS, tasks deserialize
// their split assignment from it, and the launch command is recorded.
func TestDataMPIWorkDescriptor(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.String(fmt.Sprintf("k%d", i%5)), types.Int(1)})
	}
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	in := writeTable(t, env, "/wk/src", schema, rows)
	res, err := New().Run(env, groupByStage(in), conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d groups via deserialized splits, want 5", len(res.Rows))
	}
	cmd := res.Trace.LaunchCommand
	for _, want := range []string{"mpidrun", "-O ", "-A ", "DataMPIHiveApplication",
		"-plan", "-jobconf", "-split"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("launch command missing %q: %s", want, cmd)
		}
	}
	// Descriptor is cleaned up after the job.
	if left := env.FS.List("/tmp/datampi"); len(left) != 0 {
		t.Errorf("work descriptors leaked: %v", left)
	}
}
