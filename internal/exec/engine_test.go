package exec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/storage"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

func TestReducerCountStrategies(t *testing.T) {
	mkStage := func(nKeys int, last bool, hint int) *Stage {
		keys := make([]Expr, nKeys)
		for i := range keys {
			keys[i] = &ColRef{Idx: i}
		}
		return &Stage{
			ID:        "s",
			Maps:      []MapWork{{Keys: keys}},
			Shuffle:   &ShuffleSpec{NumReducers: hint},
			LastStage: last,
		}
	}
	conf := DefaultEngineConf() // 7 slaves x 4 slots = 28
	conf.BytesPerReducer = 1 << 20

	cases := []struct {
		name  string
		stage *Stage
		conf  func(EngineConf) EngineConf
		maps  int
		bytes int64
		want  int
	}{
		{"map-only", &Stage{Maps: []MapWork{{}}}, nil, 4, 1 << 30, 0},
		{"hint respected", mkStage(1, false, 5), nil, 4, 1 << 30, 5},
		{"auto by bytes", mkStage(1, false, 0), nil, 4, 10 << 20, 10},
		{"auto min 1", mkStage(1, false, 0), nil, 4, 10, 1},
		{"auto capped at slots", mkStage(1, false, 0), nil, 4, 1 << 30, 28},
		{"enhanced = maps", mkStage(1, false, 5), func(c EngineConf) EngineConf {
			c.Parallelism = ParallelismEnhanced
			return c
		}, 17, 1 << 30, 17},
		{"enhanced last stage = 1", mkStage(1, true, 5), func(c EngineConf) EngineConf {
			c.Parallelism = ParallelismEnhanced
			return c
		}, 17, 1 << 30, 1},
		{"global agg always 1", mkStage(0, false, 0), func(c EngineConf) EngineConf {
			c.Parallelism = ParallelismEnhanced
			return c
		}, 17, 1 << 30, 1},
	}
	for _, c := range cases {
		cf := conf
		if c.conf != nil {
			cf = c.conf(conf)
		}
		if got := ReducerCount(c.stage, cf, c.maps, c.bytes); got != c.want {
			t.Errorf("%s: ReducerCount = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSizingBytesPrefersRawEstimate(t *testing.T) {
	stage := &Stage{Maps: []MapWork{
		{RawInputBytes: 1000},
		{}, // no estimate: measured wins
	}}
	tasks := []MapTaskSpec{
		{MapIdx: 0, Split: dfs.Split{Length: 100}},
		{MapIdx: 0, Split: dfs.Split{Length: 100}},
		{MapIdx: 1, Split: dfs.Split{Length: 300}},
	}
	// Map 0: max(200 measured, 1000 raw) = 1000; map 1: 300.
	if got := SizingBytes(stage, tasks); got != 1300 {
		t.Errorf("SizingBytes = %d, want 1300", got)
	}
	// Measured above raw: measured wins.
	stage.Maps[0].RawInputBytes = 50
	if got := SizingBytes(stage, tasks); got != 500 {
		t.Errorf("SizingBytes = %d, want 500", got)
	}
}

func TestBuildTaskOutputSinkAndCollect(t *testing.T) {
	env := &Env{FS: dfs.New(dfs.Config{BlockSize: 1 << 10, Nodes: []string{"n"}})}
	schema := types.NewSchema(types.Col("v", types.KindInt))
	stage := &Stage{
		ID:      "o",
		Maps:    []MapWork{{}},
		Sink:    &FileSinkSpec{Dir: "/sinkdir", Format: storage.FormatText, Schema: schema},
		Collect: true,
	}
	var collected []types.Row
	out, err := buildTaskOutput(env, stage, 3, func(r types.Row) error {
		collected = append(collected, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := out.Write(types.Row{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if len(collected) != 5 {
		t.Errorf("collected %d rows", len(collected))
	}
	rows, err := storage.ReadAll(env.FS, "/sinkdir/part-00003", storage.FormatText, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("part file holds %d rows", len(rows))
	}
}

// TestMapOnlyTaskWritesAndCollects runs a map-only stage that writes a
// part file and collects: the collector gets the rows a plain RowSink
// gets, each its own (appending to one leaves its neighbour alone), and
// the part file holds the same rows. A nil RowSink on a stage without
// shuffle keys is no sink at all.
func TestMapOnlyTaskWritesAndCollects(t *testing.T) {
	env := testEnv(t)
	schema := types.NewSchema(types.Col("i", types.KindInt), types.Col("s", types.KindString),
		types.Col("f", types.KindFloat), types.Col("d", types.KindDate))
	var rows []types.Row
	for i := 0; i < 2500; i++ {
		row := types.Row{types.Int(int64(i)), types.String(fmt.Sprintf("s%d", i%13)),
			types.Float(float64(i) / 4), types.Date(int64(9000 + i%400))}
		if i%9 == 0 {
			row[1], row[2] = types.Null(), types.Null()
		}
		rows = append(rows, row)
	}
	in := writeTable(t, env, "/src", schema, rows)
	outSchema := types.NewSchema(types.Col("i10", types.KindInt), types.Col("s", types.KindString),
		types.Col("f", types.KindFloat), types.Col("d", types.KindDate))
	stage := &Stage{
		ID: "m",
		Maps: []MapWork{{Input: in, Ops: []MapOp{
			&FilterOp{Cond: &Cmp{Op: CmpGT, L: col(0), R: iLit(6)}},
			&SelectOp{Exprs: []Expr{&BinOp{OpMul, col(0), iLit(10)}, col(1), col(2), col(3)}},
		}}},
		Sink:    &FileSinkSpec{Dir: "/out", Format: storage.FormatORC, Schema: outSchema},
		Collect: true,
	}
	split := wholeSplit(t, env, "/src")

	var want []types.Row
	plain := RowSink(func(r types.Row) error { want = append(want, r); return nil })
	if err := RunMapTask(env, EngineConf{}, stage, 0, split, nil, plain, nil); err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	out, err := buildTaskOutput(env, stage, 0, func(r types.Row) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	var m trace.Task
	if err := RunMapTask(env, EngineConf{}, stage, 0, split, nil, out, &m); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := storage.ReadAll(env.FS, "/out/part-00000", storage.FormatORC, outSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2493 || m.OutputRecords != 2493 || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(written, want) {
		t.Fatalf("%d rows plain, %d collected, %d written, %d counted", len(want), len(got), len(written), m.OutputRecords)
	}
	keep := got[1].Clone()
	_ = append(got[0], types.Int(-1))
	if !reflect.DeepEqual(got[1], keep) {
		t.Errorf("appending to a collected row changed the next: %v, want %v", got[1], keep)
	}

	var none RowSink
	if err := RunMapTask(env, EngineConf{}, stage, 0, split, nil, none, nil); err == nil ||
		!strings.Contains(err.Error(), "neither shuffle nor sink") {
		t.Errorf("a nil RowSink: err %v", err)
	}
}

// TestShuffleKeyAndValueRoundTrip: the pair a map task emits decodes
// back, through the key and value codecs the reduce side uses, to the
// evaluated key columns (honouring the shuffle's sort directions) and
// the tagged value row.
func TestShuffleKeyAndValueRoundTrip(t *testing.T) {
	env := testEnv(t)
	schema := types.NewSchema(types.Col("i", types.KindInt),
		types.Col("s", types.KindString), types.Col("f", types.KindFloat))
	in := writeTable(t, env, "/kv", schema, []types.Row{
		{types.Int(7), types.String("x"), types.Float(1.5)},
		{types.Null(), types.String("y"), types.Null()},
	})
	stage := &Stage{
		ID: "kv",
		Maps: []MapWork{{
			Input:  in,
			Tag:    3,
			Keys:   []Expr{&ColRef{Idx: 0}, &ColRef{Idx: 1}},
			Values: []Expr{&ColRef{Idx: 2}},
		}},
		Shuffle: &ShuffleSpec{SortDescs: []bool{false, true}},
	}
	var keys, vals [][]byte
	var m trace.Task
	err := RunMapTask(env, EngineConf{}, stage, 0, wholeSplit(t, env, "/kv"),
		func(k, v []byte) error {
			// The task encodes the next pair over k and v.
			keys, vals = append(keys, bytes.Clone(k)), append(vals, bytes.Clone(v))
			return nil
		}, nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || m.InputRecords != 2 || m.OutputRecords != 2 || m.Batches != 1 ||
		m.OutputBytes != int64(len(keys[0])+len(vals[0])+len(keys[1])+len(vals[1])) {
		t.Fatalf("emitted %d pairs, task counters %+v", len(keys), m)
	}
	want := [][3]types.Datum{
		{types.Int(7), types.String("x"), types.Float(1.5)},
		{types.Null(), types.String("y"), types.Null()},
	}
	for i, w := range want {
		d0, n, err := types.DecodeKeyDatum(keys[i], types.KindInt, false)
		if err != nil || d0 != w[0] {
			t.Fatalf("pair %d key col0 = %v, %v", i, d0, err)
		}
		d1, _, err := types.DecodeKeyDatum(keys[i][n:], types.KindString, true)
		if err != nil || d1 != w[1] {
			t.Fatalf("pair %d key col1 = %v, %v", i, d1, err)
		}
		var vrow types.RowSlab
		_, err = vrow.AppendRow(vals[i][1:])
		vrow.Seal()
		if tag := vals[i][0]; err != nil || tag != 3 || len(vrow.Datums) != 1 || vrow.Datums[0] != w[2] {
			t.Fatalf("pair %d value round trip: tag=%d row=%v err=%v", i, tag, vrow.Datums, err)
		}
	}
}

func TestPlanMapTasksEmptyInputPlaceholder(t *testing.T) {
	env := &Env{FS: dfs.New(dfs.Config{BlockSize: 1 << 10, Nodes: []string{"n"}})}
	stage := &Stage{
		ID:   "empty",
		Maps: []MapWork{{Input: TableInput{Dir: "/does/not/exist"}}},
	}
	tasks, err := PlanMapTasks(env, stage, DefaultEngineConf())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Split.Path != "" {
		t.Errorf("placeholder task wrong: %+v", tasks)
	}
}
