package mrengine

import (
	"fmt"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/storage"
	"hivempi/internal/types"
)

func testEnv() *exec.Env {
	return &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 2 << 10,
		Nodes:     []string{"n1", "n2", "n3"},
	})}
}

func testConf(t *testing.T) exec.EngineConf {
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"n1", "n2", "n3"}
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

func TestEngineName(t *testing.T) {
	if New().Name() != "hadoop" {
		t.Errorf("Name() = %q", New().Name())
	}
}

func TestSplitGeometryDrivesTaskCount(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	schema := types.NewSchema(types.Col("v", types.KindInt))
	var rows []types.Row
	for i := 0; i < 4000; i++ {
		rows = append(rows, types.Row{types.Int(int64(i))})
	}
	in := writeTable(t, env, "/geom/src", schema, rows)
	stage := &exec.Stage{
		ID:      "geom",
		Maps:    []exec.MapWork{{Input: in, Keys: []exec.Expr{&exec.ColRef{Idx: 0}}, Values: []exec.Expr{&exec.ColRef{Idx: 0}}}},
		Shuffle: &exec.ShuffleSpec{NumReducers: 2},
		Reduce: &exec.ReduceWork{
			KeyKinds: []types.Kind{types.KindInt},
			Op:       &exec.ExtractReduce{ValueWidth: 1},
		},
		Collect: true,
	}
	res, err := New().Run(env, stage, conf)
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := env.FS.Size("/geom/src")
	wantMaps := int((sz + 2<<10 - 1) / (2 << 10))
	if res.Trace.NumMaps != wantMaps {
		t.Errorf("maps = %d, want %d (one per 2 KB block)", res.Trace.NumMaps, wantMaps)
	}
	if len(res.Rows) != 4000 {
		t.Errorf("collected %d rows", len(res.Rows))
	}
	// Map hosts assigned from split locality.
	for _, m := range res.Trace.Producers {
		if m.Host == "" || !strings.HasPrefix(m.Host, "n") {
			t.Errorf("map host %q not assigned from replicas", m.Host)
		}
		if !m.LocalRead {
			t.Error("map should read its local replica")
		}
	}
}

func TestReducerSizingByInputBytes(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	conf.BytesPerReducer = 4 << 10
	schema := types.NewSchema(types.Col("v", types.KindInt))
	var rows []types.Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.Int(int64(i))})
	}
	in := writeTable(t, env, "/rsz/src", schema, rows)
	stage := &exec.Stage{
		ID:      "rsz",
		Maps:    []exec.MapWork{{Input: in, Keys: []exec.Expr{&exec.ColRef{Idx: 0}}, Values: []exec.Expr{&exec.ColRef{Idx: 0}}}},
		Shuffle: &exec.ShuffleSpec{}, // auto-sized
		Reduce: &exec.ReduceWork{
			KeyKinds: []types.Kind{types.KindInt},
			Op:       &exec.ExtractReduce{ValueWidth: 1},
		},
		Collect: true,
	}
	res, err := New().Run(env, stage, conf)
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := env.FS.Size("/rsz/src")
	want := int(sz / (4 << 10))
	if want > conf.MaxSlots() {
		want = conf.MaxSlots()
	}
	if want < 1 {
		want = 1
	}
	if res.Trace.NumReds != want {
		t.Errorf("reducers = %d, want %d", res.Trace.NumReds, want)
	}
}

func TestSinkPartFilePerReducer(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	schema := types.NewSchema(types.Col("k", types.KindString), types.Col("v", types.KindInt))
	var rows []types.Row
	for i := 0; i < 600; i++ {
		rows = append(rows, types.Row{types.String(fmt.Sprintf("k%d", i%7)), types.Int(1)})
	}
	in := writeTable(t, env, "/sink/src", schema, rows)
	outSchema := types.NewSchema(types.Col("k", types.KindString), types.Col("n", types.KindInt))
	stage := &exec.Stage{
		ID: "sink",
		Maps: []exec.MapWork{{
			Input: in,
			Ops: []exec.MapOp{&exec.GroupByPartialOp{
				Keys: []exec.Expr{&exec.ColRef{Idx: 0}},
				Aggs: []exec.AggSpec{{Kind: exec.AggCountStar}},
			}},
			Keys:   []exec.Expr{&exec.ColRef{Idx: 0}},
			Values: []exec.Expr{&exec.ColRef{Idx: 1}},
		}},
		Shuffle: &exec.ShuffleSpec{NumReducers: 3},
		Reduce: &exec.ReduceWork{
			KeyKinds: []types.Kind{types.KindString},
			Op:       &exec.GroupByReduce{Aggs: []exec.AggSpec{{Kind: exec.AggCountStar}}},
		},
		Sink: &exec.FileSinkSpec{Dir: "/out", Format: storage.FormatText, Schema: outSchema},
	}
	res, err := New().Run(env, stage, conf)
	if err != nil {
		t.Fatal(err)
	}
	parts := env.FS.List("/out")
	if len(parts) != 3 {
		t.Fatalf("sink has %d part files, want 3 (one per reducer): %v", len(parts), parts)
	}
	total := 0
	for _, p := range parts {
		rs, err := storage.ReadAll(env.FS, p, storage.FormatText, outSchema)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs)
	}
	if total != 7 {
		t.Errorf("sink holds %d groups, want 7", total)
	}
	var wb int64
	for _, c := range res.Trace.Consumers {
		wb += c.WriteBytes
	}
	if wb == 0 {
		t.Error("consumer WriteBytes not recorded")
	}
}

func TestInvalidStageRejected(t *testing.T) {
	env := testEnv()
	conf := testConf(t)
	if _, err := New().Run(env, &exec.Stage{ID: "bad"}, conf); err == nil {
		t.Error("empty stage should fail validation")
	}
}
