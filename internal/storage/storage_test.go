package storage

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.KindInt),
		types.Col("name", types.KindString),
		types.Col("price", types.KindFloat),
		types.Col("ship", types.KindDate),
		types.Col("flag", types.KindBool),
	)
}

func testRows(n int) []types.Row {
	r := rand.New(rand.NewSource(11))
	names := []string{"widget", "gadget", "sprocket", "gizmo"}
	rows := make([]types.Row, n)
	for i := range rows {
		var name types.Datum
		if r.Intn(20) == 0 {
			name = types.Null()
		} else {
			name = types.String(names[r.Intn(len(names))])
		}
		rows[i] = types.Row{
			types.Int(int64(i)),
			name,
			types.Float(float64(r.Intn(10000)) / 100),
			types.Date(int64(9000 + r.Intn(1000))),
			types.Bool(r.Intn(2) == 1),
		}
	}
	return rows
}

func newFS() *dfs.FileSystem {
	return dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n1", "n2", "n3"}})
}

func writeRows(t testing.TB, fs *dfs.FileSystem, path string, f Format, schema *types.Schema, rows []types.Row) {
	t.Helper()
	w, err := CreateTableFile(fs, path, f, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if !a[i].IsNull() && types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func TestRoundTripAllFormats(t *testing.T) {
	schema := testSchema()
	rows := testRows(5000)
	for _, f := range []Format{FormatText, FormatSequence, FormatORC} {
		t.Run(f.String(), func(t *testing.T) {
			fs := newFS()
			path := "/t/" + f.String()
			writeRows(t, fs, path, f, schema, rows)
			got, err := ReadAll(fs, path, f, schema)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(rows) {
				t.Fatalf("read %d rows, want %d", len(got), len(rows))
			}
			for i := range rows {
				if !rowsEqual(got[i], rows[i]) {
					t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
				}
			}
		})
	}
}

func TestSplitsCoverExactlyOnce(t *testing.T) {
	schema := testSchema()
	rows := testRows(8000)
	for _, f := range []Format{FormatText, FormatSequence, FormatORC} {
		t.Run(f.String(), func(t *testing.T) {
			fs := newFS()
			path := "/split/" + f.String()
			writeRows(t, fs, path, f, schema, rows)
			splits, err := fs.Splits(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(splits) < 2 {
				t.Fatalf("want multiple splits, got %d", len(splits))
			}
			seen := map[int64]int{}
			total := 0
			for _, sp := range splits {
				rd, err := OpenSplit(fs, sp, f, schema, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for {
					row, err := rd.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					seen[row[0].Int()]++
					total++
				}
			}
			if total != len(rows) {
				t.Fatalf("splits yielded %d rows, want %d", total, len(rows))
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("row %d read %d times", id, c)
				}
			}
		})
	}
}

func TestORCProjectionOnlyMaterializesRequested(t *testing.T) {
	schema := testSchema()
	rows := testRows(3000)
	fs := newFS()
	writeRows(t, fs, "/proj", FormatORC, schema, rows)
	sz, _ := fs.Size("/proj")
	rd, err := OpenSplit(fs, dfs.Split{Path: "/proj", Offset: 0, Length: sz},
		FormatORC, schema, []int{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].IsNull() || row[2].IsNull() {
			t.Fatal("projected columns are null")
		}
		if !row[1].IsNull() || !row[3].IsNull() {
			t.Fatal("non-projected columns should be null")
		}
		n++
	}
	if n != len(rows) {
		t.Fatalf("projection read %d rows, want %d", n, len(rows))
	}
}

func TestORCProjectionReadsFewerBytes(t *testing.T) {
	schema := testSchema()
	rows := testRows(6000)
	fs := newFS()
	writeRows(t, fs, "/bytes", FormatORC, schema, rows)
	sz, _ := fs.Size("/bytes")
	read := func(proj []int) int64 {
		rd, err := OpenSplit(fs, dfs.Split{Path: "/bytes", Offset: 0, Length: sz},
			FormatORC, schema, proj, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return rd.(PhysicalReader).PhysicalBytes()
	}
	all := read(nil)
	one := read([]int{0})
	if one*2 >= all {
		t.Errorf("single-column read %d bytes vs %d for all; projection ineffective", one, all)
	}
}

func TestORCPredicateSkipsStripes(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.KindInt))
	fs := newFS()
	w, err := fs.CreateOverwrite("/pred")
	if err != nil {
		t.Fatal(err)
	}
	ow := newORCWriter(w, schema, ORCOptions{StripeRows: 100})
	// Monotonic keys: stripes have disjoint [min,max] ranges.
	for i := 0; i < 1000; i++ {
		if err := ow.Write(types.Row{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	sz, _ := fs.Size("/pred")
	pred := &Predicate{Column: 0, Op: PredGE, Value: types.Int(900)}
	rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/pred", Offset: 0, Length: sz},
		FormatORC, schema, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(schema.Len(), vec.DefaultSize)
	n := 0
	for {
		if err := rd.NextBatch(b); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n += b.N
	}
	osr := rd.(*orcSplitReader)
	if osr.StripesSkipped != 9 {
		t.Errorf("skipped %d stripes, want 9", osr.StripesSkipped)
	}
	if n != 100 {
		t.Errorf("predicate read %d rows, want 100 (one stripe)", n)
	}
}

func TestORCSmallerThanTextForRepetitiveData(t *testing.T) {
	schema := types.NewSchema(
		types.Col("status", types.KindString),
		types.Col("qty", types.KindInt),
	)
	rows := make([]types.Row, 20000)
	for i := range rows {
		rows[i] = types.Row{types.String([]string{"OK", "PENDING", "FAILED"}[i%3]), types.Int(int64(i % 10))}
	}
	fsT, fsO := newFS(), newFS()
	writeRows(t, fsT, "/cmp", FormatText, schema, rows)
	writeRows(t, fsO, "/cmp", FormatORC, schema, rows)
	tsz, _ := fsT.Size("/cmp")
	osz, _ := fsO.Size("/cmp")
	if osz*3 > tsz {
		t.Errorf("ORC %d bytes not much smaller than text %d bytes", osz, tsz)
	}
}

func TestTextBoundaryRule(t *testing.T) {
	// Force a split boundary mid-line and verify the line is read by
	// exactly the split containing its first byte.
	schema := types.NewSchema(types.Col("v", types.KindString))
	fs := dfs.New(dfs.Config{BlockSize: 37, Nodes: []string{"a"}})
	var rows []types.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.String(fmt.Sprintf("line-%04d", i))})
	}
	writeRows(t, fs, "/b", FormatText, schema, rows)
	splits, _ := fs.Splits("/b", 0)
	if len(splits) < 3 {
		t.Fatalf("want many tiny splits, got %d", len(splits))
	}
	var got []string
	for _, sp := range splits {
		rd, err := OpenSplit(fs, sp, FormatText, schema, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			row, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, row[0].Str())
		}
	}
	if len(got) != 100 {
		t.Fatalf("got %d lines, want 100", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("line-%04d", i) {
			t.Fatalf("line %d = %q out of order", i, s)
		}
	}
}

func TestEmptyFiles(t *testing.T) {
	schema := testSchema()
	for _, f := range []Format{FormatText, FormatSequence, FormatORC} {
		fs := newFS()
		writeRows(t, fs, "/empty", f, schema, nil)
		got, err := ReadAll(fs, "/empty", f, schema)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if len(got) != 0 {
			t.Errorf("%v: empty file yielded %d rows", f, len(got))
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"textfile", "sequencefile", "orc"} {
		if _, err := ParseFormat(s); err != nil {
			t.Errorf("ParseFormat(%q): %v", s, err)
		}
	}
	if _, err := ParseFormat("parquet"); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestPredicateMatchesRange(t *testing.T) {
	mk := func(op PredicateOp, v int64) *Predicate {
		return &Predicate{Op: op, Value: types.Int(v)}
	}
	min, max := types.Int(10), types.Int(20)
	cases := []struct {
		p    *Predicate
		want bool
	}{
		{mk(PredEQ, 15), true},
		{mk(PredEQ, 5), false},
		{mk(PredEQ, 25), false},
		{mk(PredLT, 10), false},
		{mk(PredLT, 11), true},
		{mk(PredLE, 10), true},
		{mk(PredGT, 20), false},
		{mk(PredGT, 19), true},
		{mk(PredGE, 20), true},
		{mk(PredGE, 21), false},
		{nil, true},
	}
	for i, c := range cases {
		if got := c.p.matchesRange(min, max); got != c.want {
			t.Errorf("case %d: matchesRange = %v, want %v", i, got, c.want)
		}
	}
}

// TestSequenceFileWithUndeclaredKinds: the same property end to end —
// a Sequence file holds whatever datums were written, whatever its
// table schema says, and the batch scan must return them unchanged.
func TestSequenceFileWithUndeclaredKinds(t *testing.T) {
	fs := newFS()
	schema := types.NewSchema(types.Col("k", types.KindInt), types.Col("v", types.KindString))
	rows := []types.Row{
		{types.Int(1), types.String("x")},
		{types.Float(2.5), types.Int(7)},
		{types.Null(), types.Date(9000)},
	}
	writeRows(t, fs, "/mixed.seq", FormatSequence, schema, rows)
	sz, err := fs.Size("/mixed.seq")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/mixed.seq", Length: sz}, FormatSequence, schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(schema.Len(), vec.DefaultSize)
	if err := rd.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	if b.N != len(rows) {
		t.Fatalf("batch holds %d rows, want %d", b.N, len(rows))
	}
	for i, want := range rows {
		for c, got := range b.Row(i, nil) {
			if got != want[c] {
				t.Errorf("row %d column %d = %#v, want %#v", i, c, got, want[c])
			}
		}
	}
}
