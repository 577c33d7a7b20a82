package storage

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// bufCloser collects a writer's bytes in memory.
type bufCloser struct{ bytes.Buffer }

func (*bufCloser) Close() error { return nil }

// batchSchema is identitySchema plus a double column of edge values and
// a string column that is always NULL.
func batchSchema() *types.Schema {
	s := identitySchema()
	return types.NewSchema(append(s.Columns,
		types.Col("edge", types.KindFloat), types.Col("none", types.KindString))...)
}

// batchRows extends identityRows with the edge and none columns. The
// edge column starts -0.0, 0.0 and holds NaN mid-column; with inf set
// it starts with NaN and holds both infinities too.
func batchRows(n int, inf bool) []types.Row {
	edges := []types.Datum{types.Float(math.Copysign(0, -1)), types.Float(0), types.Float(math.NaN()),
		types.Null(), types.Float(-2.5)}
	if inf {
		edges = append(append([]types.Datum{types.Float(math.NaN())}, edges...),
			types.Float(math.Inf(1)), types.Float(math.Inf(-1)))
	}
	rows := identityRows(n, 42)
	for i := range rows {
		e := types.Float(float64(i%89) - 44)
		if i < len(edges) {
			e = edges[i]
		}
		rows[i] = append(rows[i], e, types.Null())
	}
	return rows
}

// toBatch loads rows into one batch, column ci in one of four forms
// chosen by (form + ci): typed, datum mode, typed then demoted, or (for
// a column the chunk holds only NULLs of) a KindNull vector.
func toBatch(schema *types.Schema, rows []types.Row, form int) *vec.Batch {
	b := vec.NewBatch(schema.Len(), len(rows))
	b.N = len(rows)
	for ci, v := range b.Cols {
		allNull := true
		for _, row := range rows {
			allNull = allNull && row[ci].IsNull()
		}
		kind := schema.Columns[ci].Type
		switch (form + ci) % 4 {
		case 1:
			kind = vec.KindAny
		case 3:
			if allNull {
				kind = types.KindNull
			}
		}
		v.Reset(kind, len(rows))
		for lane, row := range rows {
			v.SetDatum(lane, row[ci])
		}
		if (form+ci)%4 == 2 {
			v.Demote(len(rows), len(rows))
		}
	}
	return b
}

// writeAll writes rows through a new writer of each entry point: one
// row at a time, or in batches of size rows (an empty batch between
// each pair). It returns the bytes written and the first error.
func writeAll(open func(*bufCloser) RowWriter, schema *types.Schema, rows []types.Row, size int) ([]byte, error) {
	out := &bufCloser{}
	w := open(out)
	var err error
	for i := 0; size == 0 && err == nil && i < len(rows); i++ {
		err = w.Write(rows[i])
	}
	for i, lo := 0, 0; size > 0 && err == nil && lo < len(rows); i, lo = i+1, lo+size {
		if err = w.WriteBatch(toBatch(schema, rows[lo:min(lo+size, len(rows))], i)); err == nil {
			err = w.WriteBatch(toBatch(schema, nil, i))
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return out.Bytes(), err
}

func batchWriters() map[string]func(*bufCloser) RowWriter {
	schema := batchSchema()
	orc := func(opts ORCOptions) func(*bufCloser) RowWriter {
		return func(w *bufCloser) RowWriter { return newORCWriter(w, schema, opts) }
	}
	return map[string]func(*bufCloser) RowWriter{
		"orc":           orc(ORCOptions{}),
		"orc/rows500":   orc(ORCOptions{StripeRows: 500}),
		"orc/bytes20k":  orc(ORCOptions{StripeBytes: 20000}),
		"orc/rows9+10k": orc(ORCOptions{StripeRows: 900, StripeBytes: 10000}),
		"text":          func(w *bufCloser) RowWriter { return newTextWriter(w, schema) },
		"sequence":      func(w *bufCloser) RowWriter { return newSeqWriter(w, schema) },
	}
}

// TestWriteBatchMatchesWrite: every writer writes the same bytes for
// the same rows whether they come as rows or as batches of any size,
// in any vector form, with stripe cuts falling inside batches, also
// when stripes hold NaN and infinite values.
func TestWriteBatchMatchesWrite(t *testing.T) {
	schema := batchSchema()
	for _, inf := range []bool{false, true} {
		rows := batchRows(3000, inf)
		for name, open := range batchWriters() {
			want, wantErr := writeAll(open, schema, rows, 0)
			if wantErr != nil {
				t.Fatalf("%s (inf %v): Write: %v", name, inf, wantErr)
			}
			for _, size := range []int{1, 7, vec.DefaultSize, len(rows)} {
				got, err := writeAll(open, schema, rows, size)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
					t.Errorf("%s (inf %v): batches of %d write %d bytes (%v), Write %d (%v)",
						name, inf, size, len(got), err, len(want), wantErr)
				}
			}
		}
	}
	// A bool lane holding any non-zero value is written as true.
	boolSchema := types.NewSchema(types.Col("b", types.KindBool))
	for name, open := range map[string]func(*bufCloser) RowWriter{
		"orc":  func(w *bufCloser) RowWriter { return newORCWriter(w, boolSchema, ORCOptions{}) },
		"text": func(w *bufCloser) RowWriter { return newTextWriter(w, boolSchema) },
	} {
		want, _ := writeAll(open, boolSchema, []types.Row{{types.Bool(true)}, {types.Bool(false)}}, 0)
		out := &bufCloser{}
		w := open(out)
		b := vec.NewBatch(1, 2)
		b.N = 2
		b.Cols[0].Reset(types.KindBool, 2)
		b.Cols[0].I64[0], b.Cols[0].I64[1] = 5, 0
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: a bool lane of 5 is not written as true", name)
		}
	}

	// The ORC cases above cut stripes inside batches.
	ow := newORCWriter(&bufCloser{}, schema, ORCOptions{StripeBytes: 20000})
	if err := ow.WriteBatch(toBatch(schema, batchRows(vec.DefaultSize, false), 0)); err != nil {
		t.Fatal(err)
	}
	if len(ow.footer.Stripes) == 0 || ow.rows == 0 {
		t.Errorf("a 1024-row batch left %d stripes and %d buffered rows; want a cut inside it", len(ow.footer.Stripes), ow.rows)
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
}

// refColumnStats is the footer statistic the writer computed from its
// buffered datums before the column builders: the first non-null value
// seeds min and max, then types.Compare orders them.
func refColumnStats(col []types.Datum) orcColStat {
	st := orcColStat{}
	var lo, hi types.Datum
	seen := false
	for _, d := range col {
		if d.IsNull() {
			st.Nulls++
			continue
		}
		if !seen {
			lo, hi, seen = d, d, true
			continue
		}
		if types.Compare(d, lo) < 0 {
			lo = d
		}
		if types.Compare(hi, d) < 0 {
			hi = d
		}
	}
	st.Min, st.Max = toJSONDatum(lo), toJSONDatum(hi)
	return st
}

func TestColumnStatsMatchReference(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cols := map[string][]types.Datum{
		"nan first":   {types.Float(nan), types.Float(3), types.Float(-1)},
		"nan between": {types.Float(2), types.Float(nan), types.Float(-1), types.Float(5)},
		"-0 then 0":   {types.Float(negZero), types.Float(0)},
		"0 then -0":   {types.Null(), types.Float(0), types.Float(negZero)},
		"infinities":  {types.Float(1), types.Float(math.Inf(-1)), types.Float(math.Inf(1))},
		"all null":    {types.Null(), types.Null()},
		"empty":       nil,
		"ints":        {types.Int(4), types.Null(), types.Int(-9), types.Int(12)},
		"strings":     {types.String("m"), types.String(""), types.Null(), types.String("z")},
		"dates":       {types.Date(9000), types.Date(100)},
		"bools":       {types.Bool(true), types.Bool(false), types.Null()},
	}
	for name, col := range cols {
		kind := types.KindFloat
		for _, d := range col {
			if !d.IsNull() {
				kind = d.K
			}
		}
		var cb colBuilder
		cb.reset(kind)
		for _, d := range col {
			cb.appendDatum(d)
		}
		got, want := cb.stats(), refColumnStats(col)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: stats %+v, want %+v", name, got, want)
		}
	}
}

// TestWritersKeepTheValuesTheyAreGiven: ORC and Text store a value of a
// column's own kind, widen an int bound for a double column, and fail
// on any other kind, row by row and batch by batch; a vector of another
// kind holding only NULLs writes NULLs. A rejected row is not written,
// the rows before it in its batch are, and the writer still closes
// into a readable file.
func TestWritersKeepTheValuesTheyAreGiven(t *testing.T) {
	schema := types.NewSchema(types.Col("d", types.KindFloat), types.Col("n", types.KindInt))
	for _, f := range []Format{FormatORC, FormatText} {
		fs := newFS()
		writeRows(t, fs, "/widen", f, schema, []types.Row{{types.Int(4), types.Int(1)}, {types.Float(1.5), types.Null()}})
		rows, err := ReadAll(fs, "/widen", f, schema)
		if err != nil || len(rows) != 2 || rows[0][0] != types.Float(4) || rows[1][0] != types.Float(1.5) {
			t.Errorf("%v: an int in a double column read back as %v (%v)", f, rows, err)
		}

		name := map[Format]string{FormatORC: "orc", FormatText: "text"}[f]
		bad := []types.Row{{types.Float(1), types.Float(2.5)}}
		w, err := CreateTableFile(fs, "/bad", f, schema)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := fmt.Sprintf("storage: %s column n is bigint, got double", name)
		if err := w.Write(bad[0]); err == nil || err.Error() != wantErr {
			t.Errorf("%v Write: err %v, want %q", f, err, wantErr)
		}
		for _, kind := range []types.Kind{types.KindFloat, vec.KindAny} {
			b := vec.NewBatch(2, 1)
			b.N = 1
			for ci, v := range b.Cols {
				v.Reset(kind, 1)
				v.SetDatum(0, bad[0][ci])
			}
			if err := w.WriteBatch(b); err == nil || err.Error() != wantErr {
				t.Errorf("%v WriteBatch (vector kind %v): err %v, want %q", f, kind, err, wantErr)
			}
		}
		nulls := vec.NewBatch(2, 3)
		nulls.N = 3
		nulls.Cols[0].Reset(types.KindString, 3)
		nulls.Cols[0].SetNullRange(0, 3)
		nulls.Cols[1].Reset(types.KindDate, 3)
		nulls.Cols[1].SetNullRange(0, 3)
		if err := w.WriteBatch(nulls); err != nil {
			t.Errorf("%v: NULLs in vectors of other kinds: %v", f, err)
		}
		nulls.Cols[1].ClearNull(2)
		if err := w.WriteBatch(nulls); err == nil || !strings.Contains(err.Error(), "column n is bigint, got date") {
			t.Errorf("%v: a date in a bigint column: err %v", f, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%v: Close after rejected rows: %v", f, err)
		}
		rows, err = ReadAll(fs, "/bad", f, schema)
		if err != nil || len(rows) != 5 {
			t.Fatalf("%v: read back %d rows (%v), want the 5 NULL rows written before and between the rejected ones", f, len(rows), err)
		}
		for _, row := range rows {
			if !row[0].IsNull() || !row[1].IsNull() {
				t.Errorf("%v: read back %v, want NULLs", f, row)
			}
		}
	}
}
