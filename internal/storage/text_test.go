package storage

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// rawText stores data as /t on a new one-node FS and returns the FS and
// the whole-file split.
func rawText(t testing.TB, data string) (*dfs.FileSystem, dfs.Split) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n"}})
	if err := fs.WriteFile("/t", []byte(data)); err != nil {
		t.Fatal(err)
	}
	return fs, dfs.Split{Path: "/t", Length: int64(len(data))}
}

// textRows reads a Text split through the row reader (batch=false) or
// the batch reader, materialising batches row by row.
func textRows(fs *dfs.FileSystem, split dfs.Split, schema *types.Schema, projection []int, batch bool) ([]types.Row, error) {
	var rows []types.Row
	if !batch {
		rd, err := OpenSplit(fs, split, FormatText, schema, projection, nil)
		if err != nil {
			return nil, err
		}
		for {
			row, err := rd.Next()
			if err == io.EOF {
				return rows, nil
			}
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	rd, err := OpenSplitBatch(fs, split, FormatText, schema, projection, nil)
	if err != nil {
		return nil, err
	}
	b := vec.NewBatch(schema.Len(), vec.DefaultSize)
	for {
		err := rd.NextBatch(b)
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i, nil))
		}
	}
}

// projected blanks every column outside projection (nil keeps all),
// which is what a reader given that projection returns.
func projected(rows []types.Row, projection []int) []types.Row {
	if projection == nil {
		return rows
	}
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = make(types.Row, len(r))
		for _, ci := range projection {
			out[i][ci] = r[ci]
		}
	}
	return out
}

func checkRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		// Datum equality, not Compare: kinds and NULLs must agree too.
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d column %d = %#v, want %#v", what, i, c, got[i][c], want[i][c])
			}
		}
	}
}

var textProjections = [][]int{nil, {1, 3}, {}}

// TestTextEverySplitOffset cuts one file in two at every byte offset:
// whichever way the cut falls, the two splits together yield each line
// exactly once, in order, identically from the row and the batch
// reader, with and without a projection. (A line whose first byte is
// at the cut belongs to the first split; the second skips through the
// first newline at or after the cut.)
func TestTextEverySplitOffset(t *testing.T) {
	schema := testSchema()
	want := testRows(40)
	want[7][1] = types.String("") // an empty field
	fs := newFS()
	writeRows(t, fs, "/cut", FormatText, schema, want)
	size, err := fs.Size("/cut")
	if err != nil {
		t.Fatal(err)
	}
	for _, proj := range textProjections {
		for _, batch := range []bool{false, true} {
			for cut := int64(0); cut <= size; cut++ {
				var got []types.Row
				for _, sp := range []dfs.Split{{Path: "/cut", Offset: 0, Length: cut}, {Path: "/cut", Offset: cut, Length: size - cut}} {
					if sp.Length == 0 {
						continue // dfs.Splits cuts no empty split
					}
					rows, err := textRows(fs, sp, schema, proj, batch)
					if err != nil {
						t.Fatalf("cut %d: %v", cut, err)
					}
					got = append(got, rows...)
				}
				checkRows(t, fmt.Sprintf("projection %v batch=%v cut %d", proj, batch, cut), got, projected(want, proj))
			}
		}
	}
}

// TestTextBatchBoundaries: files of no rows, one row, exactly one batch
// and one row more.
func TestTextBatchBoundaries(t *testing.T) {
	schema := testSchema()
	for _, n := range []int{0, 1, vec.DefaultSize, vec.DefaultSize + 1} {
		want := testRows(n)
		fs := newFS()
		writeRows(t, fs, "/n", FormatText, schema, want)
		size, _ := fs.Size("/n")
		for _, proj := range textProjections {
			for _, batch := range []bool{false, true} {
				got, err := textRows(fs, dfs.Split{Path: "/n", Length: size}, schema, proj, batch)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, fmt.Sprintf("%d rows projection %v batch=%v", n, proj, batch), got, projected(want, proj))
			}
		}
	}
}

// TestTextLongLine: a line several times the bufio window, between
// ordinary ones, read whole and cut mid-line.
func TestTextLongLine(t *testing.T) {
	schema := testSchema()
	want := testRows(5)
	want[2][1] = types.String(strings.Repeat("long-", 3000)) // 15 000 bytes
	fs := newFS()
	writeRows(t, fs, "/long", FormatText, schema, want)
	size, _ := fs.Size("/long")
	for _, batch := range []bool{false, true} {
		for _, cut := range []int64{size, 100, 5000, 12000} {
			var got []types.Row
			for _, sp := range []dfs.Split{{Path: "/long", Length: cut}, {Path: "/long", Offset: cut, Length: size - cut}} {
				rows, err := textRows(fs, sp, schema, nil, batch)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rows...)
			}
			checkRows(t, fmt.Sprintf("batch=%v cut %d", batch, cut), got, want)
		}
	}
}

// TestTextFieldForms: \N in a column of every kind, empty and trailing
// empty string fields, the spellings only the fallback parser takes,
// and a last line without a newline.
func TestTextFieldForms(t *testing.T) {
	schema := types.NewSchema(types.Col("i", types.KindInt), types.Col("f", types.KindFloat),
		types.Col("b", types.KindBool), types.Col("d", types.KindDate), types.Col("s", types.KindString))
	data := `\N|\N|\N|\N|\N` + "\n" +
		"-5|2.5e3|true|1999-12-31|\n" +
		"+7|.5|T|0001-01-01|x\n" +
		"0|-0|0|9999-12-31|a b" // no final newline
	want := []types.Row{
		{types.Null(), types.Null(), types.Null(), types.Null(), types.Null()},
		{types.Int(-5), types.Float(2500), types.Bool(true), types.MustDate("1999-12-31"), types.String("")},
		{types.Int(7), types.Float(0.5), types.Bool(true), types.MustDate("0001-01-01"), types.String("x")},
		{types.Int(0), types.Float(0), types.Bool(false), types.MustDate("9999-12-31"), types.String("a b")},
	}
	want[3][1].F = -want[3][1].F // "-0" parses to negative zero
	fs, split := rawText(t, data)
	for _, batch := range []bool{false, true} {
		got, err := textRows(fs, split, schema, nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, fmt.Sprintf("batch=%v", batch), got, want)
	}
}

// hostileLines holds lines a Text file must not contain, each with the
// error the reader gave for it before it had a batch path or a
// projection (recorded at 85deded from OpenSplit(...).Next()). The
// readers must go on giving exactly these, whether or not the offending
// column is projected.
var hostileLines = []struct{ line, err string }{
	{"1|a|1.5|2020-01-02", "storage: text parse: row has 4 fields, schema (id bigint, name string, price double, ship date, flag boolean) has 5"},
	{"1|a|1.5|2020-01-02|true|x", "storage: text parse: row has 6 fields, schema (id bigint, name string, price double, ship date, flag boolean) has 5"},
	{"", "storage: text parse: row has 1 fields, schema (id bigint, name string, price double, ship date, flag boolean) has 5"},
	{"x|a|1.5|2020-01-02", "storage: text parse: row has 4 fields, schema (id bigint, name string, price double, ship date, flag boolean) has 5"},
	{"x|a|1.5|2020-01-02|true", "storage: text parse: column id: parse int \"x\": strconv.ParseInt: parsing \"x\": invalid syntax"},
	{"99999999999999999999|a|1.5|2020-01-02|true", "storage: text parse: column id: parse int \"99999999999999999999\": strconv.ParseInt: parsing \"99999999999999999999\": value out of range"},
	{"|a|1.5|2020-01-02|true", "storage: text parse: column id: parse int \"\": strconv.ParseInt: parsing \"\": invalid syntax"},
	{"1.0|a|1.5|2020-01-02|true", "storage: text parse: column id: parse int \"1.0\": strconv.ParseInt: parsing \"1.0\": invalid syntax"},
	{"1|a|1.5.2|2020-01-02|true", "storage: text parse: column price: parse float \"1.5.2\": strconv.ParseFloat: parsing \"1.5.2\": invalid syntax"},
	{"1|a|1e999|2020-01-02|true", "storage: text parse: column price: parse float \"1e999\": strconv.ParseFloat: parsing \"1e999\": value out of range"},
	{"1|a||2020-01-02|true", "storage: text parse: column price: parse float \"\": strconv.ParseFloat: parsing \"\": invalid syntax"},
	{"1|a|1.5|2020-02-30|true", "storage: text parse: column ship: parse date \"2020-02-30\": parsing time \"2020-02-30\": day out of range"},
	{"1|a|1.5|2020-2-03|true", "storage: text parse: column ship: parse date \"2020-2-03\": parsing time \"2020-2-03\" as \"2006-01-02\": cannot parse \"2-03\" as \"01\""},
	{"1|a|1.5|2020/02/03|true", "storage: text parse: column ship: parse date \"2020/02/03\": parsing time \"2020/02/03\" as \"2006-01-02\": cannot parse \"/02/03\" as \"-\""},
	{"1|a|1.5|2020-01-02 |true", "storage: text parse: column ship: parse date \"2020-01-02 \": parsing time \"2020-01-02 \": extra text: \" \""},
	{"1|a|1.5|0000-00-00|true", "storage: text parse: column ship: parse date \"0000-00-00\": parsing time \"0000-00-00\": month out of range"},
	{"1|a|1.5||true", "storage: text parse: column ship: parse date \"\": parsing time \"\" as \"2006-01-02\": cannot parse \"\" as \"2006\""},
	{"1|a|1.5|2020-01-02|maybe", "storage: text parse: column flag: parse bool \"maybe\": strconv.ParseBool: parsing \"maybe\": invalid syntax"},
	{"1|a|1.5|2020-01-02|", "storage: text parse: column flag: parse bool \"\": strconv.ParseBool: parsing \"\": invalid syntax"},
	{"x|a|y|2020-01-02|true", "storage: text parse: column id: parse int \"x\": strconv.ParseInt: parsing \"x\": invalid syntax"},
	{"1|a|1.5|2020-01-02|true\r", "storage: text parse: column flag: parse bool \"true\\r\": strconv.ParseBool: parsing \"true\\r\": invalid syntax"},
}

func TestTextHostileLines(t *testing.T) {
	schema := testSchema()
	// Every column projected, only the string column (so each bad field
	// above sits in an unprojected column), none.
	for _, proj := range [][]int{nil, {1}, {}} {
		for _, batch := range []bool{false, true} {
			for _, h := range hostileLines {
				fs, split := rawText(t, "7|ok|2.5|2019-03-04|false\n"+h.line+"\n")
				rows, err := textRows(fs, split, schema, proj, batch)
				if err == nil || err.Error() != h.err {
					t.Errorf("projection %v batch=%v line %q:\n got %v\nwant %s", proj, batch, h.line, err, h.err)
				}
				// Rows are cut from batches, and a batch fails whole.
				if len(rows) != 0 {
					t.Errorf("projection %v batch=%v line %q: %d rows before the error, want 0", proj, batch, h.line, len(rows))
				}
			}
		}
	}
}

// TestTextBatchStringsOutliveTheBatch: operators keep strings (join
// tables, group keys, row sinks) while the reader goes on, so the bytes
// behind batch n must not be reused for batch n+1.
func TestTextBatchStringsOutliveTheBatch(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.KindInt), types.Col("s", types.KindString))
	const n = 3*vec.DefaultSize + 17
	want := make([]types.Row, n)
	for i := range want {
		want[i] = types.Row{types.Int(int64(i)), types.String(fmt.Sprintf("string-%05d", i))}
	}
	fs := newFS()
	writeRows(t, fs, "/s", FormatText, schema, want)
	size, _ := fs.Size("/s")
	rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/s", Length: size}, FormatText, schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(2, vec.DefaultSize)
	var kept []string
	for {
		if err := rd.NextBatch(b); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, b.Cols[1].Str[:b.N]...)
	}
	if len(kept) != n {
		t.Fatalf("kept %d strings, want %d", len(kept), n)
	}
	for i, s := range kept {
		if s != want[i][1].S {
			t.Fatalf("string %d = %q after later batches were read, want %q", i, s, want[i][1].S)
		}
	}
}

// TestISODateMatchesTimeParse holds the date fast path to
// types.DateFromString (time.Parse) on every day of the years
// 0001-9999, and checks it declines everything else instead of guessing.
func TestISODateMatchesTimeParse(t *testing.T) {
	day := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	var buf []byte
	for ; day.Year() <= 9999; day = day.AddDate(0, 0, 1) {
		buf = day.AppendFormat(buf[:0], "2006-01-02")
		want, err := types.DateFromString(string(buf))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := parseISODate(buf); !ok || got != want.I {
			t.Fatalf("parseISODate(%q) = %d, %v; DateFromString gives %d", buf, got, ok, want.I)
		}
	}
	for _, s := range []string{
		"", "2023-02-30", "2023-02-29", "1900-02-29", "2023-04-31", "2023-00-10", "2023-13-10", "2023-01-00", "2023-01-32",
		"2023-2-03", "2023-02-3", "2023/02/03", "2023-02-03 ", " 2023-02-03", "2023-02-031", "02023-02-03",
		"0000-01-01", "2023-0a-03", "２０２３-02-03", "+023-02-03", "2023-02--3",
	} {
		if days, ok := parseISODate([]byte(s)); ok {
			t.Errorf("parseISODate(%q) accepted as %d", s, days)
		}
	}
	// Whatever the fast path declines still gets time.Parse's verdict.
	if days, _, null, err := parseField([]byte("0000-01-01"), types.KindDate); err != nil || null || days != types.MustDate("0000-01-01").I {
		t.Errorf("year 0000 through the fallback: %d, %v, %v", days, null, err)
	}
}

// TestTextScanAllocs: what a batch allocates is the string arena plus,
// until the reader's scratch has grown, a few doublings of it — a
// constant per batch, nothing per line.
func TestTextScanAllocs(t *testing.T) {
	schema := testSchema()
	const batches = 8
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n"}})
	writeRows(t, fs, "/allocs", FormatText, schema, testRows(batches*vec.DefaultSize))
	size, _ := fs.Size("/allocs")
	b := vec.NewBatch(schema.Len(), vec.DefaultSize)
	scan := func() {
		rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/allocs", Length: size}, FormatText, schema, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if err := rd.NextBatch(b); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n += b.N
		}
		if n != batches*vec.DefaultSize {
			t.Fatalf("scanned %d rows", n)
		}
	}
	scan()
	// Opening the file and the reader, its bufio window and the growth
	// of its scratch during the first batch are ~40 allocations; each
	// further batch is its arena.
	const ceiling = 40 + 2*batches
	got := testing.AllocsPerRun(10, scan)
	if got > ceiling {
		t.Errorf("scanning %d batches of %d lines: %.0f allocations, ceiling %d", batches, vec.DefaultSize, got, ceiling)
	}
	t.Logf("%.0f allocations for %d lines", got, batches*vec.DefaultSize)
}
