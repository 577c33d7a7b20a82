package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
)

// orcTestFile writes a tiny ORC file and returns its bytes.
func orcTestFile(t *testing.T) (*dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	w, err := CreateTableFile(fs, "/f", FormatORC, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Write(types.Row{types.Int(int64(i)), types.String("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, "/f"
}

func openCorrupted(t *testing.T, mutate func([]byte) []byte) error {
	t.Helper()
	fs, path := orcTestFile(t)
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = mutate(append([]byte(nil), data...))
	if err := fs.WriteFile("/corrupt", data); err != nil {
		t.Fatal(err)
	}
	sz, _ := fs.Size("/corrupt")
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	rd, err := OpenSplit(fs, dfs.Split{Path: "/corrupt", Offset: 0, Length: sz},
		FormatORC, schema, nil, nil)
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Next(); err != nil {
			if err.Error() == "EOF" {
				return nil
			}
			return err
		}
	}
}

func TestORCBadMagicRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		copy(b[len(b)-4:], "XXXX")
		return b
	})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not detected: %v", err)
	}
}

func TestORCTruncatedFileRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte { return b[:4] })
	if err == nil {
		t.Error("truncated file not detected")
	}
}

func TestORCFooterLengthOverflowRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		// Footer length claims more bytes than the file holds.
		b[len(b)-8] = 0xFF
		b[len(b)-7] = 0xFF
		b[len(b)-6] = 0xFF
		b[len(b)-5] = 0x0F
		return b
	})
	if err == nil || !strings.Contains(err.Error(), "footer") {
		t.Errorf("footer overflow not detected: %v", err)
	}
}

func TestORCGarbageFooterRejected(t *testing.T) {
	err := openCorrupted(t, func(b []byte) []byte {
		// Zero the first footer byte so JSON parsing fails.
		// Footer length is in the last 8 bytes; corrupt just before it.
		if len(b) > 40 {
			b[len(b)-20] = 0x00
		}
		return b
	})
	if err == nil {
		t.Error("garbage footer not detected")
	}
}

func TestORCEmptySchemaMismatch(t *testing.T) {
	fs, path := orcTestFile(t)
	sz, _ := fs.Size(path)
	wrong := types.NewSchema(types.Col("only_one", types.KindInt))
	if _, err := OpenSplit(fs, dfs.Split{Path: path, Offset: 0, Length: sz},
		FormatORC, wrong, nil, nil); err == nil {
		t.Error("column count mismatch not detected")
	}
}

// hostile asserts that scanning data errors in both modes (io.EOF is a
// clean scan, so it does not count) without panicking and without
// allocating anything near what the corrupt counts claim.
func hostile(t *testing.T, name string, data []byte, schema *types.Schema) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	if err := fs.WriteFile("/hostile", data); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	split := dfs.Split{Path: "/hostile", Length: int64(len(data))}
	_, rowErr := scanSplit(fs, split, schema, false)
	_, batchErr := scanSplit(fs, split, schema, true)
	runtime.ReadMemStats(&after)
	if rowErr == io.EOF || batchErr == io.EOF {
		t.Errorf("%s: scanned clean (row: %v, batch: %v)", name, rowErr, batchErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("%s: allocated %d bytes reading a %d-byte file", name, got, len(data))
	}
}

// withFooter returns data with its footer replaced by mutate's edit.
func withFooter(t *testing.T, data []byte, mutate func(*orcFooter)) []byte {
	t.Helper()
	fb := footerBytes(data)
	var footer orcFooter
	if err := json.Unmarshal(fb, &footer); err != nil {
		t.Fatal(err)
	}
	mutate(&footer)
	return appendFooter(t, bytes.Clone(data[:len(data)-8-len(fb)]), &footer)
}

// footerBytes returns the footer JSON of an ORC file image.
func footerBytes(data []byte) []byte {
	flen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	return data[len(data)-8-flen : len(data)-8]
}

func appendFooter(t *testing.T, body []byte, footer *orcFooter) []byte {
	t.Helper()
	fb, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, fb...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(fb)))
	return append(body, orcMagic...)
}

func TestORCHostileFooterRejected(t *testing.T) {
	fs, path := orcTestFile(t)
	good, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	cases := map[string]func(*orcStripeMeta){
		"short colOffsets":         func(st *orcStripeMeta) { st.ColOffsets = st.ColOffsets[:2] },
		"no colOffsets":            func(st *orcStripeMeta) { st.ColOffsets = nil },
		"non-monotonic colOffsets": func(st *orcStripeMeta) { st.ColOffsets[1] = st.ColOffsets[2] + 1 },
		"negative colOffset":       func(st *orcStripeMeta) { st.ColOffsets[0] = -5 },
		"colOffsets past length":   func(st *orcStripeMeta) { st.ColOffsets[2] = st.Length + 1<<40 },
		"length past the file":     func(st *orcStripeMeta) { st.Length = 1 << 40; st.ColOffsets[2] = 1 << 40 },
		"negative offset":          func(st *orcStripeMeta) { st.Offset = -1 },
		"negative length":          func(st *orcStripeMeta) { st.Length = -1 },
		"offset overflow":          func(st *orcStripeMeta) { st.Offset = math.MaxInt64 },
		"negative rows":            func(st *orcStripeMeta) { st.Rows = -1 },
		"huge rows":                func(st *orcStripeMeta) { st.Rows = 1 << 40 },
		"rows past the stream":     func(st *orcStripeMeta) { st.Rows *= 2 },
	}
	for name, mutate := range cases {
		data := withFooter(t, good, func(f *orcFooter) { mutate(&f.Stripes[0]) })
		hostile(t, name, data, schema)
	}
}

// deflated compresses raw the way the writer does.
func deflated(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestORCHostileStreamRejected(t *testing.T) {
	const rows = 16
	huge := binary.AppendUvarint(nil, 1<<62)
	presence := append(binary.AppendUvarint(nil, rows), 0xFF, 0xFF)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	count := binary.AppendUvarint(nil, rows)
	cases := []struct {
		name string
		kind types.Kind
		raw  []byte
	}{
		{"presence count", types.KindInt, cat(huge, []byte{0xFF, 0xFF})},
		{"presence truncated", types.KindInt, presence[:2]},
		{"int count", types.KindInt, cat(presence, huge)},
		{"int count past rows", types.KindInt, cat(presence, binary.AppendUvarint(nil, rows+1))},
		{"int run count", types.KindInt, cat(presence, count, []byte{blkRun}, huge, []byte{2})},
		{"int literal count", types.KindInt, cat(presence, count, []byte{blkLiteral}, huge, []byte{2})},
		{"int block kind", types.KindInt, cat(presence, count, []byte{7, 1, 2})},
		{"int column short", types.KindInt, cat(presence, []byte{1, blkLiteral, 1, 2})},
		{"float count", types.KindFloat, cat(presence, huge)},
		{"float count overflowing *8", types.KindFloat, cat(presence, binary.AppendUvarint(nil, 1<<61))},
		{"float truncated", types.KindFloat, cat(presence, count, make([]byte, 8*rows-1))},
		{"string count", types.KindString, cat(presence, huge)},
		{"string mode", types.KindString, cat(presence, count, []byte{9})},
		{"dict size", types.KindString, cat(presence, count, []byte{strDict}, huge)},
		{"dict entry length", types.KindString, cat(presence, count, []byte{strDict, 1}, huge)},
		{"dict index", types.KindString, cat(presence, count, []byte{strDict, 1, 1, 'x'}, bytes.Repeat([]byte{1}, rows))},
		{"string length", types.KindString, cat(presence, count, []byte{strDirect}, huge)},
		{"string lengths overflowing", types.KindString, cat(presence, count, []byte{strDirect},
			bytes.Repeat(binary.AppendUvarint(nil, 1<<60), rows))},
		{"string bytes truncated", types.KindString, cat(presence, count, []byte{strDirect}, bytes.Repeat([]byte{3}, rows), []byte("ab"))},
	}
	for _, tc := range cases {
		schema := types.NewSchema(types.Col("c", tc.kind))
		stream := deflated(t, tc.raw)
		footer := &orcFooter{
			Columns: []orcColumnMeta{{Name: "c", Type: tc.kind.String()}},
			Stripes: []orcStripeMeta{{
				Length: int64(len(stream)), Rows: rows,
				ColOffsets: []int64{0, int64(len(stream))},
				Stats:      make([]orcColStat, 1),
			}},
			Rows: rows,
		}
		hostile(t, tc.name, appendFooter(t, stream, footer), schema)
	}
	// An undersized stream that is not deflate at all.
	footer := &orcFooter{
		Columns: []orcColumnMeta{{Name: "c", Type: "bigint"}},
		Stripes: []orcStripeMeta{{Length: 4, Rows: rows, ColOffsets: []int64{0, 4}}},
	}
	hostile(t, "not deflate", appendFooter(t, []byte{0xde, 0xad, 0xbe, 0xef}, footer),
		types.NewSchema(types.Col("c", types.KindInt)))
}
