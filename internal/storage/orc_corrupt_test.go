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
	"hivempi/internal/vec"
)

// orcTestFile writes a tiny ORC file and returns its bytes.
func orcTestFile(t testing.TB) (*dfs.FileSystem, string) {
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

// hostileAllocLimit bounds what reading a hostile file may allocate:
// far below what its corrupt counts claim.
const hostileAllocLimit = 8 << 20

// hostile asserts that scanning data errors in both modes (io.EOF is a
// clean scan, so it does not count) without panicking and without
// allocating anything near what the corrupt counts claim. It returns
// the row and batch scans' errors.
func hostile(t *testing.T, name string, data []byte, schema *types.Schema) (rowErr, batchErr error) {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	if err := fs.WriteFile("/hostile", data); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	split := dfs.Split{Path: "/hostile", Length: int64(len(data))}
	_, rowErr = scanSplit(fs, split, schema, false)
	_, batchErr = scanSplit(fs, split, schema, true)
	runtime.ReadMemStats(&after)
	if rowErr == io.EOF || batchErr == io.EOF {
		t.Errorf("%s: scanned clean (row: %v, batch: %v)", name, rowErr, batchErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > hostileAllocLimit {
		t.Errorf("%s: allocated %d bytes reading a %d-byte file", name, got, len(data))
	}
	return rowErr, batchErr
}

// withFooter returns data with its footer replaced by mutate's edit.
func withFooter(t testing.TB, data []byte, mutate func(*orcFooter)) []byte {
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

func appendFooter(t testing.TB, body []byte, footer *orcFooter) []byte {
	t.Helper()
	fb, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, fb...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(fb)))
	return append(body, orcMagic...)
}

// hostileFooterEdits are corruptions of one stripe's footer entry.
func hostileFooterEdits() map[string]func(*orcStripeMeta) {
	return map[string]func(*orcStripeMeta){
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
}

func TestORCHostileFooterRejected(t *testing.T) {
	fs, path := orcTestFile(t)
	good, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	for name, mutate := range hostileFooterEdits() {
		data := withFooter(t, good, func(f *orcFooter) { mutate(&f.Stripes[0]) })
		hostile(t, name, data, schema)
	}
}

// deflated compresses raw the way the writer does.
func deflated(t testing.TB, raw []byte) []byte {
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

// hostileRows is the row count the hostile column streams claim.
const hostileRows = 16

type hostileStream struct {
	name string
	kind types.Kind
	raw  []byte
}

// hostileColumnStreams are corrupt inflated column streams, each of a
// column of kind.
func hostileColumnStreams() []hostileStream {
	const rows = hostileRows
	huge := binary.AppendUvarint(nil, 1<<62)
	presence := append(binary.AppendUvarint(nil, rows), 0xFF, 0xFF)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	count := binary.AppendUvarint(nil, rows)
	return []hostileStream{
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
}

// oneStreamFile is an ORC file of one hostileRows-row stripe holding
// stream as its only column, of kind.
func oneStreamFile(t testing.TB, kind types.Kind, stream []byte) []byte {
	footer := &orcFooter{
		Columns: []orcColumnMeta{{Name: "c", Type: kind.String()}},
		Stripes: []orcStripeMeta{{
			Length: int64(len(stream)), Rows: hostileRows,
			ColOffsets: []int64{0, int64(len(stream))},
			Stats:      make([]orcColStat, 1),
		}},
		Rows: hostileRows,
	}
	return appendFooter(t, bytes.Clone(stream), footer)
}

func TestORCHostileStreamRejected(t *testing.T) {
	for _, tc := range hostileColumnStreams() {
		schema := types.NewSchema(types.Col("c", tc.kind))
		hostile(t, tc.name, oneStreamFile(t, tc.kind, deflated(t, tc.raw)), schema)
	}
	// An undersized stream that is not deflate at all.
	footer := &orcFooter{
		Columns: []orcColumnMeta{{Name: "c", Type: "bigint"}},
		Stripes: []orcStripeMeta{{Length: 4, Rows: hostileRows, ColOffsets: []int64{0, 4}}},
	}
	hostile(t, "not deflate", appendFooter(t, []byte{0xde, 0xad, 0xbe, 0xef}, footer),
		types.NewSchema(types.Col("c", types.KindInt)))
	// Streams that break a rule of deflate itself.
	schema := types.NewSchema(types.Col("c", types.KindInt))
	for _, c := range hostileDeflate() {
		rowErr, batchErr := hostile(t, c.name, oneStreamFile(t, types.KindInt, c.stream), schema)
		for _, err := range []error{rowErr, batchErr} {
			if err == nil || !strings.HasPrefix(err.Error(), "storage: orc inflate: ") {
				t.Errorf("%s: %v, want a storage: orc inflate: error", c.name, err)
			}
		}
	}
}

// fuzzSchema is FuzzORCSplitBatch's table: one column for each of the
// int, string, float and bool decoders.
func fuzzSchema() *types.Schema {
	return types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString),
		types.Col("c", types.KindFloat), types.Col("d", types.KindBool))
}

// withStreams returns the one-stripe ORC file data with the column
// streams in replace put in place of its own.
func withStreams(t testing.TB, data []byte, replace map[int][]byte) []byte {
	fb := footerBytes(data)
	var footer orcFooter
	if err := json.Unmarshal(fb, &footer); err != nil {
		t.Fatal(err)
	}
	st := &footer.Stripes[0]
	var body []byte
	for ci := 0; ci+1 < len(st.ColOffsets); ci++ {
		stream, ok := replace[ci]
		if !ok {
			stream = data[st.Offset+st.ColOffsets[ci] : st.Offset+st.ColOffsets[ci+1]]
		}
		st.ColOffsets[ci] = int64(len(body))
		body = append(body, stream...)
	}
	st.Length = int64(len(body))
	st.ColOffsets[len(st.ColOffsets)-1] = st.Length
	return appendFooter(t, body, &footer)
}

// streamBytes is the number of bytes in front of data's footer, the
// only bytes a reader inflates; 0 when data has no well-formed tail.
func streamBytes(data []byte) int {
	if len(data) < 8 || !bytes.Equal(data[len(data)-4:], orcMagic) {
		return 0
	}
	flen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	return max(len(data)-8-flen, 0)
}

// FuzzORCSplitBatch: any file bytes read through OpenSplitBatch and
// NextBatch end in an error or a clean scan, never a panic, and never
// allocate by a count the file claims. Each stream byte inflates to at
// most maxInflateRatio bytes, and every column's rows are bounded by its
// own presence bits, eight a byte, each decoding to at most 8 bytes of
// value: the allowance over hostileAllocLimit is 64 bytes per inflated
// byte, doubled for slice growth. The seeds' is about 10 MB.
func FuzzORCSplitBatch(f *testing.F) {
	schema := fuzzSchema()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	rows := make([]types.Row, hostileRows)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.String("s"), types.Float(float64(i) / 4), types.Bool(i%3 == 0)}
	}
	writeRows(f, fs, "/good", FormatORC, schema, rows)
	good, err := fs.ReadFile("/good")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	for _, mutate := range hostileFooterEdits() {
		f.Add(withFooter(f, good, func(footer *orcFooter) { mutate(&footer.Stripes[0]) }))
	}
	for _, tc := range hostileColumnStreams() {
		for ci, c := range schema.Columns {
			if c.Type == tc.kind {
				f.Add(withStreams(f, good, map[int][]byte{ci: deflated(f, tc.raw)}))
				break
			}
		}
	}
	for _, c := range hostileDeflate() {
		f.Add(withStreams(f, good, map[int][]byte{0: c.stream}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
		if err := fs.WriteFile("/fuzz", data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/fuzz", Length: int64(len(data))}, FormatORC, schema, nil, nil)
		if err == nil {
			b := vec.Get(schema.Len())
			for err == nil {
				err = rd.NextBatch(b)
			}
			vec.Put(b)
		}
		runtime.ReadMemStats(&after)
		limit := hostileAllocLimit + 2*maxInflateRatio*8*8*streamBytes(data)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit) {
			t.Fatalf("allocated %d bytes reading a %d-byte file (%v)", got, len(data), err)
		}
	})
}

// columnFuzzKinds are the column kinds FuzzORCColumnStream decodes a
// stream as, one for each decoder (dates decode as ints).
var columnFuzzKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}

// stored wraps raw in stored (uncompressed) deflate blocks: no
// compressor runs per input, and every byte of raw reaches the decoder.
func stored(raw []byte) []byte {
	var out []byte
	for {
		n := min(len(raw), 0xFFFF)
		final := byte(0)
		if n == len(raw) {
			final = 1
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out = append(out, raw[:n]...)
		if raw = raw[n:]; final == 1 {
			return out
		}
	}
}

// FuzzORCColumnStream: any inflated column stream, decoded as a column
// of one of columnFuzzKinds through a fixed, valid one-stripe footer
// (oneStreamFile), ends in an error or a clean scan, never a panic, and
// never allocates by a count the stream claims. Unlike
// FuzzORCSplitBatch's, no mutation here breaks the footer or the
// deflate framing, so each one reaches decodedColumn.decode. Seeds: the
// valid streams of each kind, and the hostile column streams.
func FuzzORCColumnStream(f *testing.F) {
	schema := fuzzSchema()
	fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
	rows := make([]types.Row, hostileRows)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.String("s"), types.Float(float64(i) / 4), types.Bool(i%3 == 0)}
		if i%5 == 0 {
			rows[i][i%4] = types.Null()
		}
	}
	writeRows(f, fs, "/good", FormatORC, schema, rows)
	good, err := fs.ReadFile("/good")
	if err != nil {
		f.Fatal(err)
	}
	var footer orcFooter
	if err := json.Unmarshal(footerBytes(good), &footer); err != nil {
		f.Fatal(err)
	}
	st := footer.Stripes[0]
	kindOf := func(k types.Kind) uint8 {
		for i, c := range columnFuzzKinds {
			if c == k {
				return uint8(i)
			}
		}
		f.Fatalf("no fuzz kind %v", k)
		return 0
	}
	for ci, c := range schema.Columns {
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(good[st.Offset+st.ColOffsets[ci] : st.Offset+st.ColOffsets[ci+1]])))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindOf(c.Type), raw)
	}
	for _, tc := range hostileColumnStreams() {
		f.Add(kindOf(tc.kind), tc.raw)
	}
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte) {
		k := columnFuzzKinds[int(kind)%len(columnFuzzKinds)]
		schema := types.NewSchema(types.Col("c", k))
		data := oneStreamFile(t, k, stored(raw))
		fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
		if err := fs.WriteFile("/fuzz", data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/fuzz", Length: int64(len(data))}, FormatORC, schema, nil, nil)
		if err == nil {
			b := vec.Get(schema.Len())
			for err == nil {
				err = rd.NextBatch(b)
			}
			vec.Put(b)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(hostileAllocLimit+16*len(data)); got > limit {
			t.Fatalf("allocated %d bytes decoding a %d-byte %v stream (%v)", got, len(raw), k, err)
		}
	})
}
