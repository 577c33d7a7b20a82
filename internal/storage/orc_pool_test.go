package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// rowSum is an order-independent digest of rows: their count and the
// sum of the FNV-1a hashes of their text renderings.
type rowSum struct {
	rows int
	hash uint64
}

func (s *rowSum) add(row types.Row, line []byte) []byte {
	line = row.AppendText(line[:0], TextDelim)
	h := uint64(14695981039346656037)
	for _, c := range line {
		h = (h ^ uint64(c)) * 1099511628211
	}
	s.rows++
	s.hash += h
	return line
}

func sumRows(rows []types.Row) rowSum {
	var s rowSum
	var line []byte
	for _, row := range rows {
		line = s.add(row, line)
	}
	return s
}

// scanSplit drains one ORC split in row or batch mode.
func scanSplit(fs *dfs.FileSystem, split dfs.Split, schema *types.Schema, batch bool) (rowSum, error) {
	var s rowSum
	var line []byte
	if !batch {
		rd, err := OpenSplit(fs, split, FormatORC, schema, nil, nil)
		for err == nil {
			var row types.Row
			if row, err = rd.Next(); err == nil {
				line = s.add(row, line)
			}
		}
		return s, err
	}
	rd, err := OpenSplitBatch(fs, split, FormatORC, schema, nil, nil)
	if err != nil {
		return s, err
	}
	b := vec.Get(schema.Len())
	defer vec.Put(b)
	row := make(types.Row, schema.Len())
	for {
		if err := rd.NextBatch(b); err != nil {
			return s, err
		}
		for i := 0; i < b.N; i++ {
			for ci := range row {
				row[ci] = b.Cols[ci].Datum(i)
			}
			line = s.add(row, line)
		}
	}
}

// memoSnapshot returns the memo's entries; the caller must not write
// through them.
func memoSnapshot() []*footerEntry {
	footerMemo.mu.Lock()
	defer footerMemo.mu.Unlock()
	out := make([]*footerEntry, 0, len(footerMemo.entries))
	for _, e := range footerMemo.entries {
		out = append(out, e)
	}
	return out
}

// TestConcurrentSplitScans opens and drains every split of several
// files from many goroutines at once, in both modes, with corrupt files
// mixed in: the shared inflaters and the footer memo must serve every
// split its own rows, never hold a footer that failed to parse or
// validate, and never change one they hold. Run with -race -count=10.
func TestConcurrentSplitScans(t *testing.T) {
	fs := newFS()
	schema := identitySchema()
	type target struct {
		split dfs.Split
		want  rowSum
	}
	var targets []target
	for f := 0; f < 5; f++ {
		path := fmt.Sprintf("/conc/%d", f)
		rows := identityRows(1500+400*f, int64(100+f))
		writeRows(t, fs, path, FormatORC, schema, rows)
		splits, err := fs.Splits(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		var total rowSum
		for _, sp := range splits {
			want, err := scanSplit(fs, sp, schema, false)
			if err != io.EOF {
				t.Fatal(err)
			}
			total.rows += want.rows
			total.hash += want.hash
			targets = append(targets, target{sp, want})
		}
		if total != sumRows(rows) {
			t.Fatalf("%s: splits read back %+v, wrote %+v", path, total, sumRows(rows))
		}
	}
	if len(targets) < 40 {
		t.Fatalf("want many splits, got %d", len(targets))
	}

	good, err := fs.ReadFile("/conc/0")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"/conc/short-offsets": withFooter(t, good, func(f *orcFooter) {
			f.Stripes[1].ColOffsets = f.Stripes[1].ColOffsets[:3]
		}),
		"/conc/bad-json": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-20] = 0
			return b
		}(),
	}
	for path, data := range corrupt {
		if err := fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range targets {
				tg := targets[(i*7+w*11)%len(targets)]
				got, err := scanSplit(fs, tg.split, schema, (i+w)%2 == 0)
				if err != io.EOF || got != tg.want {
					t.Errorf("split %+v: %+v (%v), want %+v", tg.split, got, err, tg.want)
					return
				}
				if i%8 == w {
					for path, data := range corrupt {
						sp := dfs.Split{Path: path, Offset: 0, Length: int64(len(data))}
						if _, err := scanSplit(fs, sp, schema, w%2 == 0); err == nil || err == io.EOF {
							t.Errorf("%s: corrupt footer served (%v)", path, err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	held := 0
	for _, e := range memoSnapshot() {
		for path, data := range corrupt {
			if bytes.Equal(e.raw, footerBytes(data)) {
				t.Errorf("%s: corrupt footer in the memo", path)
			}
		}
		// A footer is the JSON encoding of an orcFooter, so one that
		// nobody wrote to still encodes to the bytes it was parsed from.
		again, err := json.Marshal(e.footer)
		if err != nil || !bytes.Equal(again, e.raw) {
			t.Errorf("memoised footer no longer matches its bytes (%v)", err)
		}
		if bytes.Equal(e.raw, footerBytes(good)) {
			held++
		}
	}
	if held != 1 {
		t.Errorf("footer of /conc/0 held %d times, want 1", held)
	}
}

// TestFooterMemoBounded parses more distinct footers than the memo
// holds: it stays at its cap, keeps the newest and drops the oldest.
func TestFooterMemoBounded(t *testing.T) {
	footer := func(i int) []byte {
		fb, err := json.Marshal(&orcFooter{Columns: []orcColumnMeta{{Name: fmt.Sprint("memo-bound-", i), Type: "bigint"}}})
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	holds := func(fb []byte) bool {
		for _, e := range memoSnapshot() {
			if bytes.Equal(e.raw, fb) {
				return true
			}
		}
		return false
	}
	const n = footerMemoCap + 10
	for i := 0; i < n; i++ {
		if _, err := parseORCFooter(footer(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(memoSnapshot()); got != footerMemoCap {
		t.Errorf("memo holds %d footers, cap %d", got, footerMemoCap)
	}
	if holds(footer(0)) || !holds(footer(n-1)) || !holds(footer(n-footerMemoCap)) {
		t.Errorf("memo is not first-in first-out: oldest %v, newest %v, oldest surviving %v",
			holds(footer(0)), holds(footer(n-1)), holds(footer(n-footerMemoCap)))
	}
}

// TestSlabRowsDoNotAlias: Next cuts rows from one slab per batch, so a
// row must end where its neighbour starts, in capacity as in length.
func TestSlabRowsDoNotAlias(t *testing.T) {
	fs := newFS()
	schema := testSchema()
	writeRows(t, fs, "/slab", FormatORC, schema, testRows(50))
	sz, _ := fs.Size("/slab")
	rd, err := OpenSplit(fs, dfs.Split{Path: "/slab", Length: sz}, FormatORC, schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := second.Clone()
	grown := append(first, types.String("appended"))
	grown[0] = types.Int(-1)
	if !rowsEqual(second, want) {
		t.Errorf("appending to a row changed its neighbour: %v, want %v", second, want)
	}
	if first[0].Int() != 0 {
		t.Errorf("append did not reallocate: row now starts with %v", first[0])
	}
}

type discardCloser struct{ io.Writer }

func (discardCloser) Close() error { return nil }

// The ceilings below are for allocations per stripe, not per row: a
// 2000-row stripe that allocated per row would overshoot them at least
// fifteen-fold. A stripe scan allocates 40 (batch) or 44 (row) objects,
// none of them per stream, and at most 59 in 80 -race runs; its ceiling
// leaves ~20 objects of room for sync.Pool misses (under -race the pool
// drops a quarter of what is put back), which cost an inflater and its
// buffers. Writing a stripe allocates 2 objects, so one allocation per
// column stream (seven a stripe) overshoots its ceiling; under -race
// pool misses cost deflaters and the stripe buffers they carry, so the
// ceiling there is looser.
const (
	scanStripeAllocCeiling      = 80
	writeStripeAllocCeiling     = 6
	writeStripeAllocCeilingRace = 24
)

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func TestWriteStripeAllocs(t *testing.T) {
	rows := identityRows(2000, 7)
	ow := newORCWriter(discardCloser{io.Discard}, identitySchema(), ORCOptions{})
	stripe := func() {
		for _, row := range rows {
			if err := ow.Write(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := ow.flushStripe(); err != nil {
			t.Fatal(err)
		}
	}
	stripe() // size the scratch
	got := testing.AllocsPerRun(20, stripe)
	ceiling := writeStripeAllocCeiling
	if raceBuild() {
		ceiling = writeStripeAllocCeilingRace
	}
	if got > float64(ceiling) {
		t.Errorf("writing a 2000-row stripe: %.0f allocations, ceiling %d", got, ceiling)
	}
	t.Logf("%.0f allocations per stripe written", got)

	tw := newTextWriter(discardCloser{io.Discard}, identitySchema())
	text := func() {
		for _, row := range rows {
			if err := tw.Write(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	text()
	if got := testing.AllocsPerRun(20, text); got > 0 {
		t.Errorf("writing 2000 text rows: %.0f allocations, want 0", got)
	}
}

func TestScanStripeAllocs(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n"}})
	schema := identitySchema()
	writeRows(t, fs, "/allocs", FormatORC, schema, identityRows(2000, 7))
	sz, _ := fs.Size("/allocs")
	split := dfs.Split{Path: "/allocs", Length: sz}
	for _, batch := range []bool{false, true} {
		scan := func() {
			if got, err := scanSplit(fs, split, schema, batch); err != io.EOF || got.rows != 2000 {
				t.Fatalf("scan: %d rows, %v", got.rows, err)
			}
		}
		scan()
		// Opening the split and sizing a new reader's scratch is part
		// of the figure.
		got := testing.AllocsPerRun(20, scan)
		if got > scanStripeAllocCeiling {
			t.Errorf("scanning a 2000-row stripe (batch=%v): %.0f allocations, ceiling %d", batch, got, scanStripeAllocCeiling)
		}
		t.Logf("batch=%v: %.0f allocations per stripe", batch, got)
	}
}
