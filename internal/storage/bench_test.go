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

// benchORC writes a 20k-row ORC table once per benchmark, its stripes
// cut at blockSize, and returns the FS and the whole-file split.
func benchORC(b *testing.B, blockSize int64) (*dfs.FileSystem, dfs.Split) {
	b.Helper()
	fs := dfs.New(dfs.Config{BlockSize: blockSize, Nodes: []string{"n1"}})
	schema := testSchema()
	w, err := CreateTableFile(fs, "/bench.orc", FormatORC, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range testRows(20000) {
		if err := w.Write(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	sz, err := fs.Size("/bench.orc")
	if err != nil {
		b.Fatal(err)
	}
	return fs, dfs.Split{Path: "/bench.orc", Offset: 0, Length: sz}
}

// BenchmarkORCScanRow reads the split row by row through OpenSplit: the
// batch reader of BenchmarkORCScanBatch plus the cut of each batch into
// rows, the path behind ReadAll and the e2e storage.scan replay.
func BenchmarkORCScanRow(b *testing.B) {
	fs, split := benchORC(b, 256<<10)
	schema := testSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplit(fs, split, FormatORC, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 20000 {
			b.Fatalf("read %d rows", n)
		}
	}
}

// BenchmarkORCScanBatch decodes the same split through the columnar
// path straight into vector payloads.
func BenchmarkORCScanBatch(b *testing.B) {
	fs, split := benchORC(b, 256<<10)
	schema := testSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplitBatch(fs, split, FormatORC, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		batch := vec.Get(schema.Len())
		n := 0
		for {
			err := rd.NextBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += batch.N
		}
		vec.Put(batch)
		if n != 20000 {
			b.Fatalf("read %d rows", n)
		}
	}
}

// benchWrite encodes the same 20k rows through a new writer each
// iteration. The sink discards: the dfs write has its own benchmarks,
// and without its block allocations the B/op and allocs/op here are the
// codec's alone. (allocs/op still wobbles by one or two: now and then
// a Get finds its sync.Pool empty on this P and builds a deflater and
// its stripe buffer. benchdiff allows allocs/op that much slack.)
func benchWrite(b *testing.B, open func() RowWriter) {
	rows := testRows(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := open()
		for _, row := range rows {
			if err := w.Write(row); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORCWrite cuts ~14 stripes of 5 column streams per file, at
// the stripe size the e2e geometry's 64 KiB blocks give.
func BenchmarkORCWrite(b *testing.B) {
	benchWrite(b, func() RowWriter {
		return newORCWriter(discardCloser{io.Discard}, testSchema(), ORCOptions{StripeBytes: 64 << 10})
	})
}

// BenchmarkTextWrite renders the same rows through the Text encoder.
func BenchmarkTextWrite(b *testing.B) {
	benchWrite(b, func() RowWriter { return newTextWriter(discardCloser{io.Discard}, testSchema()) })
}

// benchWriteBatch writes benchWrite's rows as the map side hands them
// to a table writer: in batches of vec.DefaultSize typed vectors.
func benchWriteBatch(b *testing.B, open func() RowWriter) {
	schema := testSchema()
	rows := testRows(20000)
	var batches []*vec.Batch
	for lo := 0; lo < len(rows); lo += vec.DefaultSize {
		chunk := rows[lo:min(lo+vec.DefaultSize, len(rows))]
		bt := vec.NewBatch(schema.Len(), len(chunk))
		for ci, v := range bt.Cols {
			v.Reset(schema.Columns[ci].Type, len(chunk))
			for lane, row := range chunk {
				v.SetDatum(lane, row[ci])
			}
		}
		bt.N = len(chunk)
		batches = append(batches, bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := open()
		for _, bt := range batches {
			if err := w.WriteBatch(bt); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORCWriteBatch is BenchmarkORCWrite through WriteBatch.
func BenchmarkORCWriteBatch(b *testing.B) {
	benchWriteBatch(b, func() RowWriter {
		return newORCWriter(discardCloser{io.Discard}, testSchema(), ORCOptions{StripeBytes: 64 << 10})
	})
}

// BenchmarkTextWriteBatch is BenchmarkTextWrite through WriteBatch.
func BenchmarkTextWriteBatch(b *testing.B) {
	benchWriteBatch(b, func() RowWriter { return newTextWriter(discardCloser{io.Discard}, testSchema()) })
}

// BenchmarkORCOpenSplits opens and drains every one-stripe split of a
// file of at least 64 stripes: each open reads the whole footer, so
// footer work grows as stripes x splits.
func BenchmarkORCOpenSplits(b *testing.B) {
	fs, whole := benchORC(b, 4<<10)
	schema := testSchema()
	splits, err := fs.Splits(whole.Path, 0)
	if err != nil {
		b.Fatal(err)
	}
	if len(splits) < 64 {
		b.Fatalf("%d splits, want at least 64", len(splits))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, sp := range splits {
			rd, err := OpenSplit(fs, sp, FormatORC, schema, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
		if n != 20000 {
			b.Fatalf("read %d rows", n)
		}
	}
}

// BenchmarkSeqScanBatch reads a 20k-row Sequence file of an
// intermediate stage's shape (int, float, string and date columns) plus
// one column whose datums are not its declared kind, so every batch
// demotes it to datum mode.
func BenchmarkSeqScanBatch(b *testing.B) {
	schema := types.NewSchema(
		types.Col("k", types.KindInt), types.Col("price", types.KindFloat),
		types.Col("name", types.KindString), types.Col("ship", types.KindDate),
		types.Col("partial", types.KindInt))
	const rows = 20000
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n1"}})
	w, err := CreateTableFile(fs, "/part.seq", FormatSequence, schema)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		if err := w.Write(types.Row{
			types.Int(int64(r.Intn(1 << 20))),
			types.Float(float64(r.Intn(100000)) / 100),
			types.String(fmt.Sprintf("Customer#%09d", r.Intn(150000))),
			types.Date(int64(8000 + r.Intn(2500))),
			types.Float(float64(r.Intn(1000)) / 8), // a double in a bigint column
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	size, err := fs.Size("/part.seq")
	if err != nil {
		b.Fatal(err)
	}
	split := dfs.Split{Path: "/part.seq", Length: size}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenSplitBatch(fs, split, FormatSequence, schema, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		batch := vec.Get(schema.Len())
		n := 0
		for {
			err := rd.NextBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += batch.N
		}
		vec.Put(batch)
		if n != rows {
			b.Fatalf("read %d rows", n)
		}
	}
}

// BenchmarkTextScanBatch parses a 20k-line file of HiBench's 9-column
// uservisits shape through the batch reader: with the three columns
// the JOIN query reads of it, and with all nine.
func BenchmarkTextScanBatch(b *testing.B) {
	schema := types.NewSchema(
		types.Col("sourceip", types.KindString), types.Col("desturl", types.KindString),
		types.Col("visitdate", types.KindDate), types.Col("adrevenue", types.KindFloat),
		types.Col("useragent", types.KindString), types.Col("countrycode", types.KindString),
		types.Col("languagecode", types.KindString), types.Col("searchword", types.KindString),
		types.Col("duration", types.KindInt))
	const rows = 20000
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, Nodes: []string{"n1"}})
	w, err := CreateTableFile(fs, "/uservisits", FormatText, schema)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		if err := w.Write(types.Row{
			types.String(fmt.Sprintf("158.112.%d.%d", r.Intn(256), r.Intn(256))),
			types.String(fmt.Sprintf("http://site%03d.example.com/page%d.html", r.Intn(997), r.Intn(100000))),
			types.Date(10592 + r.Int63n(730)),
			types.Float(float64(r.Intn(100000)) / 100),
			types.String("Mozilla/5.0"), types.String("USA"), types.String("en"), types.String("camera"),
			types.Int(int64(1 + r.Intn(10))),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	size, err := fs.Size("/uservisits")
	if err != nil {
		b.Fatal(err)
	}
	split := dfs.Split{Path: "/uservisits", Length: size}
	for _, bc := range []struct {
		name       string
		projection []int
	}{{"project3", []int{0, 1, 3}}, {"all", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd, err := OpenSplitBatch(fs, split, FormatText, schema, bc.projection, nil)
				if err != nil {
					b.Fatal(err)
				}
				batch := vec.Get(schema.Len())
				n := 0
				for {
					err := rd.NextBatch(batch)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n += batch.N
				}
				vec.Put(batch)
				if n != rows {
					b.Fatalf("read %d rows", n)
				}
			}
		})
	}
}
