package dfs

import (
	"testing"

	"hivempi/internal/imstore"
)

func benchFS() *FileSystem {
	return New(Config{
		BlockSize:   64 << 10,
		Replication: 3,
		Nodes:       []string{"s1", "s2", "s3"},
	})
}

// benchReadWrite writes one intermediate-sized file and reads it back,
// the per-stage pattern of the shuffle sink / next-stage scan path.
func benchReadWrite(b *testing.B, fs *FileSystem) {
	b.Helper()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, len(payload))
	b.SetBytes(int64(2 * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := fs.CreateOverwrite("/tmp/hive/q1/part-00000")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		r, err := fs.Open("/tmp/hive/q1/part-00000")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReadDiskTier(b *testing.B) {
	benchReadWrite(b, benchFS())
}

func BenchmarkWriteReadMemTier(b *testing.B) {
	fs := benchFS()
	s := imstore.New(64 << 20)
	s.AddRoot("/tmp/hive")
	fs.SetMemTier(s)
	benchReadWrite(b, fs)
	if fs.MemBytesWritten() == 0 {
		b.Fatal("memory tier never admitted the file")
	}
}

// BenchmarkWriterBlocks writes a four-block file in 4 KiB chunks, the
// way the table writers fill a part file.
func BenchmarkWriterBlocks(b *testing.B) {
	fs := benchFS()
	chunk := make([]byte, 4<<10)
	const size = 4 * (64 << 10)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := fs.CreateOverwrite("/tmp/hive/ctas/part-00000")
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < size; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
