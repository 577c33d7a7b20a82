package kvio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchPairs builds a deterministic working set shaped like shuffle
// traffic: short grouped keys, small values.
func benchPairs(n int) ([]KV, []byte) {
	kvs := make([]KV, n)
	var wire []byte
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i%997))
		val := []byte(fmt.Sprintf("%d", i))
		kvs[i] = KV{Key: key, Value: val}
		wire = AppendKV(wire, key, val)
	}
	return kvs, wire
}

func BenchmarkAppendKV(b *testing.B) {
	kvs, _ := benchPairs(1024)
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := kvs[i%len(kvs)]
		buf = AppendKV(buf[:0], p.Key, p.Value)
	}
}

func BenchmarkDecodeAll(b *testing.B) {
	kvs, wire := benchPairs(1024)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeAll(wire)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(kvs) {
			b.Fatalf("decoded %d pairs", len(out))
		}
	}
}

func BenchmarkSort(b *testing.B) {
	kvs, _ := benchPairs(4096)
	scratch := make([]KV, len(kvs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, kvs)
		Sort(scratch)
	}
}

// BenchmarkMerge8 merges eight sorted runs walked straight off their
// wire bytes, the shape of both engines' reduce-side merge.
func BenchmarkMerge8(b *testing.B) {
	kvs, _ := benchPairs(8 * 1024)
	var runs [8][]byte
	for r := range runs {
		part := append([]KV(nil), kvs[r*1024:(r+1)*1024]...)
		Sort(part)
		for _, p := range part {
			runs[r] = AppendKV(runs[r], p.Key, p.Value)
		}
	}
	srcs := make([]WireSource, len(runs))
	sources := make([]Source, len(runs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range runs {
			srcs[r] = WireSource{Buf: runs[r]}
			sources[r] = &srcs[r]
		}
		m, err := NewMerge(sources)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := m.Next(); err != nil {
				break
			}
			n++
		}
		if n != len(kvs) {
			b.Fatalf("merged %d pairs", n)
		}
	}
}

// BenchmarkReaderNext streams a spilled run back, the DataMPI A-side
// path when the receive cache overflowed.
func BenchmarkReaderNext(b *testing.B) {
	kvs, wire := benchPairs(4096)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr := NewReader(bytes.NewReader(wire))
		n := 0
		for {
			if _, err := kr.Next(); err != nil {
				break
			}
			n++
		}
		if n != len(kvs) {
			b.Fatalf("read %d pairs", n)
		}
	}
}

// hotKeyBlock is the text_skew shape an A task receives: one join key
// (a HiBench page URL, key-encoded) carrying 8 192 distinct values (a
// visitor's source IP and ad revenue) over a Zipf tail of cold URLs,
// in the order the senders emitted them.
func hotKeyBlock() []byte {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 1, 4096)
	url := func(i uint64) []byte {
		return []byte(fmt.Sprintf("\x02http://site%03d.example.com/page%d.html\x00\x00", i%997, i))
	}
	value := func() []byte {
		return []byte(fmt.Sprintf("\x01\x02158.112.%d.%d\x00\x00\x01%08d", rng.Intn(256), rng.Intn(256), rng.Intn(1e8)))
	}
	var wire []byte
	for i := 0; i < 8192; i++ {
		wire = AppendKV(wire, url(17), value())
		wire = AppendKV(wire, url(zipf.Uint64()), value())
	}
	return wire
}

// BenchmarkRunSortHotKey sorts one A-side cache of the hotKeyBlock
// shape into (key, value) order: through the sorted-run buffer the A
// side uses (append the block, sort the index), and through the decoded
// []KV and kvio.Sort it replaced, whose equal-key insertion sort is
// quadratic in the hot key's run.
func BenchmarkRunSortHotKey(b *testing.B) {
	wire := hotKeyBlock()
	b.Run("run", func(b *testing.B) {
		r := GetRun()
		defer r.Release()
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset()
			if _, err := r.AppendBlock(wire); err != nil {
				b.Fatal(err)
			}
			r.Sort(r.ByKeyValue)
		}
	})
	b.Run("kvio.Sort", func(b *testing.B) {
		var kvs []KV
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if kvs, err = DecodeAllInto(kvs[:0], wire); err != nil {
				b.Fatal(err)
			}
			Sort(kvs)
		}
	})
}
