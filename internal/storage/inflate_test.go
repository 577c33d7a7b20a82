package storage

import (
	"bytes"
	"compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"hivempi/internal/dfs"
)

// stdInflate is the oracle: compress/flate's streaming reader, which
// the ORC reader used before inflate.go.
func stdInflate(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

// inflateSlack bounds what a cut stream can decode from its zero
// padding before a refill finds it truncated: 64 bits of at worst
// two-bit 258-byte matches.
const inflateSlack = 32 * maxMatch

// agreeWithStdlib decodes src with in and with compress/flate and fails
// unless both reject it or both return the same bytes. It returns
// compress/flate's verdict.
func agreeWithStdlib(t *testing.T, in *inflater, name string, src []byte) error {
	t.Helper()
	got, err := in.inflate(src)
	want, werr := stdInflate(src)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%s: inflate error %v, compress/flate error %v (%d-byte stream %x)", name, err, werr, len(src), head(src))
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: inflate gave %d bytes, compress/flate %d (%d-byte stream %x)", name, len(got), len(want), len(src), head(src))
	}
	if n := len(in.raw); n > maxInflateRatio*len(src)+inflateSlack {
		t.Fatalf("%s: %d bytes inflated from %d", name, n, len(src))
	}
	return werr
}

func head(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

// bitWriter packs hand-built DEFLATE streams: header fields and extra
// bits least significant bit first, Huffman codes most significant bit
// first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	w.n += n
	for ; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

func (w *bitWriter) code(c uint64, n uint) *bitWriter {
	return w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// fixed writes sym in the fixed literal/length code.
func (w *bitWriter) fixed(sym int) *bitWriter {
	switch {
	case sym < 144:
		return w.code(uint64(0x30+sym), 8)
	case sym < 256:
		return w.code(uint64(0x190+sym-144), 9)
	case sym < 280:
		return w.code(uint64(sym-256), 7)
	default:
		return w.code(uint64(0xc0+sym-280), 8)
	}
}

// dynamic writes a dynamic block header whose code-length code gives
// the lengths 0–15 four bits each (the code of a length is the length
// itself), followed by lit and dist.
func (w *bitWriter) dynamic(final uint64, lit, dist []uint8) *bitWriter {
	w.bits(final, 1).bits(2, 2)
	w.bits(uint64(len(lit)-257), 5).bits(uint64(len(dist)-1), 5).bits(19-4, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(lit, dist...) {
		w.code(uint64(l), 4)
	}
	return w
}

// sym writes symbol s of the canonical code with lengths lens.
func (w *bitWriter) sym(lens []uint8, s int) *bitWriter {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := 0
	for l := 1; l < int(lens[s]); l++ {
		code = (code + count[l]) << 1
	}
	for _, l := range lens[:s] {
		if l == lens[s] {
			code++
		}
	}
	return w.code(uint64(code), uint(lens[s]))
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// codeLens returns n zero code lengths with the given entries set.
func codeLens(n int, set map[int]uint8) []uint8 {
	lens := make([]uint8, n)
	for s, l := range set {
		lens[s] = l
	}
	return lens
}

type namedStream struct {
	name   string
	stream []byte
}

// hostileDeflate are streams compress/flate rejects, one for each rule
// of its acceptance set the ORC reader must keep.
func hostileDeflate() []namedStream {
	w := func() *bitWriter { return &bitWriter{} }
	// A literal/length code of 'a', EOB and length 3 (symbol 257), two
	// bits each but 'a' one: complete.
	lit := codeLens(257+1, map[int]uint8{'a': 1, 256: 2, 257: 2})
	overfull := w().bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(19-4, 4)
	for range codeOrder {
		overfull.bits(1, 3)
	}
	return []namedStream{
		{"deflate block type 3", w().bits(1, 1).bits(3, 2).bits(0, 13).bytes()},
		{"deflate HLIT > 286", w().dynamic(1, make([]uint8, 287), []uint8{1}).bits(0, 16).bytes()},
		{"deflate over-subscribed code-length code", overfull.bits(0, 32).bytes()},
		{"deflate incomplete literal/length code", w().
			dynamic(1, codeLens(257, map[int]uint8{'a': 2, 256: 2}), []uint8{1}).
			code(0, 2).code(1, 2).bytes()},
		// The code-length code gives 16 and 0 one bit each.
		{"deflate first code 16", w().bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).
			bits(1, 3).bits(0, 3).bits(0, 3).bits(1, 3).code(1, 1).bits(0, 32).bytes()},
		{"deflate symbol 286", w().bits(1, 1).bits(1, 2).fixed(286).fixed(256).bytes()},
		{"deflate distance symbol 30", w().bits(1, 1).bits(1, 2).fixed('a').fixed(257).code(30, 5).fixed(256).bytes()},
		{"deflate distance before the output", w().bits(1, 1).bits(1, 2).fixed('a').fixed(257).code(1, 5).fixed(256).bytes()},
		{"deflate stored NLEN mismatch", []byte{1, 5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'}},
		// Zero padding would decode as distance 1 and end of block.
		{"deflate cut mid-match", w().bits(1, 1).bits(1, 2).fixed('a').fixed(257).bytes()},
		{"deflate no final block", w().bits(0, 1).bits(1, 2).fixed('a').fixed(256).
			dynamic(0, lit, []uint8{1}).sym(lit, 'a').sym(lit, 256).bytes()},
	}
}

// edgeDeflate are streams at the edges of the acceptance set that
// compress/flate accepts.
func edgeDeflate() []namedStream {
	w := func() *bitWriter { return &bitWriter{} }
	eobOnly := codeLens(257, map[int]uint8{256: 1})
	lit := codeLens(258, map[int]uint8{'a': 1, 256: 2, 257: 2})
	return []namedStream{
		{"stored, empty, final", []byte{1, 0, 0, 0xff, 0xff}},
		{"fixed EOB only", w().bits(1, 1).bits(1, 2).fixed(256).bytes()},
		{"fixed run of one byte", w().bits(1, 1).bits(1, 2).fixed('a').fixed(285).code(0, 5).fixed(256).bytes()},
		{"single length-1 literal/length code", w().dynamic(1, eobOnly, []uint8{0}).sym(eobOnly, 256).bytes()},
		{"single length-1 distance code", w().dynamic(1, lit, []uint8{1}).
			sym(lit, 'a').sym(lit, 257).code(0, 1).sym(lit, 256).bytes()},
		{"empty distance code", w().dynamic(1, lit, []uint8{0}).sym(lit, 'a').sym(lit, 'a').sym(lit, 256).bytes()},
		{"non-final stored then fixed", append([]byte{0, 2, 0, 0xfd, 0xff, 'h', 'i'},
			w().bits(1, 1).bits(1, 2).fixed('!').fixed(256).bytes()...)},
		{"trailing bytes after the final block", append(w().bits(1, 1).bits(1, 2).fixed('x').fixed(256).bytes(), 0xde, 0xad)},
	}
}

func TestInflateHandBuiltStreams(t *testing.T) {
	in := new(inflater)
	for _, c := range hostileDeflate() {
		if err := agreeWithStdlib(t, in, c.name, c.stream); err == nil {
			t.Errorf("%s: compress/flate accepts it", c.name)
		}
	}
	for _, c := range edgeDeflate() {
		if err := agreeWithStdlib(t, in, c.name, c.stream); err != nil {
			t.Errorf("%s: compress/flate rejects it: %v", c.name, err)
		}
	}
}

// randomPayload returns n bytes of one of four shapes: random bytes
// (stored blocks), a small alphabet (literal-heavy dynamic blocks),
// short patterns repeated at distances up to the window, and a mix.
func randomPayload(r *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	shape := r.Intn(4)
	for len(out) < n {
		switch {
		case shape == 0 || shape == 3 && r.Intn(3) == 0:
			out = append(out, byte(r.Intn(256)))
		case shape == 1 || shape == 3 && r.Intn(2) == 0:
			out = append(out, "etaoin shrdlu,\n"[r.Intn(15)])
		default:
			if len(out) == 0 {
				out = append(out, byte(r.Intn(256)))
				continue
			}
			dist := 1 + r.Intn(min(len(out), 1<<15))
			for k := 3 + r.Intn(300); k > 0; k-- {
				out = append(out, out[len(out)-dist])
			}
		}
	}
	return out[:n]
}

// deflate compresses raw at level, flushing at random points so some
// streams carry empty non-final stored blocks between compressed ones.
func deflate(t *testing.T, r *rand.Rand, raw []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for len(raw) > 0 {
		k := len(raw)
		if r.Intn(4) == 0 {
			k = r.Intn(len(raw) + 1)
		}
		if _, err := fw.Write(raw[:k]); err != nil {
			t.Fatal(err)
		}
		if k < len(raw) {
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		raw = raw[k:]
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateMatchesStdlib: streams compress/flate wrote at every
// level, each also cut short and with one bit flipped, decode to the
// same bytes or the same rejection through both decoders.
func TestInflateMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	in := new(inflater)
	levels := []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}
	streams := 200
	if testing.Short() {
		streams = 40
	}
	for i := 0; i < streams; i++ {
		n := r.Intn(4 << 10)
		if i%8 == 0 {
			n = r.Intn(128 << 10)
		}
		raw := randomPayload(r, n)
		stream := deflate(t, r, raw, levels[i%len(levels)])
		if err := agreeWithStdlib(t, in, "stream", stream); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if !bytes.Equal(in.raw, raw) {
			t.Fatalf("stream %d: inflated %d bytes, wrote %d", i, len(in.raw), len(raw))
		}
		agreeWithStdlib(t, in, "cut", stream[:r.Intn(len(stream))])
		flipped := bytes.Clone(stream)
		flipped[r.Intn(len(flipped))] ^= 1 << r.Intn(8)
		agreeWithStdlib(t, in, "flipped", flipped)
	}
}

// orcStreams returns every column stream of the ORC file at path.
func orcStreams(tb testing.TB, fs *dfs.FileSystem, path string) [][]byte {
	tb.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	footer, err := readORCFooter(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	var streams [][]byte
	for _, st := range footer.Stripes {
		for ci := 0; ci+1 < len(st.ColOffsets); ci++ {
			streams = append(streams, data[st.Offset+st.ColOffsets[ci]:st.Offset+st.ColOffsets[ci+1]])
		}
	}
	return streams
}

// FuzzInflate: for any input, inflate and compress/flate both fail or
// both return the same bytes; nothing panics, and the output stays
// within deflate's largest expansion of the input.
func FuzzInflate(f *testing.F) {
	fs, path := orcTestFile(f)
	for _, s := range orcStreams(f, fs, path) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'}) // stored
	f.Add((&bitWriter{}).bits(1, 1).bits(1, 2).fixed('a').fixed(258).code(0, 5).fixed(256).bytes())
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.HuffmanOnly) // dynamic
	fw.Write([]byte("a dynamic block of literals only"))
	fw.Close()
	f.Add(buf.Bytes())
	for _, c := range append(hostileDeflate(), edgeDeflate()...) {
		f.Add(c.stream)
	}
	in := new(inflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		agreeWithStdlib(t, in, "input", src)
	})
}

// benchStreams returns the column streams of benchORC's file and the
// bytes they inflate to.
func benchStreams(b *testing.B) ([][]byte, int64) {
	fs, split := benchORC(b, 256<<10)
	streams := orcStreams(b, fs, split.Path)
	var raw int64
	for _, s := range streams {
		out, err := stdInflate(s)
		if err != nil {
			b.Fatal(err)
		}
		raw += int64(len(out))
	}
	return streams, raw
}

// smallStreams returns compressed column streams of 400-row stripes,
// whose median (~0.8 KB) is near that of the e2e write_ctas tables'
// streams (~0.9 KB), and the bytes they inflate to.
func smallStreams(b *testing.B) ([][]byte, int64) {
	var streams [][]byte
	var raw int64
	d := newDeflater()
	for _, s := range rawColumnStreams(b, identitySchema(), identityRows(12000, 11), 400) {
		streams = append(streams, d.compress(nil, s))
		raw += int64(len(s))
	}
	return streams, raw
}

// BenchmarkInflate inflates column streams through one inflater, as a
// stripe load does: every stream of benchORC's file (file), and
// smallStreams (small), whose dynamic blocks are so short that building
// their tables is a large share of the work.
func BenchmarkInflate(b *testing.B) {
	for _, c := range []struct {
		name    string
		streams func(*testing.B) ([][]byte, int64)
	}{{"file", benchStreams}, {"small", smallStreams}} {
		b.Run(c.name, func(b *testing.B) {
			streams, raw := c.streams(b)
			in := new(inflater)
			for _, s := range streams {
				in.inflate(s) // size the output buffer
			}
			b.SetBytes(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range streams {
					if _, err := in.inflate(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkInflateStdlib inflates the same streams with compress/flate
// the way the reader did before inflate.go: one reused decompressor
// Reset per stream, read into one reused buffer. It is a reference for
// BenchmarkInflate, not a committed baseline.
func BenchmarkInflateStdlib(b *testing.B) {
	streams, raw := benchStreams(b)
	var src bytes.Reader
	var out bytes.Buffer
	fr := flate.NewReader(&src)
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			src.Reset(s)
			if err := fr.(flate.Resetter).Reset(&src, nil); err != nil {
				b.Fatal(err)
			}
			out.Reset()
			if _, err := out.ReadFrom(fr); err != nil {
				b.Fatal(err)
			}
		}
	}
}
