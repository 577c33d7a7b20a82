package storage

import (
	"bytes"
	"compress/flate"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hivempi/internal/types"
)

// oracleWriter is compress/flate at BestSpeed, Reset for each stream as
// the writer used it before deflate.go; stdDeflate's results alias its
// buffer.
var (
	oracleBuf       bytes.Buffer
	oracleWriter, _ = flate.NewWriter(&oracleBuf, flate.BestSpeed)
)

// stdDeflate is the oracle: compress/flate at BestSpeed, one Write and
// Close. The result is valid until the next call.
func stdDeflate(tb testing.TB, src []byte) []byte {
	tb.Helper()
	oracleBuf.Reset()
	oracleWriter.Reset(&oracleBuf)
	if _, err := oracleWriter.Write(src); err != nil {
		tb.Fatal(err)
	}
	if err := oracleWriter.Close(); err != nil {
		tb.Fatal(err)
	}
	return oracleBuf.Bytes()
}

// sameAsStdlib compresses src with d, appending to a non-empty prefix,
// and fails unless the stream is compress/flate's byte for byte.
func sameAsStdlib(t *testing.T, d *deflater, name string, src []byte) {
	t.Helper()
	prefix := []byte("prefix")
	got := d.compress(bytes.Clone(prefix), src)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: compress overwrote the %d bytes before it", name, len(prefix))
	}
	got = got[len(prefix):]
	if want := stdDeflate(t, src); !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s (%d bytes): %d-byte stream, compress/flate %d, first difference at byte %d",
			name, len(src), len(got), len(want), i)
	}
}

// deflateEdgeLengths are the lengths at which the block cutting and the
// tail rules change: empty, stored tail, literals-only tail, one block
// short, exact and over, two blocks, and more.
var deflateEdgeLengths = []int{0, 1, 16, 17, 127, 128, 65534, 65535, 65536, 131070, 131071, 200003}

// edgePayloads returns inputs of n bytes of four shapes: random bytes,
// one byte repeated, a small alphabet, and repeated patterns.
func edgePayloads(r *rand.Rand, n int) map[string][]byte {
	random := make([]byte, n)
	r.Read(random)
	alphabet := make([]byte, n)
	for i := range alphabet {
		alphabet[i] = "etaoin shrdlu"[r.Intn(13)]
	}
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i % 251 * (i / 4096))
	}
	return map[string][]byte{
		"random":   random,
		"run":      bytes.Repeat([]byte{'x'}, n),
		"alphabet": alphabet,
		"pattern":  pattern,
	}
}

// rawColumnStreams returns the uncompressed column streams the ORC
// writer compresses for rows cut into stripes of stripeRows rows.
func rawColumnStreams(tb testing.TB, schema *types.Schema, rows []types.Row, stripeRows int) [][]byte {
	tb.Helper()
	cols := make([]colBuilder, schema.Len())
	var enc encScratch
	var streams [][]byte
	for lo := 0; lo < len(rows); lo += stripeRows {
		for ci, c := range schema.Columns {
			cols[ci].reset(c.Type)
		}
		for _, row := range rows[lo:min(lo+stripeRows, len(rows))] {
			for ci, d := range row {
				cols[ci].appendDatum(d)
			}
		}
		for ci := range cols {
			raw, err := cols[ci].encode(nil, &enc)
			if err != nil {
				tb.Fatal(err)
			}
			streams = append(streams, raw)
		}
	}
	return streams
}

// huffRuleInputs returns 4 KiB blocks of random bytes that start with
// a run of one 4-byte pattern, the run growing in 8-byte steps so that
// its matches remove from none to twice 1/16 of the block.
func huffRuleInputs(r *rand.Rand) [][]byte {
	var out [][]byte
	for k := 0; k <= 64; k++ {
		b := make([]byte, 4096)
		r.Read(b)
		for i := range 8 * k {
			b[i] = "abcd"[i%4]
		}
		out = append(out, b)
	}
	return out
}

// TestDeflateMatchesStdlib: the encoder writes compress/flate's
// BestSpeed stream byte for byte, at the edge lengths, on every kind of
// column stream, on both sides of the 1/16 rule and on random inputs.
func TestDeflateMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := newDeflater()
	for _, n := range deflateEdgeLengths {
		for shape, src := range edgePayloads(r, n) {
			sameAsStdlib(t, d, shape, src)
		}
	}

	schema := identitySchema()
	rows := identityRows(3000, 3)
	for _, stripeRows := range []int{3, 20, 300, 3000} {
		for i, raw := range rawColumnStreams(t, schema, rows, stripeRows) {
			sameAsStdlib(t, d, schema.Columns[i%schema.Len()].Name, raw)
		}
	}

	var huff, dynamic int
	for _, b := range huffRuleInputs(r) {
		if n := d.encode(b, nil); n > len(b)-len(b)>>4 {
			huff++
		} else {
			dynamic++
		}
		sameAsStdlib(t, d, "1/16 rule", b)
	}
	if huff < 20 || dynamic < 20 {
		t.Errorf("1/16 rule: %d literals-only blocks and %d with matches, want both sides covered", huff, dynamic)
	}

	streams := 300
	if testing.Short() {
		streams = 60
	}
	for i := 0; i < streams; i++ {
		n := r.Intn(4 << 10)
		if i%8 == 0 {
			n = r.Intn(70000)
		}
		sameAsStdlib(t, d, "random", randomPayload(r, n))
	}
}

// refLevel is the state of one level of bitCounts' package-merge.
type refLevel struct {
	lastFreq     int32 // the frequency of the level's last node
	nextCharFreq int32 // that of the next leaf to add
	nextPairFreq int32 // that of the next pair from the level below
	needed       int32 // chains left to build on this level
}

// refBitCounts is compress/flate's huffmanEncoder.bitCounts, the lazy
// boundary package-merge, kept as the oracle of bitCounts.
func refBitCounts(list []int32, maxBits int, count *[16]int) int {
	n := int32(len(list) - 1)
	top := int32(min(maxBits, int(n)-1))

	// Level 0 is bogus, there so that level 1's nextPairFreq is a
	// legitimate value that is never chosen.
	var levels [16]refLevel
	// leafCounts[i][j] is the number of leaves left of the level j
	// ancestor of level i's rightmost node.
	var leafCounts [16][16]int32
	for level := int32(1); level <= top; level++ {
		levels[level] = refLevel{
			lastFreq:     list[1],
			nextCharFreq: list[2],
			nextPairFreq: list[0] + list[1],
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// The top level needs 2n-2 items and has 2.
	levels[top].needed = 2*n - 4

	level := top
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: never come back to this level.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next node is a leaf.
			c := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = c
			l.nextCharFreq = list[c]
		} else {
			// The next node is a pair from the level below, whose leaf
			// counts it takes but for its own level's.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// This level is done: pass its last pair up.
			if level == top {
				break
			}
			levels[level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// Replenish the levels below that were drawn from.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	if leafCounts[top][top] != n {
		panic("storage: deflate package-merge did not place every leaf")
	}
	counts := &leafCounts[top]
	for l := int32(1); l <= top; l++ {
		count[l] = int(counts[top-l+1] - counts[top-l])
	}
	return int(top)
}

// TestBitCountsMatchesPackageMerge: huffmanCounts where it answers,
// and bitCounts (which copies a level's leaf counts from the level
// below as one array) everywhere, give compress/flate's code lengths on
// sorted frequency lists of every size from 3 to 286 symbols, with few
// and many ties and skewed enough to hit the length limit, under the
// limits of the literal (15) and code-length (7) codes. Small lists,
// where ties decide most, are drawn many times.
func TestBitCountsMatchesPackageMerge(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := newDeflater()
	var huffman, limited int
	for n := 3; n <= maxLitSym; n++ {
		rounds := 4
		if n <= 40 {
			rounds = 400
		}
		for round := range rounds {
			shape := round % 4
			list := make([]int32, n+1)
			for i := range n {
				switch shape {
				case 0: // few ties
					list[i] = 1 + r.Int31n(65535)
				case 1: // many ties, from two to six distinct weights
					list[i] = 1 + r.Int31n(int32(2+round%5))
				case 2: // geometric: deep codes, the limit binds
					list[i] = 1 + int32(math.Min(60000, math.Pow(1.6, float64(r.Intn(24)))))
				default: // small blocks' counts
					list[i] = 1 + int32(r.ExpFloat64()*8)
				}
			}
			slices.Sort(list[:n])
			list[n] = math.MaxInt32
			for _, maxBits := range []int{maxCodegenBits, maxCodeBits} {
				if n > 1<<maxBits {
					continue
				}
				var got, fast, want [16]int
				gl := bitCounts(list, maxBits, &got)
				wl := refBitCounts(list, maxBits, &want)
				if gl != wl || got != want {
					t.Fatalf("n=%d shape %d limit %d: lengths %v (max %d), compress/flate's %v (max %d)",
						n, shape, maxBits, got, gl, want, wl)
				}
				if fl := d.huffmanCounts(list, maxBits, &fast); fl == 0 {
					limited++
				} else if huffman++; fast != want {
					t.Fatalf("n=%d shape %d limit %d: Huffman tree lengths %v, compress/flate's %v",
						n, shape, maxBits, fast, want)
				}
			}
		}
	}
	if huffman < 1000 || limited < 1000 {
		t.Errorf("%d lists coded by the Huffman tree and %d with the limit binding, want both many", huffman, limited)
	}
}

// TestDeflatePooledMatchesFresh: one encoder that has compressed
// thousands of streams writes what a new one writes, and what
// compress/flate writes, across the rebasing of its table positions
// both between streams and inside a multi-block one.
func TestDeflatePooledMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	schema := identitySchema()
	streams := rawColumnStreams(t, schema, identityRows(20000, 5), 50)
	d := newDeflater()
	for i, raw := range streams {
		got := d.compress(nil, raw)
		if i%97 == 0 {
			if fresh := newDeflater().compress(nil, raw); !bytes.Equal(got, fresh) {
				t.Fatalf("stream %d: a used encoder and a new one differ", i)
			}
			sameAsStdlib(t, d, "pooled", raw)
		}
	}
	if len(streams) < 2000 {
		t.Fatalf("%d streams, want thousands", len(streams))
	}

	long := randomPayload(r, 3*maxStoreBlockSize+100)
	for i := 1; i < 3; i++ {
		copy(long[i*maxStoreBlockSize+500:], long[i*maxStoreBlockSize-2000:i*maxStoreBlockSize-1000])
	}
	for _, c := range []struct {
		name string
		cur  int32
	}{
		// The stream's own reset passes bufferReset: the table is cleared.
		{"between streams", bufferReset - maxMatchOffset/2},
		// The second block starts past bufferReset with the first as
		// its history.
		{"inside a stream", bufferReset - maxMatchOffset - 100},
	} {
		d.cur = c.cur
		sameAsStdlib(t, d, c.name, long)
		if d.cur >= bufferReset/2 {
			t.Errorf("%s: positions not rebased (cur %d)", c.name, d.cur)
		}
		sameAsStdlib(t, d, c.name+", next stream", long)
	}
}

// TestDeflateAllocs: a warm encoder compresses a stream into a buffer
// with room for it without allocating.
func TestDeflateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := newDeflater()
	srcs := rawColumnStreams(t, identitySchema(), identityRows(2000, 7), 500)
	srcs = append(srcs, randomPayload(r, 2*maxStoreBlockSize+1000), make([]byte, 20), make([]byte, 100))
	var dst []byte
	for _, src := range srcs {
		dst = d.compress(dst[:0], src)
	}
	got := testing.AllocsPerRun(20, func() {
		for _, src := range srcs {
			dst = d.compress(dst[:0], src)
		}
	})
	if got != 0 {
		t.Errorf("compressing %d warm streams: %.0f allocations, want 0", len(srcs), got)
	}
}

// FuzzDeflate: for any input the encoder writes compress/flate's
// BestSpeed stream, and inflates back to the input.
func FuzzDeflate(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	for _, n := range deflateEdgeLengths {
		for _, src := range edgePayloads(r, n) {
			f.Add(src)
		}
	}
	for _, raw := range rawColumnStreams(f, identitySchema(), identityRows(300, 9), 100) {
		f.Add(raw)
	}
	d := newDeflater()
	in := new(inflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		sameAsStdlib(t, d, "input", src)
		out, err := in.inflate(d.compress(nil, src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("inflating the stream: %v, %d bytes back of %d", err, len(out), len(src))
		}
	})
}

// deflateBenchStreams returns the raw column streams of 400-row
// stripes, whose compressed median (~0.8 KB) is near that of the e2e
// write_ctas tables' streams (~0.9 KB), and one stream of three blocks.
func deflateBenchStreams(b *testing.B) (streams [][]byte, raw int64) {
	streams = rawColumnStreams(b, identitySchema(), identityRows(12000, 11), 400)
	streams = append(streams, randomPayload(rand.New(rand.NewSource(12)), 3*maxStoreBlockSize-1000))
	for _, s := range streams {
		raw += int64(len(s))
	}
	return streams, raw
}

// BenchmarkDeflate compresses deflateBenchStreams through one encoder
// into one reused buffer, as flushStripe does.
func BenchmarkDeflate(b *testing.B) {
	streams, raw := deflateBenchStreams(b)
	d := newDeflater()
	var dst []byte
	for _, s := range streams {
		dst = d.compress(dst[:0], s)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			dst = d.compress(dst[:0], s)
		}
	}
}

// BenchmarkDeflateStdlib compresses the same streams the way the writer
// did before deflate.go: one flate.Writer Reset per stream, into one
// reused buffer. It is a reference for BenchmarkDeflate, not a
// committed baseline.
func BenchmarkDeflateStdlib(b *testing.B) {
	streams, raw := deflateBenchStreams(b)
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			buf.Reset()
			fw.Reset(&buf)
			if _, err := fw.Write(s); err != nil {
				b.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
