package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pairs := []KV{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte{}, Value: []byte{}},
		{Key: []byte("long key with spaces"), Value: bytes.Repeat([]byte("v"), 300)},
		{Key: []byte{0, 1, 2}, Value: []byte{0xFF}},
	}
	var buf []byte
	for _, p := range pairs {
		buf = AppendKV(buf, p.Key, p.Value)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Errorf("pair %d mismatch", i)
		}
	}
}

func TestDecodeAllCorruption(t *testing.T) {
	good := AppendKV(nil, []byte("key"), []byte("value"))
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeAll(good[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	f := func(key, value []byte) bool {
		p := KV{Key: key, Value: value}
		return p.WireSize() == len(AppendKV(nil, key, value))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunAppendWireRoundTrip: the unindexed appends lay pairs down
// exactly as AppendKV encodes them, index nothing, and after Reserve
// take the reserved bytes without allocating.
func TestRunAppendWireRoundTrip(t *testing.T) {
	const n = 500
	var want []byte
	for i := 0; i < n; i++ {
		want = AppendKV(want, []byte{byte(i)}, []byte{byte(i), byte(i >> 4)})
	}
	r := GetRun()
	defer r.Release()
	r.Reserve(len(want))
	allocs := testing.AllocsPerRun(1, func() {
		r.Reset()
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				r.AppendWireKV([]byte{byte(i)}, []byte{byte(i), byte(i >> 4)})
			} else {
				r.AppendWire(AppendKV(make([]byte, 0, 8), []byte{byte(i)}, []byte{byte(i), byte(i >> 4)}))
			}
		}
	})
	if !bytes.Equal(r.Bytes(), want) || r.Size() != len(want) || r.Len() != 0 {
		t.Fatalf("%d bytes, %d pairs indexed; want %d bytes, none indexed", r.Size(), r.Len(), len(want))
	}
	if allocs != 0 {
		t.Errorf("%v allocations appending into a reserved run", allocs)
	}
	s := &WireSource{Buf: r.Bytes()}
	for i := 0; i < n; i++ {
		p, err := s.Next()
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if p.Key[0] != byte(i) {
			t.Errorf("pair %d key %v", i, p.Key)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestMergeGlobalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var sources []Source
	var all []string
	for s := 0; s < 5; s++ {
		n := r.Intn(100)
		kvs := make([]KV, n)
		for i := range kvs {
			k := []byte{byte(r.Intn(64)), byte(r.Intn(64))}
			kvs[i] = KV{Key: k, Value: []byte("v")}
			all = append(all, string(k))
		}
		Sort(kvs)
		sources = append(sources, &SliceSource{KVs: kvs})
	}
	m, err := NewMerge(sources)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		p, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p.Key))
	}
	sort.Strings(all)
	if len(got) != len(all) {
		t.Fatalf("merged %d pairs, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("position %d: %q != %q", i, got[i], all[i])
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	m, err := NewMerge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(); err != io.EOF {
		t.Errorf("empty merge should EOF, got %v", err)
	}
	m2, err := NewMerge([]Source{&SliceSource{}, &SliceSource{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Next(); err != io.EOF {
		t.Errorf("all-empty merge should EOF, got %v", err)
	}
}

func TestSortStable(t *testing.T) {
	kvs := []KV{
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("first")},
		{Key: []byte("a"), Value: []byte("second")},
	}
	Sort(kvs)
	if string(kvs[0].Value) != "first" || string(kvs[1].Value) != "second" {
		t.Error("Sort not stable for equal keys")
	}
}

func TestGrouper(t *testing.T) {
	kvs := []KV{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
		{Key: []byte("b"), Value: []byte("3")},
		{Key: []byte("c"), Value: []byte("4")},
		{Key: []byte("c"), Value: []byte("5")},
		{Key: []byte("c"), Value: []byte("6")},
	}
	g := NewGrouper(&SliceSource{KVs: kvs})
	wantKeys := []string{"a", "b", "c"}
	wantCounts := []int{2, 1, 3}
	for i := range wantKeys {
		k, vs, err := g.NextGroup()
		if err != nil {
			t.Fatal(err)
		}
		if string(k) != wantKeys[i] || len(vs) != wantCounts[i] {
			t.Errorf("group %d = %q x%d, want %q x%d", i, k, len(vs), wantKeys[i], wantCounts[i])
		}
	}
	if _, _, err := g.NextGroup(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestGrouperEmpty(t *testing.T) {
	g := NewGrouper(&SliceSource{})
	if _, _, err := g.NextGroup(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

// drainMerge returns every pair of m and the error that ended it.
func drainMerge(m *Merge) ([]KV, error) {
	var got []KV
	for {
		p, err := m.Next()
		if err != nil {
			return got, err
		}
		got = append(got, p)
	}
}

// TestMergePropertyCountPreserved merges random sorted sources — many
// of them exact duplicates of each other — and checks the stream
// against a reference: every pair present, ordered by (key, value) and,
// among exact duplicates, by source index.
func TestMergePropertyCountPreserved(t *testing.T) {
	type tagged struct {
		kv  KV
		src int
	}
	check := func(sizes []uint8) bool {
		var sources []Source
		var want []tagged
		for si, n := range sizes {
			kvs := make([]KV, int(n)%50)
			for i := range kvs {
				// Two-valued payloads: most pairs recur in other
				// sources, so only the source index separates them.
				// The value's capacity marks which source a copy came
				// from without entering any comparison.
				val := make([]byte, 1, 2+si)
				val[0] = byte(i % 2)
				kvs[i] = KV{Key: []byte{byte(i % 7)}, Value: val}
			}
			Sort(kvs)
			for _, p := range kvs {
				want = append(want, tagged{p, si})
			}
			sources = append(sources, &SliceSource{KVs: kvs})
		}
		sort.SliceStable(want, func(i, j int) bool {
			if c := bytes.Compare(want[i].kv.Key, want[j].kv.Key); c != 0 {
				return c < 0
			}
			return bytes.Compare(want[i].kv.Value, want[j].kv.Value) < 0
		})
		m, err := NewMerge(sources)
		if err != nil {
			return false
		}
		got, err := drainMerge(m)
		if err != io.EOF || len(got) != len(want) {
			return false
		}
		for i, p := range got {
			w := want[i]
			if !bytes.Equal(p.Key, w.kv.Key) || !bytes.Equal(p.Value, w.kv.Value) || cap(p.Value) != 2+w.src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, 1, 64} {
		sizes := make([]uint8, n)
		for i := range sizes {
			sizes[i] = uint8(3*i + 1)
		}
		if !check(sizes) {
			t.Errorf("%d sources: merged stream differs from the reference", n)
		}
	}
}

// failingSource yields its pairs and then err instead of io.EOF.
type failingSource struct {
	SliceSource
	err error
}

func (s *failingSource) Next() (KV, error) {
	p, err := s.SliceSource.Next()
	if err == io.EOF {
		err = s.err
	}
	return p, err
}

// TestMergeSourceErrors: a source failing with anything but io.EOF
// fails the merge with that error — at priming or mid-stream — and the
// merge never reports io.EOF afterwards, which a consumer would take
// for a complete stream.
func TestMergeSourceErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	good := func() Source {
		return &SliceSource{KVs: []KV{{Key: []byte("a")}, {Key: []byte("c")}, {Key: []byte("e")}}}
	}
	if _, err := NewMerge([]Source{good(), &failingSource{err: boom}}); err != boom {
		t.Errorf("error on a source's first Next: NewMerge returned %v", err)
	}
	bad := &failingSource{SliceSource: SliceSource{KVs: []KV{{Key: []byte("b")}, {Key: []byte("d")}}}, err: boom}
	m, err := NewMerge([]Source{good(), bad})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainMerge(m)
	if err != boom {
		t.Errorf("mid-stream source error: merge ended with %v", err)
	}
	// "d" was the failing source's last pair: pulling its successor is
	// what fails, so the merge stops before handing "d" out.
	if len(got) != 3 || string(got[2].Key) != "c" {
		t.Errorf("merged %d pairs before the error, want a b c", len(got))
	}
	if _, err := m.Next(); err != boom {
		t.Errorf("Next after a source error = %v, want the error again", err)
	}
}

// TestSortMatchesReference drives the radix path against a stdlib
// reference sort on randomized inputs: mixed key lengths, shared
// prefixes, embedded zero bytes, duplicate keys (the value tiebreak
// checked via sequence-stamped values).
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3000)
		kvs := make([]KV, n)
		for i := range kvs {
			kl := rng.Intn(12)
			key := make([]byte, kl)
			for j := range key {
				// Narrow alphabet with zero bytes → many dupes/prefixes.
				key[j] = byte(rng.Intn(4) * 0x40)
			}
			kvs[i] = KV{Key: key, Value: []byte{byte(i), byte(i >> 8)}}
		}
		want := make([]KV, n)
		copy(want, kvs)
		sort.SliceStable(want, func(i, j int) bool {
			if c := bytes.Compare(want[i].Key, want[j].Key); c != 0 {
				return c < 0
			}
			return bytes.Compare(want[i].Value, want[j].Value) < 0
		})
		Sort(kvs)
		for i := range kvs {
			if !bytes.Equal(kvs[i].Key, want[i].Key) || !bytes.Equal(kvs[i].Value, want[i].Value) {
				t.Fatalf("trial %d: pair %d = (%q,%v), want (%q,%v)",
					trial, i, kvs[i].Key, kvs[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestDecodeAllIntoReusesBacking(t *testing.T) {
	var buf []byte
	for i := 0; i < 64; i++ {
		buf = AppendKV(buf, []byte{byte(i)}, []byte("v"))
	}
	scratch, err := DecodeAllInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(scratch) != 64 {
		t.Fatalf("decoded %d pairs, want 64", len(scratch))
	}
	again, err := DecodeAllInto(scratch[:0], buf)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &scratch[0] {
		t.Error("DecodeAllInto reallocated despite sufficient capacity")
	}
	if got, _ := CountPairs(buf); got != 64 {
		t.Errorf("CountPairs = %d, want 64", got)
	}
}

// TestReaderHostileLengths: a run whose headers lie about payload
// lengths must end, after its good leading pair, in CountPairs' error
// from WireSource (the reader of every run's bytes), without allocating
// for the claim.
func TestReaderHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	pair := AppendKV(nil, []byte("key"), []byte("value"))
	present := bytes.Repeat([]byte("x"), 200<<10)
	cases := []struct {
		name string
		run  []byte
		want string // error text after the good leading pair
	}{
		{"huge key length", append(slices.Clone(huge), present...), "kvio: truncated payload at 16"},
		{"huge key length, no payload", huge, "kvio: truncated payload at 16"},
		{"huge value length", append(append([]byte{3, 'k', 'e', 'y'}, huge...), present...), "kvio: truncated payload at 20"},
		{"key length cut mid-varint", huge[:3], "kvio: bad length at 10"},
		{"value length cut mid-varint", append([]byte{3, 'k', 'e', 'y'}, huge[:3]...), "kvio: bad length at 14"},
		{"EOF between key and value", []byte{3, 'k', 'e', 'y'}, "kvio: bad length at 14"},
		{"key cut short", []byte{3, 'k'}, "kvio: truncated payload at 11"},
		{"value cut short", []byte{3, 'k', 'e', 'y', 5, 'v'}, "kvio: truncated payload at 15"},
		{"length overflows 64 bits", bytes.Repeat([]byte{0xFF}, 11), "kvio: bad length at 10"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := append(slices.Clone(pair), c.run...)
			read := func() error {
				s := &WireSource{Buf: run}
				if p, err := s.Next(); err != nil || string(p.Key) != "key" || string(p.Value) != "value" {
					t.Fatalf("leading pair = %q, %v", p, err)
				}
				_, err := s.Next()
				return err
			}
			err := read()
			if err == nil || err.Error() != c.want {
				t.Errorf("error = %v, want %s", err, c.want)
			}
			if _, want := CountPairs(run); want == nil || want.Error() != c.want {
				t.Errorf("CountPairs error = %v, want %s", want, c.want)
			}
			// The error itself is all a read allocates.
			if allocs := testing.AllocsPerRun(5, func() { _ = read() }); allocs > 3 {
				t.Errorf("%v allocations per read, want the error's alone", allocs)
			}
		})
	}
}

// TestGrouperOverWireSourcesKeepsGroupIntact: a Grouper hands a whole
// group back at once, so every value cut from a run's bytes must
// survive the merge's later Next calls — here 10 000 of them, across
// two runs, with the following group already read ahead.
func TestGrouperOverWireSourcesKeepsGroupIntact(t *testing.T) {
	const n = 10000
	value := func(run, i int) []byte { return []byte(fmt.Sprintf("run%d-value-%06d", run, i)) }
	var sources []Source
	for r := 0; r < 2; r++ {
		run := GetRun()
		defer run.Release()
		for i := 0; i < n/2; i++ {
			run.AppendWireKV([]byte("big"), value(r, i))
		}
		run.AppendWireKV([]byte("next"), []byte("tail"))
		sources = append(sources, &WireSource{Buf: run.Bytes()})
	}
	m, err := NewMerge(sources)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrouper(m)
	key, vals, err := g.NextGroup()
	if err != nil {
		t.Fatal(err)
	}
	if string(key) != "big" || len(vals) != n {
		t.Fatalf("group %q with %d values, want big with %d", key, len(vals), n)
	}
	for i, v := range vals {
		if want := value(i/(n/2), i%(n/2)); !bytes.Equal(v, want) {
			t.Fatalf("value %d = %q, want %q", i, v, want)
		}
	}
	if key, vals, err = g.NextGroup(); err != nil || string(key) != "next" || len(vals) != 2 {
		t.Errorf("second group = %q x%d, %v", key, len(vals), err)
	}
}

// TestWireSourceMatchesDecodeAll: walking the wire lazily yields the
// pairs DecodeAll does, and on damaged framing the error DecodeAll
// (that is, CountPairs) reports.
func TestWireSourceMatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var wire []byte
	for i := 0; i < 300; i++ {
		key := make([]byte, rng.Intn(4)*rng.Intn(60))
		val := make([]byte, rng.Intn(3)*rng.Intn(200))
		rng.Read(key)
		rng.Read(val)
		wire = AppendKV(wire, key, val)
	}
	want, err := DecodeAll(wire)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerge([]Source{&WireSource{Buf: wire}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainMerge(m)
	if err != io.EOF || len(got) != len(want) {
		t.Fatalf("walked %d pairs (%v), want %d", len(got), err, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("pair %d differs", i)
		}
	}
	if _, err := (&WireSource{}).Next(); err != io.EOF {
		t.Errorf("empty buffer: %v, want io.EOF", err)
	}

	damaged := [][]byte{
		wire[:len(wire)-1],
		AppendKV(nil, []byte("key"), []byte("value"))[:5],
		{3, 'k'},
		{0x80},
		append(bytes.Repeat([]byte{0xFF}, 10), 0x7F),
		binary.AppendUvarint(nil, 1<<63),
	}
	for i, buf := range damaged {
		_, want := DecodeAll(buf)
		if want == nil {
			t.Fatalf("damaged buffer %d decodes", i)
		}
		s := &WireSource{Buf: buf}
		var err error
		for err == nil {
			_, err = s.Next()
		}
		if err.Error() != want.Error() {
			t.Errorf("damaged buffer %d: WireSource %q, DecodeAll %q", i, err, want)
		}
	}
}
