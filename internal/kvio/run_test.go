package kvio

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// runPairs draws pairs over a small alphabet, so keys repeat, prefix
// each other and come empty, with now and then a length past 127 bytes
// (a two-byte varint).
func runPairs(rng *rand.Rand, n int) []KV {
	field := func() []byte {
		l := rng.Intn(4)
		if rng.Intn(50) == 0 {
			l = 128 + rng.Intn(200)
		}
		b := make([]byte, l)
		for i := range b {
			b[i] = "ab\x00"[rng.Intn(3)]
		}
		return b
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: field(), Value: field()}
	}
	return kvs
}

// blocks encodes kvs into wire blocks of about size bytes.
func blocks(kvs []KV, size int) [][]byte {
	var out [][]byte
	var b []byte
	for _, p := range kvs {
		b = AppendKV(b, p.Key, p.Value)
		if len(b) >= size {
			out, b = append(out, b), nil
		}
	}
	if b != nil {
		out = append(out, b)
	}
	return out
}

func drainSource(t *testing.T, s Source) []byte {
	t.Helper()
	var out []byte
	for {
		p, err := s.Next()
		if err != nil {
			return out
		}
		out = AppendKV(out, p.Key, p.Value)
	}
}

// widePairs draws pairs that use every byte value behind a few long
// shared prefixes, with one hot key carrying about a third of them.
// Keys end in eight random bytes, so a bucket's common prefix ends
// inside an eight-byte word; values end in up to five.
func widePairs(rng *rand.Rand, n int) []KV {
	prefixes := []string{"", "\x02http://site017.example.com/", "\x02http://site017.example.com/page", "\x01\x00\x00\x00\x00\x00\x00"}
	field := func(tail int) []byte {
		b := []byte(prefixes[rng.Intn(len(prefixes))])
		for ; tail > 0; tail-- {
			b = append(b, byte(rng.Intn(256)))
		}
		return b
	}
	hot := field(8)
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: field(8), Value: field(rng.Intn(6))}
		if rng.Intn(3) == 0 {
			kvs[i].Key = hot
		}
	}
	return kvs
}

// sortedWires is the Wire bytes of entries in order.
func sortedWires(r *Run, entries []RunEntry) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, r.Wire(e)...)
	}
	return out
}

// TestRunSortOrders: a run filled block by block and sorted by
// SortByKeyValue yields the pairs in kvio.Sort's order, and the Wire
// sequence slices.SortFunc gives under ByKeyValue; filled pair by pair
// with partition tags and sorted by SortByPartKey it yields
// sort.SliceStable's (partition, key) order, and exactly the entries
// slices.SortFunc gives under ByPartKey, also when the index was sorted
// by (key, value) first. Every entry's Wire is AppendKV's bytes. The
// rounds of 1000 pairs and more run the radix passes, not only the
// insertion cutoff.
func TestRunSortOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		n := rng.Intn(600)
		if round%2 == 1 {
			n = 1000 + rng.Intn(3000)
		}
		kvs := runPairs(rng, n)
		if round%4 >= 2 {
			kvs = widePairs(rng, n)
		}

		r := GetRun()
		for _, b := range blocks(kvs, 1+rng.Intn(300)) {
			if _, err := r.AppendBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		if r.Len() != len(kvs) {
			t.Fatalf("%d pairs indexed, %d appended", r.Len(), len(kvs))
		}
		oracle := slices.Clone(r.Entries())
		slices.SortFunc(oracle, r.ByKeyValue)
		r.SortByKeyValue()
		want := append([]KV(nil), kvs...)
		Sort(want)
		if got := drainSource(t, r.Source()); !bytes.Equal(got, drainSource(t, &SliceSource{KVs: want})) {
			t.Fatalf("round %d: ByKeyValue order differs from kvio.Sort's", round)
		}
		if !bytes.Equal(sortedWires(r, r.Entries()), sortedWires(r, oracle)) {
			t.Fatalf("round %d: SortByKeyValue differs from slices.SortFunc(ByKeyValue)", round)
		}
		r.Release()

		r = GetRun()
		parts := make([]int, len(kvs))
		for i, p := range kvs {
			parts[i] = rng.Intn(3)
			if round%8 == 7 {
				parts[i] = rng.Intn(600) - 300
			}
			r.Append(parts[i], p.Key, p.Value)
		}
		oracle = slices.Clone(r.Entries())
		slices.SortFunc(oracle, r.ByPartKey)
		r.SortByPartKey()
		order := make([]int, len(kvs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			x, y := order[i], order[j]
			if parts[x] != parts[y] {
				return parts[x] < parts[y]
			}
			return bytes.Compare(kvs[x].Key, kvs[y].Key) < 0
		})
		for i, e := range r.Entries() {
			p := kvs[order[i]]
			if e.Part != parts[order[i]] || !bytes.Equal(r.Wire(e), AppendKV(nil, p.Key, p.Value)) {
				t.Fatalf("round %d: entry %d is not the stable (partition, key) order's", round, i)
			}
		}
		if !slices.Equal(r.Entries(), oracle) {
			t.Fatalf("round %d: SortByPartKey differs from slices.SortFunc(ByPartKey)", round)
		}
		r.SortByKeyValue()
		r.SortByPartKey()
		if !slices.Equal(r.Entries(), oracle) {
			t.Fatalf("round %d: SortByPartKey after SortByKeyValue differs from slices.SortFunc(ByPartKey)", round)
		}
		r.Release()
	}
}

// TestRunSortAllocs: on a warm pooled run, each sort allocates nothing,
// also from a reversed index (partitions and arrival out of order).
func TestRunSortAllocs(t *testing.T) {
	wire := hotKeyBlock()
	r := GetRun()
	defer r.Release()
	for i := 0; i < 2; i++ {
		r.Reset()
		if _, err := r.AppendBlock(wire); err != nil {
			t.Fatal(err)
		}
		for j, e := range r.Entries() {
			r.Entries()[j].Part = e.koff % 7
		}
		r.SortByKeyValue()
		r.SortByPartKey()
	}
	for name, sort := range map[string]func(){"SortByKeyValue": r.SortByKeyValue, "SortByPartKey": r.SortByPartKey} {
		if n := testing.AllocsPerRun(20, func() { slices.Reverse(r.Entries()); sort() }); n != 0 {
			t.Errorf("%s on a warm run: %v allocations, want 0", name, n)
		}
	}
}

// TestRunAppendBlockRejectsDamage: a damaged block fails with
// CountPairs' error and leaves the run as it was.
func TestRunAppendBlockRejectsDamage(t *testing.T) {
	r := GetRun()
	defer r.Release()
	good := AppendKV(nil, []byte("k"), []byte("v"))
	if _, err := r.AppendBlock(good); err != nil {
		t.Fatal(err)
	}
	// The last block's key length is a non-minimal varint for 1.
	for _, bad := range [][]byte{{0x80}, {0x05, 'a'}, append(append([]byte(nil), good...), 0x01), {0x81, 0x00, 'k', 0x00}} {
		_, want := CountPairs(bad)
		if _, err := r.AppendBlock(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("AppendBlock(%x) = %v, want %v", bad, err, want)
		}
		if r.Len() != 1 || r.Size() != len(good) {
			t.Errorf("after a rejected block: %d pairs, %d bytes", r.Len(), r.Size())
		}
	}
}

// TestRunGroups: Groups hands over each key's values in index order.
func TestRunGroups(t *testing.T) {
	r := GetRun()
	defer r.Release()
	for i, k := range []string{"b", "a", "b", "c", "a", "b"} {
		r.Append(0, []byte(k), []byte{byte('0' + i)})
	}
	r.SortByPartKey()
	var got []string
	err := r.Groups(r.Entries(), func(key []byte, values [][]byte) error {
		got = append(got, string(key)+":"+string(bytes.Join(values, nil)))
		return nil
	})
	if want := []string{"a:14", "b:025", "c:3"}; err != nil || !slices.Equal(got, want) {
		t.Errorf("Groups = %v, %v; want %v", got, err, want)
	}
}
