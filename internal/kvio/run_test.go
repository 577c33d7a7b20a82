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

// TestRunSortOrders: a run filled block by block and sorted by ByKeyValue
// yields the pairs in kvio.Sort's order; filled pair by pair with
// partition tags and sorted by ByPartKey it yields sort.SliceStable's
// (partition, key) order; and every entry's Wire is AppendKV's bytes.
func TestRunSortOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		kvs := runPairs(rng, rng.Intn(600))

		r := GetRun()
		for _, b := range blocks(kvs, 1+rng.Intn(300)) {
			if _, err := r.AppendBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		if r.Len() != len(kvs) {
			t.Fatalf("%d pairs indexed, %d appended", r.Len(), len(kvs))
		}
		r.Sort(r.ByKeyValue)
		want := append([]KV(nil), kvs...)
		Sort(want)
		if got := drainSource(t, r.Source()); !bytes.Equal(got, drainSource(t, &SliceSource{KVs: want})) {
			t.Fatalf("round %d: ByKeyValue order differs from kvio.Sort's", round)
		}
		r.Release()

		r = GetRun()
		parts := make([]int, len(kvs))
		for i, p := range kvs {
			parts[i] = rng.Intn(3)
			r.Append(parts[i], p.Key, p.Value)
		}
		r.Sort(r.ByPartKey)
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
		r.Release()
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
	for _, bad := range [][]byte{{0x80}, {0x05, 'a'}, append(append([]byte(nil), good...), 0x01)} {
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
	r.Sort(r.ByPartKey)
	var got []string
	err := r.Groups(r.Entries(), func(key []byte, values [][]byte) error {
		got = append(got, string(key)+":"+string(bytes.Join(values, nil)))
		return nil
	})
	if want := []string{"a:14", "b:025", "c:3"}; err != nil || !slices.Equal(got, want) {
		t.Errorf("Groups = %v, %v; want %v", got, err, want)
	}
}
