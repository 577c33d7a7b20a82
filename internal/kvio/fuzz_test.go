package kvio

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// The parsers of shuffle bytes are CountPairs, WireSource and
// Run.AppendBlock; FuzzRunSort holds the run's radix sorts to their
// comparisons. The seed corpora live in testdata/fuzz; run the targets
// with `make fuzz`.

// fuzzSeeds are well-formed runs added to the committed corpus.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendKV(AppendKV(nil, []byte("key"), []byte("value")), nil, nil))
	f.Add(AppendKV(nil, bytes.Repeat([]byte("k"), 200), bytes.Repeat([]byte("v"), 300)))
}

// FuzzWireSource: every input ends in io.EOF or an error, never a
// panic. When CountPairs accepts the input, WireSource yields exactly
// that many pairs, which re-encode to the input; when it rejects it,
// WireSource stops on the same error.
func FuzzWireSource(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, countErr := CountPairs(data)
		s := &WireSource{Buf: data}
		var rebuilt []byte
		pairs := 0
		for {
			p, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if countErr == nil {
					t.Fatalf("CountPairs accepts %d pairs; WireSource fails after %d: %v", n, pairs, err)
				}
				if err.Error() != countErr.Error() {
					t.Fatalf("WireSource %q, CountPairs %q", err, countErr)
				}
				return
			}
			pairs++
			rebuilt = AppendKV(rebuilt, p.Key, p.Value)
		}
		if countErr != nil {
			t.Fatalf("CountPairs rejects (%v); WireSource reached EOF after %d pairs", countErr, pairs)
		}
		if pairs != n {
			t.Fatalf("WireSource yields %d pairs, CountPairs %d", pairs, n)
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("pairs re-encode to %x, input %x", rebuilt, data)
		}
	})
}

// FuzzRunAppendBlock: every input is appended or rejected, never a
// panic. A rejected block leaves Size and Len as they were; an accepted
// one indexes CountPairs' number of pairs whose wire bytes, in order,
// are the block.
func FuzzRunAppendBlock(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := GetRun()
		defer r.Release()
		r.Append(0, []byte("before"), []byte("the block"))
		size, pairs := r.Size(), r.Len()
		n, err := r.AppendBlock(data)
		if err != nil {
			if n != 0 || r.Size() != size || r.Len() != pairs {
				t.Fatalf("rejected block (%v): %d pairs appended, Size %d→%d, Len %d→%d", err, n, size, r.Size(), pairs, r.Len())
			}
			if _, want := CountPairs(data); want == nil || want.Error() != err.Error() {
				t.Fatalf("AppendBlock %q, CountPairs %v", err, want)
			}
			return
		}
		if want, _ := CountPairs(data); n != want || r.Len() != pairs+n || r.Size() != size+len(data) {
			t.Fatalf("appended %d pairs (CountPairs %d): Size %d→%d, Len %d→%d", n, want, size, r.Size(), pairs, r.Len())
		}
		var wire []byte
		for _, e := range r.Entries()[pairs:] {
			wire = append(wire, r.Wire(e)...)
		}
		if !bytes.Equal(wire, data) {
			t.Fatalf("indexed pairs cover %x, block %x", wire, data)
		}
	})
}

// runSortPairs cuts data into tagged pairs. Each pair starts with two
// bytes h, v. Bits 0–1 of h are the Part tag and h>>2 says what the key
// is: below 62, a key of that length; 62, the previous key and one byte
// more; 63, the previous key again, so a few bytes make a hot key. v&31
// is the value's length. The key and value bytes follow, cut short at
// the end.
func runSortPairs(data []byte) (parts []int, kvs []KV) {
	var key []byte
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n:n]
		data = data[n:]
		return b
	}
	for len(data) > 0 {
		h, v := data[0], 0
		if data = data[1:]; len(data) > 0 {
			v, data = int(data[0]&31), data[1:]
		}
		switch code := int(h >> 2); code {
		case 62:
			key = append(key[:len(key):len(key)], take(1)...)
		case 63:
		default:
			key = take(code)
		}
		parts = append(parts, int(h&3))
		kvs = append(kvs, KV{Key: key, Value: take(v)})
	}
	return parts, kvs
}

// FuzzRunSort: SortByKeyValue yields the Wire sequence slices.SortFunc
// gives under ByKeyValue, and SortByPartKey exactly the entries it gives
// under ByPartKey, on any pairs runSortPairs cuts from the input.
func FuzzRunSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, kvs := runSortPairs(data)
		r := GetRun()
		defer r.Release()
		for i, p := range kvs {
			r.Append(parts[i], p.Key, p.Value)
		}
		arrival := slices.Clone(r.Entries())

		want := slices.Clone(arrival)
		slices.SortFunc(want, r.ByKeyValue)
		r.SortByKeyValue()
		if got := r.Entries(); !bytes.Equal(sortedWires(r, got), sortedWires(r, want)) {
			t.Fatalf("SortByKeyValue order differs from slices.SortFunc(ByKeyValue) on %d pairs", len(got))
		}

		copy(r.Entries(), arrival)
		want = slices.Clone(arrival)
		slices.SortFunc(want, r.ByPartKey)
		r.SortByPartKey()
		if got := r.Entries(); !slices.Equal(got, want) {
			t.Fatalf("SortByPartKey order differs from slices.SortFunc(ByPartKey) on %d pairs", len(got))
		}
	})
}
