package kvio

import (
	"bytes"
	"io"
	"testing"
)

// The parsers of shuffle bytes are CountPairs, WireSource and
// Run.AppendBlock. Their seed corpora live in testdata/fuzz; run the
// targets with `make fuzz`.

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
