package types

import (
	"encoding/binary"
	"math"
	"testing"
)

// The reduce side decodes shuffle values with RowSlab.AppendRow and
// keys with DecodeKeyDatumBytes. Their seed corpora live in
// testdata/fuzz; run the targets with `make fuzz`.

// sameBits reports whether two datums are equal field by field, floats
// by their bits.
func sameBits(a, b Datum) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// FuzzRowSlabAppendRow: every input decodes or fails, never a panic,
// and the slab grows by at most one datum and one string byte per
// input byte. A decoded row re-encodes by EncodeRow into bytes that
// decode back to it bit for bit, consumed whole.
func FuzzRowSlabAppendRow(f *testing.F) {
	f.Add(EncodeRow(nil, Row{Int(-7), Float(math.Copysign(0, -1)), String("a\x00b"), Null(), Bool(true), Date(9000)}))
	f.Add(EncodeRow(nil, Row{Float(math.NaN()), Float(math.Inf(-1)), String("")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s RowSlab
		n, err := s.AppendRow(data)
		if cap(s.Datums) > 2*len(data)+8 || cap(s.strs) > 2*len(data)+8 {
			t.Fatalf("%d input bytes grew the slab to %d datums, %d string bytes", len(data), cap(s.Datums), cap(s.strs))
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		s.Seal()
		row := Row(s.Datums)
		enc := EncodeRow(nil, row)
		var back RowSlab
		m, err := back.AppendRow(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-encoded row %x: consumed %d of %d, %v", enc, m, len(enc), err)
		}
		back.Seal()
		if len(back.Datums) != len(row) {
			t.Fatalf("%d columns back, want %d", len(back.Datums), len(row))
		}
		for i, d := range back.Datums {
			if !sameBits(d, row[i]) {
				t.Fatalf("column %d: %+v back, want %+v", i, d, row[i])
			}
		}
	})
}

// keyRoundTrip checks that d, encoded by AppendKeyDatum, decodes back
// to itself bit for bit as kind k, consuming the encoding whole.
func keyRoundTrip(t *testing.T, d Datum, k Kind, desc bool) {
	t.Helper()
	enc := AppendKeyDatum(nil, d, desc)
	back, n, err := DecodeKeyDatum(enc, k, desc)
	if err != nil || n != len(enc) || !sameBits(back, d) {
		t.Fatalf("%+v encoded to %x: decoded %+v, consumed %d of %d, %v", d, enc, back, n, len(enc), err)
	}
}

// FuzzDecodeKeyDatumBytes: every input decodes or fails, never a
// panic, and a decoded string appends no more bytes than it consumed.
// A decoded datum, and a double, an int and a string built from the
// input's bytes, encode by AppendKeyDatum into bytes that decode back
// to them bit for bit, in either direction.
func FuzzDecodeKeyDatumBytes(f *testing.F) {
	for _, d := range []Datum{Null(), Int(-1 << 63), Date(9000), Bool(true), String("a\x00\xffb"), String(""),
		Float(math.Copysign(0, -1)), Float(0), Float(math.NaN()), Float(-math.NaN()), Float(math.Inf(1))} {
		for _, desc := range []bool{false, true} {
			kind := d.K
			if kind == KindNull {
				kind = KindInt
			}
			f.Add(AppendKeyDatum(nil, d, desc), byte(kind), desc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind byte, desc bool) {
		var word [8]byte
		copy(word[:], data)
		bits := binary.LittleEndian.Uint64(word[:])
		keyRoundTrip(t, Float(math.Float64frombits(bits)), KindFloat, desc)
		keyRoundTrip(t, Int(int64(bits)), KindInt, desc)
		keyRoundTrip(t, String(string(data)), KindString, desc)

		k := Kind(kind)
		prefix := []byte("dst")
		d, dst, n, err := DecodeKeyDatumBytes(prefix, data, k, desc)
		if err != nil {
			return
		}
		if n > len(data) || len(dst)-len(prefix) > n || string(dst[:len(prefix)]) != "dst" {
			t.Fatalf("consumed %d of %d bytes, appended %q", n, len(data), dst)
		}
		if d.K == KindString {
			d.S = string(dst[len(prefix):])
		}
		keyRoundTrip(t, d, k, desc)
	})
}
