package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null()},
		{Int(1), String("abc"), Float(2.5), Bool(true), MustDate("1996-06-30"), Null()},
		{String(""), String(string([]byte{0, 1, 2, 0}))},
	}
	for _, r := range rows {
		buf := EncodeRow(nil, r)
		got, n, err := decodeRow(buf)
		if err != nil {
			t.Fatalf("decodeRow(%v): %v", r, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeRow consumed %d of %d bytes", n, len(buf))
		}
		if len(got) != len(r) {
			t.Fatalf("row length %d != %d", len(got), len(r))
		}
		for i := range r {
			if got[i] != r[i] {
				t.Errorf("column %d: got %v, want %v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecConcatenated(t *testing.T) {
	r1 := Row{Int(1), String("x")}
	r2 := Row{Int(2), String("y")}
	buf := EncodeRow(nil, r1)
	buf = EncodeRow(buf, r2)
	got1, n, err := decodeRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := decodeRow(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if got1[0].Int() != 1 || got2[0].Int() != 2 {
		t.Errorf("concatenated decode wrong: %v %v", got1, got2)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeDatum(nil); err == nil {
		t.Error("DecodeDatum(nil) should fail")
	}
	if _, _, err := DecodeDatum([]byte{byte(KindString), 0xFF}); err == nil {
		t.Error("truncated string should fail")
	}
	if _, _, err := DecodeDatum([]byte{200}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, _, err := decodeRow([]byte{}); err == nil {
		t.Error("DecodeRow empty should fail")
	}
}

// decodeRow decodes one encoded row through a fresh RowSlab.
func decodeRow(buf []byte) (Row, int, error) {
	var s RowSlab
	n, err := s.AppendRow(buf)
	if err != nil {
		return nil, 0, err
	}
	s.Seal()
	return s.Datums, n, nil
}

// TestRowSlabSharesOneArena decodes a key and several rows into one
// slab: every datum comes back as encoded, the strings are cut from one
// arena that owns its bytes, and a reused slab leaves the strings an
// earlier Seal handed out alone.
func TestRowSlabSharesOneArena(t *testing.T) {
	rows := []Row{
		{Int(1), String("abc"), Null(), String("")},
		{String(string([]byte{0, 'z', 0})), Float(-2.5), MustDate("1996-06-30"), Bool(true)},
		{},
		{String("tail")},
	}
	key := EncodeKey(nil, []Datum{String("k\x00ey"), Int(-4)}, []bool{true, false})
	var enc [][]byte
	for _, r := range rows {
		enc = append(enc, EncodeRow(nil, r))
	}
	var s RowSlab
	var kept []Datum
	for pass := 0; pass < 2; pass++ {
		s.Reset()
		n, err := s.AppendKey(key, KindString, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendKey(key[n:], KindInt, false); err != nil {
			t.Fatal(err)
		}
		for _, b := range enc {
			used, err := s.AppendRow(b)
			if err != nil || used != len(b) {
				t.Fatalf("AppendRow: %d of %d bytes, %v", used, len(b), err)
			}
		}
		s.Seal()
		for _, b := range enc { // the strings must not alias the input
			for i := range b {
				b[i] = 0xFF
			}
		}
		want := []Datum{String("k\x00ey"), Int(-4)}
		for _, r := range rows {
			want = append(want, r...)
		}
		if len(s.Datums) != len(want) {
			t.Fatalf("pass %d: %d datums, want %d", pass, len(s.Datums), len(want))
		}
		for i := range want {
			if s.Datums[i] != want[i] {
				t.Errorf("pass %d datum %d: got %v, want %v", pass, i, s.Datums[i], want[i])
			}
		}
		if pass == 0 {
			kept = slices.Clone(s.Datums)
		}
		for i, r := range rows {
			enc[i] = EncodeRow(enc[i][:0], r)
		}
	}
	if kept[0].S != "k\x00ey" || kept[3].S != "abc" || kept[len(kept)-1].S != "tail" {
		t.Errorf("strings kept from the first pass changed: %v", kept)
	}
}

// TestDecodeKeyDatumBytesAppends: the unescaped bytes go after what dst
// already holds, ascending and descending, and a NUL survives the
// escape.
func TestDecodeKeyDatumBytesAppends(t *testing.T) {
	for _, desc := range []bool{false, true} {
		buf := AppendKeyDatum(nil, String("a\x00\x00b"), desc)
		d, dst, n, err := DecodeKeyDatumBytes([]byte("pre"), buf, KindString, desc)
		if err != nil || n != len(buf) || d.K != KindString || d.S != "" {
			t.Fatalf("desc=%v: %v, %d of %d bytes, %v", desc, d, n, len(buf), err)
		}
		if string(dst) != "prea\x00\x00b" {
			t.Errorf("desc=%v: dst %q", desc, dst)
		}
	}
	for _, buf := range [][]byte{{}, {0x02, 'a'}, {0x02, 'a', 0x00}, {0x02, 0x00, 0x07}, {0x01, 1}, {0x09}} {
		if _, _, _, err := DecodeKeyDatumBytes(nil, buf, KindString, false); err == nil {
			t.Errorf("%x decoded", buf)
		}
	}
}

// TestDecodeRowHostileCount: a column count the buffer cannot hold is
// an error, not an allocation sized by the claim.
func TestDecodeRowHostileCount(t *testing.T) {
	for _, buf := range [][]byte{
		binary.AppendUvarint(nil, 1<<62), // the whole buffer is the count
		append(binary.AppendUvarint(nil, 1<<63+5), 0, 0),
		{9, 0, 0, 0, 0, 0, 0, 0, 0}, // one datum short
	} {
		if _, _, err := decodeRow(buf); err == nil {
			t.Errorf("%x decoded", buf)
		}
	}
	// As many NULL datums as the count claims still decode.
	row, used, err := decodeRow([]byte{3, 0, 0, 0})
	if err != nil || len(row) != 3 || used != 4 {
		t.Errorf("three NULLs: %v, %d bytes, %v", row, used, err)
	}
}

func TestKeyCodecPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 400
	ds := make([]Datum, 0, n)
	for i := 0; i < n; i++ {
		d := randomDatum(r)
		if d.K == KindFloat && math.IsInf(d.F, 0) {
			continue
		}
		ds = append(ds, d)
	}
	// Only compare datums of comparable families: group by family.
	families := map[string][]Datum{}
	for _, d := range ds {
		// Key columns are schema-typed, so order preservation is only
		// required within one encoding family: strings, floats, and the
		// integer-encoded kinds (bool/int/date share an encoding).
		var fam string
		switch d.K {
		case KindString:
			fam = "s"
		case KindFloat:
			fam = "f"
		case KindNull:
			continue
		default:
			fam = "n"
		}
		families[fam] = append(families[fam], d)
	}
	for fam, group := range families {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				ka := AppendKeyDatum(nil, a, false)
				kb := AppendKeyDatum(nil, b, false)
				cmpD := Compare(a, b)
				cmpK := bytes.Compare(ka, kb)
				if sign(cmpD) != sign(cmpK) {
					t.Fatalf("family %s: key order mismatch for %v vs %v: datum %d key %d",
						fam, a, b, cmpD, cmpK)
				}
				// Descending flips the order.
				da := AppendKeyDatum(nil, a, true)
				db := AppendKeyDatum(nil, b, true)
				if sign(bytes.Compare(da, db)) != -sign(cmpK) && cmpK != 0 {
					t.Fatalf("descending key order not flipped for %v vs %v", a, b)
				}
			}
		}
	}
}

// TestKeyFloatSignsOrderAndRoundTrip: float keys order by value with
// -0.0 just before +0.0 (they were once encoded so that -0.0 sorted
// before -Inf and decoded as NaN), and every double, NaNs included,
// decodes back bit for bit in both directions.
func TestKeyFloatSignsOrderAndRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ordered := []float64{math.Inf(-1), -1e308, -1, -math.SmallestNonzeroFloat64, negZero, 0,
		math.SmallestNonzeroFloat64, 1, 1e308, math.Inf(1)}
	for _, desc := range []bool{false, true} {
		for i := 1; i < len(ordered); i++ {
			lo := AppendKeyDatum(nil, Float(ordered[i-1]), desc)
			hi := AppendKeyDatum(nil, Float(ordered[i]), desc)
			if c := bytes.Compare(lo, hi); (c >= 0) != desc {
				t.Errorf("desc %v: key of %v vs %v compares %d", desc, ordered[i-1], ordered[i], c)
			}
		}
		for _, f := range append(ordered, math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001)) {
			d, _, err := DecodeKeyDatum(AppendKeyDatum(nil, Float(f), desc), KindFloat, desc)
			if err != nil || math.Float64bits(d.F) != math.Float64bits(f) {
				t.Errorf("desc %v: %v (%x) decodes to %v (%x), %v", desc, f, math.Float64bits(f), d.F, math.Float64bits(d.F), err)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestKeyCodecNullSortsFirst(t *testing.T) {
	kn := AppendKeyDatum(nil, Null(), false)
	for _, d := range []Datum{Int(math.MinInt64), Float(math.Inf(-1)), String("")} {
		kd := AppendKeyDatum(nil, d, false)
		if bytes.Compare(kn, kd) >= 0 {
			t.Errorf("NULL key must sort before %v", d)
		}
	}
}

func TestKeyDatumRoundTrip(t *testing.T) {
	cases := []Datum{
		Null(), Int(-5), Int(0), Int(7),
		Float(-1.25), Float(0), Float(3.5),
		String(""), String("abc"), String(string([]byte{0, 'a', 0})),
		MustDate("1997-07-01"), Bool(true),
	}
	for _, d := range cases {
		for _, desc := range []bool{false, true} {
			buf := AppendKeyDatum(nil, d, desc)
			got, n, err := DecodeKeyDatum(buf, d.K, desc)
			if err != nil {
				t.Fatalf("DecodeKeyDatum(%v desc=%v): %v", d, desc, err)
			}
			if n != len(buf) {
				t.Errorf("consumed %d of %d bytes for %v", n, len(buf), d)
			}
			if d.K == KindFloat {
				if got.Float() != d.Float() {
					t.Errorf("float round trip %v -> %v", d, got)
				}
			} else if Compare(got, d) != 0 && !(d.IsNull() && got.IsNull()) {
				t.Errorf("round trip %v -> %v (desc=%v)", d, got, desc)
			}
		}
	}
}

func TestEncodeKeyMultiColumn(t *testing.T) {
	// (1, "b") < (1, "c") < (2, "a")
	rows := [][]Datum{
		{Int(1), String("b")},
		{Int(1), String("c")},
		{Int(2), String("a")},
	}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = EncodeKey(nil, r, nil)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Error("multi-column keys not in expected order")
	}
	// Mixed asc/desc: sort by col0 asc, col1 desc.
	k1 := EncodeKey(nil, rows[0], []bool{false, true})
	k2 := EncodeKey(nil, rows[1], []bool{false, true})
	if bytes.Compare(k1, k2) <= 0 {
		t.Error("descending second column should reverse order")
	}
}

func TestKeyStringPrefixOrdering(t *testing.T) {
	// "ab" < "ab\x00" < "ab\x01": terminator must not break prefix order.
	a := AppendKeyDatum(nil, String("ab"), false)
	b := AppendKeyDatum(nil, String("ab\x00"), false)
	c := AppendKeyDatum(nil, String("ab\x01"), false)
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Error("NUL-containing string ordering broken")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindString))
	if s.Len() != 2 {
		t.Error("Len")
	}
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Error("Index")
	}
	if s.String() != "(a bigint, b string)" {
		t.Errorf("String() = %s", s.String())
	}
	if got := s.Names(); got[0] != "a" || got[1] != "b" {
		t.Error("Names")
	}
}

func TestRowText(t *testing.T) {
	row := Row{Int(5), String("hello"), Float(1.5), Null()}
	if got := row.Text('|'); got != `5|hello|1.5|\N` {
		t.Errorf("Text() = %q", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String("a")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
}
