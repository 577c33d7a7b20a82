package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

func TestIntRLERoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{1},
		{5, 5, 5, 5, 5, 5},                   // pure run
		{1, 2, 3, 4, 5},                      // pure literals
		{7, 7, 7, 7, 1, 2, 9, 9, 9, 9, 9, 3}, // mixed
		{-1, -1, -1, -1, 0, 1 << 40, -(1 << 40)},
	}
	for i, vals := range cases {
		buf := appendInts(nil, vals)
		got, n, err := decodeInts(nil, buf, len(vals))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("case %d: consumed %d of %d", i, n, len(buf))
		}
		if len(got) != len(vals) {
			t.Fatalf("case %d: %d values, want %d", i, len(got), len(vals))
		}
		for j := range vals {
			if got[j] != vals[j] {
				t.Errorf("case %d value %d: %d != %d", i, j, got[j], vals[j])
			}
		}
	}
}

func TestIntRLECompressesRuns(t *testing.T) {
	run := make([]int64, 10000)
	for i := range run {
		run[i] = 42
	}
	buf := appendInts(nil, run)
	if len(buf) > 32 {
		t.Errorf("run of 10000 encoded to %d bytes", len(buf))
	}
}

func TestIntRLEProperty(t *testing.T) {
	f := func(vals []int64) bool {
		buf := appendInts(nil, vals)
		got, _, err := decodeInts(nil, buf, len(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringDictionaryChosenForLowCardinality(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = []string{"aa", "bb", "cc"}[i%3]
	}
	buf := new(encScratch).appendStrings(nil, vals)
	// The mode byte follows the uvarint count (1000 -> 2 bytes).
	if buf[2] != strDict {
		t.Error("low-cardinality strings should use dictionary encoding")
	}
	var dc decodedColumn
	if _, err := dc.decodeStrings(buf, len(vals)); err != nil {
		t.Fatal(err)
	}
	got := dc.strs
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestStringDirectChosenForHighCardinality(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := make([]string, 200)
	for i := range vals {
		b := make([]byte, 8)
		r.Read(b)
		vals[i] = string(b)
	}
	buf := new(encScratch).appendStrings(nil, vals)
	if buf[2] != strDirect && buf[1] != strDirect {
		t.Error("unique strings should use direct encoding")
	}
	var dc decodedColumn
	if _, err := dc.decodeStrings(buf, len(vals)); err != nil {
		t.Fatal(err)
	}
	got := dc.strs
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestStringsProperty(t *testing.T) {
	f := func(vals []string) bool {
		buf := new(encScratch).appendStrings(nil, vals)
		var dc decodedColumn
		_, err := dc.decodeStrings(buf, len(vals))
		got := dc.strs
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, -1.5, 3.14159, 1e300, -1e-300}
	buf := appendFloats(nil, vals)
	got, n, err := decodeFloats(nil, buf, len(vals))
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("value %d: %g != %g", i, got[i], vals[i])
		}
	}
}

// buildColumn encodes col as one stripe column of the given kind.
func buildColumn(t *testing.T, kind types.Kind, col []types.Datum) []byte {
	t.Helper()
	var cb colBuilder
	cb.reset(kind)
	for _, d := range col {
		cb.appendDatum(d)
	}
	buf, err := cb.encode(nil, new(encScratch))
	if err != nil {
		t.Fatalf("%v encode: %v", kind, err)
	}
	return buf
}

func TestPresenceBitmap(t *testing.T) {
	col := []types.Datum{
		types.Int(1), types.Null(), types.Int(3),
		types.Null(), types.Null(), types.Int(6),
		types.Int(7), types.Int(8), types.Int(9), // crosses byte boundary
	}
	buf := buildColumn(t, types.KindInt, col)
	present, used, err := decodePresence(buf, len(col))
	if err != nil {
		t.Fatal(err)
	}
	if len(present) != 2 || present[1]&^1 != 0 {
		t.Fatalf("presence used %d of %d bytes, bitmap %08b", used, len(buf), present)
	}
	dc := decodedColumn{present: present}
	for i, d := range col {
		if dc.isPresent(i) != !d.IsNull() {
			t.Errorf("presence[%d] = %v", i, dc.isPresent(i))
		}
	}
	if _, _, err := decodePresence(buf, len(col)+1); err == nil {
		t.Error("presence count that disagrees with the stripe's rows should fail")
	}
}

// TestPresenceFromFirstNull: the builder keeps no bitmap until its
// first NULL, wherever that falls, and a builder reset after a stripe
// with NULLs writes the bitmap of the next stripe alone.
func TestPresenceFromFirstNull(t *testing.T) {
	var cb colBuilder
	for _, rows := range []int{0, 1, 7, 8, 9, 16, 17, 40} {
		for _, first := range []int{-1, 0, 1, 7, 8, 9, 15, 16, rows - 1} {
			if first >= rows {
				continue
			}
			want := make([]byte, (rows+7)/8)
			cb.reset(types.KindInt)
			for i := 0; i < rows; i++ {
				if i == first || (first >= 0 && i > first && i%3 == 0) {
					cb.appendDatum(types.Null())
					continue
				}
				want[i/8] |= 1 << (i % 8)
				cb.appendDatum(types.Int(int64(i)))
			}
			buf, err := cb.encode(nil, new(encScratch))
			if err != nil {
				t.Fatal(err)
			}
			present, _, err := decodePresence(buf, rows)
			if err != nil || !bytes.Equal(present, want) {
				t.Errorf("%d rows, first NULL at %d: bitmap %08b (%v), want %08b", rows, first, present, err, want)
			}
		}
	}
}

func TestColumnRoundTripWithNulls(t *testing.T) {
	cols := map[types.Kind][]types.Datum{
		types.KindInt: {types.Int(5), types.Null(), types.Int(-9)},
		types.KindString: {types.String("x"), types.Null(),
			types.String(""), types.String("yy")},
		types.KindFloat: {types.Null(), types.Float(2.5)},
		types.KindDate:  {types.Date(1000), types.Null(), types.Date(2000)},
		types.KindBool:  {types.Bool(true), types.Null(), types.Bool(false)},
	}
	for kind, col := range cols {
		buf := buildColumn(t, kind, col)
		var dc decodedColumn
		if err := dc.decode(kind, buf, len(col)); err != nil {
			t.Fatalf("%v decode: %v", kind, err)
		}
		var v vec.Vector
		dc.fillVector(&v, 0, len(col))
		for i := range col {
			if got := v.Datum(i); got != col[i] {
				t.Errorf("%v[%d]: %#v != %#v", kind, i, got, col[i])
			}
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	if _, _, err := decodeInts(nil, []byte{}, 8); err == nil {
		t.Error("empty int stream should fail")
	}
	good := appendInts(nil, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	if _, _, err := decodeInts(nil, good[:len(good)-2], 8); err == nil {
		t.Error("truncated int stream should fail")
	}
	goodS := new(encScratch).appendStrings(nil, []string{"hello", "world"})
	if _, err := new(decodedColumn).decodeStrings(goodS[:len(goodS)-3], 2); err == nil {
		t.Error("truncated string stream should fail")
	}
}
