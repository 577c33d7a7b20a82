package vec

import (
	"math/rand"
	"testing"

	"hivempi/internal/types"
)

func TestVectorDatumRoundTrip(t *testing.T) {
	cases := []types.Datum{
		types.Int(42),
		types.Bool(true),
		types.Bool(false),
		types.Float(3.5),
		types.String("abc"),
		types.Date(19000),
		types.Null(),
	}
	for _, d := range cases {
		kind := d.K
		if d.IsNull() {
			kind = KindAny
		}
		v := NewVector(kind, 4)
		v.SetDatum(2, d)
		got := v.Datum(2)
		if got != d {
			t.Errorf("round trip %v: got %v", d, got)
		}
	}
}

func TestNullBitmap(t *testing.T) {
	v := NewVector(types.KindInt, 200)
	if v.AnyNulls(200) {
		t.Fatal("fresh vector reports nulls")
	}
	v.SetNull(0)
	v.SetNull(63)
	v.SetNull(64)
	v.SetNull(199)
	for i := 0; i < 200; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 199
		if v.Null(i) != want {
			t.Fatalf("Null(%d) = %v, want %v", i, v.Null(i), want)
		}
	}
	if !v.AnyNulls(200) {
		t.Error("AnyNulls missed set bits")
	}
	edge := NewVector(types.KindInt, 200)
	edge.SetNull(63)
	if edge.AnyNulls(63) {
		t.Error("AnyNulls(63) sees bit 63")
	}
	if !edge.AnyNulls(64) {
		t.Error("AnyNulls(64) misses bit 63")
	}
	v.ClearNull(63)
	if v.Null(63) {
		t.Error("ClearNull(63) had no effect")
	}
}

// TestSetNullRangeSetsExactlyTheRange: every [lo,hi) over three words,
// including the empty range and ranges ending on a word boundary.
func TestSetNullRangeSetsExactlyTheRange(t *testing.T) {
	const n = 192
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			v := NewVector(types.KindInt, n)
			v.SetNullRange(lo, hi)
			for i := 0; i < n; i++ {
				if want := i >= lo && i < hi; v.Null(i) != want {
					t.Fatalf("SetNullRange(%d,%d): Null(%d) = %v", lo, hi, i, v.Null(i))
				}
			}
		}
	}
}

func TestAnyNullsTailWordMasking(t *testing.T) {
	v := NewVector(types.KindInt, 128)
	v.SetNull(100)
	if v.AnyNulls(100) {
		t.Error("bit 100 visible at n=100")
	}
	if !v.AnyNulls(101) {
		t.Error("bit 100 invisible at n=101")
	}
}

func TestOrNullsFrom(t *testing.T) {
	a := NewVector(types.KindInt, 130)
	b := NewVector(types.KindInt, 130)
	a.SetNull(5)
	b.SetNull(77)
	out := NewVector(types.KindInt, 130)
	out.CopyNullsFrom(a, 130)
	out.OrNullsFrom(b, 130)
	for i := 0; i < 130; i++ {
		want := i == 5 || i == 77
		if out.Null(i) != want {
			t.Fatalf("merged Null(%d) = %v, want %v", i, out.Null(i), want)
		}
	}
}

func TestResetClearsNullsAndRetypes(t *testing.T) {
	v := NewVector(types.KindString, 64)
	v.SetDatum(0, types.String("x"))
	v.SetNull(10)
	v.Reset(types.KindInt, 64)
	if v.AnyNulls(64) {
		t.Error("Reset kept null bits")
	}
	v.SetDatum(0, types.Int(7))
	if got := v.Datum(0); got != types.Int(7) {
		t.Errorf("after retype: %v", got)
	}
}

func TestKindNullVectorIsAllNull(t *testing.T) {
	v := NewVector(types.KindNull, 10)
	for i := 0; i < 10; i++ {
		if !v.Datum(i).IsNull() {
			t.Fatalf("row %d not null", i)
		}
	}
}

func TestBatchCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBatch(3, n)
		b.Cols[0].Reset(types.KindInt, n)
		b.Cols[1].Reset(types.KindString, n)
		b.Cols[2].Reset(KindAny, n)
		b.N = n
		type rowVal struct{ a, b, c types.Datum }
		var want []rowVal
		mask := make([]bool, n)
		for i := 0; i < n; i++ {
			ra, rb, rc := types.Int(int64(i)), types.String(string(rune('a'+i%26))), types.Float(float64(i)/2)
			if i%7 == 0 {
				ra = types.Null()
			}
			b.Cols[0].SetDatum(i, ra)
			b.Cols[1].SetDatum(i, rb)
			b.Cols[2].SetDatum(i, rc)
			mask[i] = rng.Intn(2) == 0
			if mask[i] {
				want = append(want, rowVal{ra, rb, rc})
			}
		}
		b.Compact(mask)
		if b.N != len(want) {
			t.Fatalf("trial %d: N=%d, want %d", trial, b.N, len(want))
		}
		for i, w := range want {
			got := rowVal{b.Cols[0].Datum(i), b.Cols[1].Datum(i), b.Cols[2].Datum(i)}
			if got != w {
				t.Fatalf("trial %d row %d: got %+v want %+v", trial, i, got, w)
			}
		}
	}
}

func TestBatchRowMaterialize(t *testing.T) {
	b := NewBatch(2, 4)
	b.Cols[0].Reset(types.KindInt, 4)
	b.Cols[1].Reset(types.KindString, 4)
	b.N = 2
	b.Cols[0].SetDatum(0, types.Int(1))
	b.Cols[1].SetDatum(0, types.Null())
	row := b.Row(0, nil)
	if row[0] != types.Int(1) || !row[1].IsNull() {
		t.Errorf("row = %v", row)
	}
	// Reuse: same backing array when capacity suffices.
	row2 := b.Row(1, row)
	if &row2[0] != &row[0] {
		t.Error("Row reallocated despite capacity")
	}
}

func TestPoolReuse(t *testing.T) {
	b := Get(3)
	if len(b.Cols) != 3 || b.N != 0 {
		t.Fatalf("Get: cols=%d n=%d", len(b.Cols), b.N)
	}
	b.Cols[0].Reset(types.KindString, 8)
	b.Cols[0].SetDatum(0, types.String("retained?"))
	b.N = 1
	Put(b)
	g := Get(2)
	if len(g.Cols) != 2 {
		t.Fatalf("Get(2): cols=%d", len(g.Cols))
	}
	for _, v := range g.Cols {
		for _, s := range v.Str {
			if s != "" {
				t.Error("pooled batch retained string payload")
			}
		}
	}
}
