package types

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindBool:   "boolean",
		KindInt:    "bigint",
		KindFloat:  "double",
		KindString: "string",
		KindDate:   "date",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"boolean", "int", "bigint", "double", "float", "string", "date"} {
		if _, err := ParseKind(name); err != nil {
			t.Errorf("ParseKind(%q) unexpected error: %v", name, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestDatumAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if Bool(true).Bool() != true || Bool(false).Bool() != false {
		t.Error("Bool roundtrip broken")
	}
	if Int(42).Int() != 42 {
		t.Error("Int roundtrip broken")
	}
	if Float(2.5).Float() != 2.5 {
		t.Error("Float roundtrip broken")
	}
	if Float(2.9).Int() != 2 {
		t.Error("Float->Int should truncate")
	}
	if Int(3).Float() != 3.0 {
		t.Error("Int->Float conversion broken")
	}
	if String("x").Str() != "x" {
		t.Error("String roundtrip broken")
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "1992-02-29", "1998-12-01", "2026-07-04"} {
		d, err := DateFromString(s)
		if err != nil {
			t.Fatalf("DateFromString(%q): %v", s, err)
		}
		if got := d.DateString(); got != s {
			t.Errorf("date %q round-tripped to %q", s, got)
		}
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("DateFromString should reject garbage")
	}
}

// TestAppendDateMatchesTimeFormat renders every day of the years
// 0001-9999, and a stretch of days on either side, both ways.
func TestAppendDateMatchesTimeFormat(t *testing.T) {
	var got, want []byte
	for day := int64(minISODay - 800); day <= maxISODay+800; day++ {
		got = Date(day).AppendText(got[:0])
		want = time.Unix(day*86400, 0).UTC().AppendFormat(want[:0], dateLayout)
		if !bytes.Equal(got, want) {
			t.Fatalf("day %d: %q, time.Format gives %q", day, got, want)
		}
	}
}

func TestTextRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null(), `\N`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{String("hello"), "hello"},
		{MustDate("1995-03-15"), "1995-03-15"},
		{Float(1e21), "1e+21"},
		{Float(0.1), "0.1"},
		{Date(-1), "1969-12-31"},
		{Datum{K: Kind(9)}, "?9"},
	}
	var row Row
	var want []byte
	for i, c := range cases {
		if got := c.d.Text(); got != c.want {
			t.Errorf("Text(%v) = %q, want %q", c.d, got, c.want)
		}
		if got := string(c.d.AppendText([]byte("x="))); got != "x="+c.want {
			t.Errorf("AppendText(%v) = %q, want %q", c.d, got, "x="+c.want)
		}
		if i > 0 {
			want = append(want, '|')
		}
		row, want = append(row, c.d), append(want, c.want...)
	}
	if got := row.Text('|'); got != string(want) {
		t.Errorf("Row.Text = %q, want %q", got, want)
	}
	if got := string(row.AppendText([]byte("r:"), '|')); got != "r:"+string(want) {
		t.Errorf("Row.AppendText = %q, want %q", got, "r:"+string(want))
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	cases := []Datum{
		Bool(true), Int(123456789), Float(-2.25),
		String("abc def"), MustDate("1994-01-01"),
	}
	for _, d := range cases {
		got, err := ParseText(d.Text(), d.K)
		if err != nil {
			t.Fatalf("ParseText(%q, %v): %v", d.Text(), d.K, err)
		}
		if Compare(got, d) != 0 {
			t.Errorf("ParseText(%q) = %v, want %v", d.Text(), got, d)
		}
	}
	if got, err := ParseText(`\N`, KindInt); err != nil || !got.IsNull() {
		t.Errorf(`ParseText(\N) = %v, %v; want NULL`, got, err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Int(10), String("2"), -1}, // numeric renders "10" < "2" textually
		{MustDate("1994-01-01"), MustDate("1995-01-01"), -1},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false in SQL equality")
	}
	if !Equal(Int(5), Int(5)) {
		t.Error("5 = 5 must hold")
	}
	if !Equal(Int(3), Float(3.0)) {
		t.Error("3 = 3.0 must hold across kinds")
	}
}

func TestHashConsistency(t *testing.T) {
	if Int(3).Hash() != Float(3.0).Hash() {
		t.Error("Int(3) and Float(3.0) must hash identically (join keys)")
	}
	if Int(3).Hash() == Int(4).Hash() {
		t.Error("distinct ints should (practically) hash differently")
	}
	if String("").Hash() == Null().Hash() {
		t.Error("empty string must not collide with NULL by construction")
	}
}

func TestHashPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(v int64) bool {
		return Int(v).Hash() == Int(v).Hash() &&
			Datum{K: KindDate, I: v}.Hash() == Datum{K: KindDate, I: v}.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomDatum generates an arbitrary datum for property tests.
func randomDatum(r *rand.Rand) Datum {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 1)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		for {
			f := math.Float64frombits(r.Uint64())
			if !math.IsNaN(f) {
				return Float(f)
			}
		}
	case 4:
		n := r.Intn(20)
		b := make([]byte, n)
		r.Read(b)
		return String(string(b))
	default:
		return Date(int64(r.Intn(40000) - 10000))
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomDatum(r), randomDatum(r)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, itself) != 0", a)
		}
	}
}
