// Package types defines the value model shared by every layer of the
// warehouse: column kinds, datums, rows, schemas and the binary /
// textual codecs used for storage formats and shuffle traffic.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the primitive column types supported by the HiveQL
// subset. The zero value is KindNull so that a zero Datum is a SQL NULL.
type Kind uint8

// Supported column kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate // days since 1970-01-01, stored in I
)

// String returns the HiveQL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "bigint"
	case KindFloat:
		return "double"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a HiveQL type name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "boolean":
		return KindBool, nil
	case "int", "bigint", "smallint", "tinyint", "integer":
		return KindInt, nil
	case "double", "float", "decimal":
		return KindFloat, nil
	case "string", "varchar", "char":
		return KindString, nil
	case "date", "timestamp":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("unknown type %q", s)
	}
}

// Datum is a single SQL value. Exactly one of the payload fields is
// meaningful, selected by Kind; a KindNull datum carries no payload.
type Datum struct {
	K Kind
	I int64
	F float64
	S string
}

// Convenience constructors.

// Null returns the SQL NULL datum.
func Null() Datum { return Datum{} }

// Bool builds a boolean datum.
func Bool(b bool) Datum {
	var i int64
	if b {
		i = 1
	}
	return Datum{K: KindBool, I: i}
}

// Int builds a bigint datum.
func Int(i int64) Datum { return Datum{K: KindInt, I: i} }

// Float builds a double datum.
func Float(f float64) Datum { return Datum{K: KindFloat, F: f} }

// String builds a string datum.
func String(s string) Datum { return Datum{K: KindString, S: s} }

// Date builds a date datum from days since the Unix epoch.
func Date(days int64) Datum { return Datum{K: KindDate, I: days} }

// DateFromString parses "YYYY-MM-DD" into a date datum.
func DateFromString(s string) (Datum, error) {
	t, err := time.Parse(dateLayout, s)
	if err != nil {
		return Datum{}, fmt.Errorf("parse date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// MustDate parses "YYYY-MM-DD" and panics on malformed input; it is
// intended for compile-time constants in generators and tests.
func MustDate(s string) Datum {
	d, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.K == KindNull }

// Bool returns the boolean payload (false for NULL).
func (d Datum) Bool() bool { return d.K == KindBool && d.I != 0 }

// Int returns the integer payload, converting floats by truncation.
func (d Datum) Int() int64 {
	if d.K == KindFloat {
		return int64(d.F)
	}
	return d.I
}

// Float returns the floating payload, converting ints.
func (d Datum) Float() float64 {
	if d.K == KindFloat {
		return d.F
	}
	return float64(d.I)
}

// Str returns the string payload or the textual rendering of the value.
func (d Datum) Str() string {
	if d.K == KindString {
		return d.S
	}
	return d.Text()
}

// DateString renders a date datum as YYYY-MM-DD.
func (d Datum) DateString() string {
	var buf [len(dateLayout)]byte
	return string(d.appendDate(buf[:0]))
}

const dateLayout = "2006-01-02"

// The days of 0001-01-01 and 9999-12-31, the range appendDate renders
// by arithmetic.
const (
	minISODay = -719162
	maxISODay = 2932896
)

// appendDate renders the date as time.Format does with dateLayout. The
// years 0001-9999 take the civil-from-days arithmetic (counting years
// from March, so the leap day falls last); the rest go through time.
func (d Datum) appendDate(dst []byte) []byte {
	if d.I < minISODay || d.I > maxISODay {
		return time.Unix(d.I*86400, 0).UTC().AppendFormat(dst, dateLayout)
	}
	z := d.I + 719468 // days since 0000-03-01, > 0 in range
	era, doe := z/146097, z%146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	month := mp + 3
	year := era*400 + yoe
	if month > 12 {
		month -= 12
		year++
	}
	return append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+month/10), byte('0'+month%10), '-',
		byte('0'+day/10), byte('0'+day%10))
}

// Text renders the datum the way Hive's text serde would.
func (d Datum) Text() string {
	if d.K == KindString {
		return d.S
	}
	var buf [32]byte
	return string(d.AppendText(buf[:0]))
}

// AppendText appends the datum's Text rendering to dst.
func (d Datum) AppendText(dst []byte) []byte {
	switch d.K {
	case KindNull:
		return append(dst, `\N`...)
	case KindBool:
		if d.I != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindInt:
		return strconv.AppendInt(dst, d.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, d.F, 'g', -1, 64)
	case KindString:
		return append(dst, d.S...)
	case KindDate:
		return d.appendDate(dst)
	default:
		return strconv.AppendUint(append(dst, '?'), uint64(d.K), 10)
	}
}

// ParseText parses a text-serde field into a datum of the given kind.
func ParseText(s string, k Kind) (Datum, error) {
	if s == `\N` {
		return Null(), nil
	}
	switch k {
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Datum{}, fmt.Errorf("parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String(s), nil
	case KindDate:
		return DateFromString(s)
	default:
		return Datum{}, fmt.Errorf("parse %q: unsupported kind %v", s, k)
	}
}

// Compare orders two datums. NULL sorts before every non-NULL value
// (Hive's NULLS FIRST ascending default). Numeric kinds compare
// numerically across int/float/date; strings compare bytewise.
func Compare(a, b Datum) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.K == KindString || b.K == KindString {
		as, bs := a.Str(), b.Str()
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		default:
			return 0
		}
	}
	if a.K == KindFloat || b.K == KindFloat {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality (NULL != NULL here; use Compare for sorting).
func Equal(a, b Datum) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Hash returns a stable hash of the datum, used by hash partitioners
// and hash aggregation. Equal datums (per Compare==0 among non-nulls of
// compatible kinds) hash identically.
func (d Datum) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch d.K {
	case KindNull:
		mix(0)
	case KindString:
		mix(1)
		for i := 0; i < len(d.S); i++ {
			mix(d.S[i])
		}
	case KindFloat:
		// Hash floats through their numeric value so Int(3) and
		// Float(3.0) agree when used as join keys.
		f := d.F
		if f == math.Trunc(f) && math.Abs(f) < 1e18 {
			return Int(int64(f)).Hash()
		}
		mix(2)
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	default: // bool, int, date share integer identity
		mix(3)
		v := uint64(d.I)
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	return h
}
