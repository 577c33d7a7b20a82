package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary row codec
//
// The binary encoding is used for sequence files, spill files and all
// shuffle traffic. A row is encoded as a varint column count followed by
// one (kind byte, payload) pair per column. The encoding is
// self-describing so shuffle values can be decoded without the schema.

// AppendDatum appends the binary encoding of d to buf.
func AppendDatum(buf []byte, d Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case KindNull:
	case KindBool:
		if d.I != 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindInt, KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	}
	return buf
}

// DecodeDatum decodes one datum from buf, returning it and the number of
// bytes consumed.
func DecodeDatum(buf []byte) (Datum, int, error) {
	d, s, n, err := DecodeDatumBytes(buf)
	if d.K == KindString {
		d.S = string(s)
	}
	return d, n, err
}

// DecodeDatumBytes is DecodeDatum without the string copy: a string
// datum comes back with an empty S and its bytes in s, which alias buf.
// Readers that cut many strings from one arena use it.
func DecodeDatumBytes(buf []byte) (d Datum, s []byte, n int, err error) {
	if len(buf) == 0 {
		return Datum{}, nil, 0, fmt.Errorf("decode datum: empty buffer")
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return Null(), nil, pos, nil
	case KindBool:
		if len(buf) < 2 {
			return Datum{}, nil, 0, fmt.Errorf("decode bool: short buffer")
		}
		return Bool(buf[1] != 0), nil, 2, nil
	case KindInt, KindDate:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Datum{}, nil, 0, fmt.Errorf("decode int: bad varint")
		}
		return Datum{K: k, I: v}, nil, pos + n, nil
	case KindFloat:
		if len(buf) < pos+8 {
			return Datum{}, nil, 0, fmt.Errorf("decode float: short buffer")
		}
		bits := binary.LittleEndian.Uint64(buf[pos:])
		return Float(math.Float64frombits(bits)), nil, pos + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Datum{}, nil, 0, fmt.Errorf("decode string: bad length")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return Datum{}, nil, 0, fmt.Errorf("decode string: short buffer")
		}
		return Datum{K: KindString}, buf[pos : pos+int(l)], pos + int(l), nil
	default:
		return Datum{}, nil, 0, fmt.Errorf("decode datum: unknown kind %d", k)
	}
}

// EncodeRow appends the binary encoding of the row to buf.
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, d := range r {
		buf = AppendDatum(buf, d)
	}
	return buf
}

// DecodeRow decodes a row encoded by EncodeRow, returning the row and
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("decode row: bad column count")
	}
	pos := used
	// Every datum takes at least its kind byte.
	if n > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("decode row: %d columns in %d bytes", n, len(buf)-pos)
	}
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		d, c, err := DecodeDatum(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("decode row column %d: %w", i, err)
		}
		row = append(row, d)
		pos += c
	}
	return row, pos, nil
}

// Order-preserving key codec
//
// Shuffle sort keys are encoded into bytes whose lexicographic order
// matches the Compare order of the datum sequence, so the shuffle can
// sort raw byte slices without decoding. A descending column is encoded
// by complementing the ascending encoding.

// AppendKeyDatum appends an order-preserving encoding of d.
func AppendKeyDatum(buf []byte, d Datum, desc bool) []byte {
	start := len(buf)
	switch d.K {
	case KindNull:
		buf = append(buf, 0x00)
	case KindBool, KindInt, KindDate:
		buf = append(buf, 0x01)
		// Bias to unsigned so byte order matches numeric order.
		u := uint64(d.I) ^ (1 << 63)
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	case KindFloat:
		buf = append(buf, 0x01)
		bits := math.Float64bits(d.F)
		if d.F >= 0 || bits == 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], bits)
		buf = append(buf, tmp[:]...)
	case KindString:
		buf = append(buf, 0x02)
		// Escape 0x00 -> 0x00 0xFF so the terminator 0x00 0x00 sorts
		// before any continuation.
		for i := 0; i < len(d.S); i++ {
			b := d.S[i]
			buf = append(buf, b)
			if b == 0x00 {
				buf = append(buf, 0xFF)
			}
		}
		buf = append(buf, 0x00, 0x00)
	}
	if desc {
		for i := start; i < len(buf); i++ {
			buf[i] = ^buf[i]
		}
	}
	return buf
}

// Key kind tags, used when decoding order-preserving keys.
const (
	keyTagNull   = 0x00
	keyTagNumber = 0x01
	keyTagString = 0x02
)

// DecodeKeyDatum decodes a datum written by AppendKeyDatum. The numeric
// encoding does not distinguish int from float, so the caller supplies
// the expected kind. Returns the datum and bytes consumed.
func DecodeKeyDatum(buf []byte, k Kind, desc bool) (Datum, int, error) {
	if len(buf) == 0 {
		return Datum{}, 0, fmt.Errorf("decode key: empty buffer")
	}
	get := func(i int) byte {
		if desc {
			return ^buf[i]
		}
		return buf[i]
	}
	switch get(0) {
	case keyTagNull:
		return Null(), 1, nil
	case keyTagNumber:
		if len(buf) < 9 {
			return Datum{}, 0, fmt.Errorf("decode key number: short buffer")
		}
		var tmp [8]byte
		for i := 0; i < 8; i++ {
			tmp[i] = get(1 + i)
		}
		u := binary.BigEndian.Uint64(tmp[:])
		if k == KindFloat {
			if u&(1<<63) != 0 {
				u ^= 1 << 63
			} else {
				u = ^u
			}
			return Float(math.Float64frombits(u)), 9, nil
		}
		d := Datum{K: k, I: int64(u ^ (1 << 63))}
		if k == KindBool || k == KindInt || k == KindDate {
			return d, 9, nil
		}
		return Datum{K: KindInt, I: d.I}, 9, nil
	case keyTagString:
		var out []byte
		i := 1
		for {
			if i >= len(buf) {
				return Datum{}, 0, fmt.Errorf("decode key string: unterminated")
			}
			b := get(i)
			if b == 0x00 {
				if i+1 >= len(buf) {
					return Datum{}, 0, fmt.Errorf("decode key string: truncated escape")
				}
				next := get(i + 1)
				if next == 0x00 { // terminator
					return String(string(out)), i + 2, nil
				}
				if next == 0xFF { // escaped NUL
					out = append(out, 0x00)
					i += 2
					continue
				}
				return Datum{}, 0, fmt.Errorf("decode key string: bad escape %x", next)
			}
			out = append(out, b)
			i++
		}
	default:
		return Datum{}, 0, fmt.Errorf("decode key: unknown tag %x", get(0))
	}
}

// EncodeKey builds an order-preserving key for the given datums and
// per-column descending flags (nil descs means all ascending).
func EncodeKey(buf []byte, ds []Datum, descs []bool) []byte {
	for i, d := range ds {
		desc := false
		if descs != nil {
			desc = descs[i]
		}
		buf = AppendKeyDatum(buf, d, desc)
	}
	return buf
}
