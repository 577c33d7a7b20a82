package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// RowSlab decodes encoded rows and order-preserving keys into one datum
// slab whose strings are cut from one arena. AppendRow and AppendKey
// leave each string datum's S empty and its bytes in a pending buffer;
// Seal, called once after the last append, turns that buffer into one
// string and points every string datum at its piece. The slab is
// scratch, valid until the next Reset; the strings its datums hold
// after Seal are immutable and may outlive it.
type RowSlab struct {
	Datums []Datum
	strs   []byte // string bytes of Datums, in order
	ends   []int  // end of each string datum's bytes in strs
}

// Reset empties the slab, keeping its capacity. The datums are zeroed
// so the slab does not pin the last group's arena.
func (s *RowSlab) Reset() {
	clear(s.Datums)
	s.Datums, s.strs, s.ends = s.Datums[:0], s.strs[:0], s.ends[:0]
}

// AppendRow decodes a row encoded by EncodeRow onto Datums and returns
// the bytes consumed. The column count is bounded by the bytes left,
// since every datum takes at least its kind byte.
func (s *RowSlab) AppendRow(buf []byte) (int, error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, fmt.Errorf("decode row: bad column count")
	}
	if n > uint64(len(buf)-pos) {
		return 0, fmt.Errorf("decode row: %d columns in %d bytes", n, len(buf)-pos)
	}
	s.Datums = slices.Grow(s.Datums, int(n))
	for i := uint64(0); i < n; i++ {
		d, str, c, err := DecodeDatumBytes(buf[pos:])
		if err != nil {
			return 0, fmt.Errorf("decode row column %d: %w", i, err)
		}
		if d.K == KindString {
			s.strs = append(s.strs, str...)
			s.ends = append(s.ends, len(s.strs))
		}
		s.Datums = append(s.Datums, d)
		pos += c
	}
	return pos, nil
}

// AppendKey decodes one datum written by AppendKeyDatum onto Datums
// and returns the bytes consumed.
func (s *RowSlab) AppendKey(buf []byte, k Kind, desc bool) (int, error) {
	d, strs, n, err := DecodeKeyDatumBytes(s.strs, buf, k, desc)
	if err != nil {
		return 0, err
	}
	s.strs = strs
	if d.K == KindString {
		s.ends = append(s.ends, len(s.strs))
	}
	s.Datums = append(s.Datums, d)
	return n, nil
}

// Seal gives every string datum its string, all cut from one
// allocation.
func (s *RowSlab) Seal() {
	if len(s.ends) == 0 {
		return
	}
	arena, cell, lo := string(s.strs), 0, 0
	for i := range s.Datums {
		if s.Datums[i].K == KindString {
			hi := s.ends[cell]
			s.Datums[i].S = arena[lo:hi]
			cell, lo = cell+1, hi
		}
	}
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
		// By the sign bit, not d.F >= 0: -0.0 and the NaNs then map
		// one to one onto the key bytes and decode back bit for bit.
		bits := math.Float64bits(d.F)
		if bits&(1<<63) == 0 {
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
	var tmp [64]byte // a short string unescapes on the stack
	d, s, n, err := DecodeKeyDatumBytes(tmp[:0], buf, k, desc)
	if d.K == KindString {
		d.S = string(s)
	}
	return d, n, err
}

// DecodeKeyDatumBytes is DecodeKeyDatum without the string allocation:
// a string datum comes back with an empty S and its unescaped bytes
// appended to dst. Returns the datum, dst and the bytes consumed.
func DecodeKeyDatumBytes(dst, buf []byte, k Kind, desc bool) (Datum, []byte, int, error) {
	if len(buf) == 0 {
		return Datum{}, dst, 0, fmt.Errorf("decode key: empty buffer")
	}
	// A descending column is the complement of the ascending encoding.
	var flip byte
	if desc {
		flip = 0xFF
	}
	switch buf[0] ^ flip {
	case keyTagNull:
		return Null(), dst, 1, nil
	case keyTagNumber:
		if len(buf) < 9 {
			return Datum{}, dst, 0, fmt.Errorf("decode key number: short buffer")
		}
		u := binary.BigEndian.Uint64(buf[1:9])
		if desc {
			u = ^u
		}
		if k == KindFloat {
			if u&(1<<63) != 0 {
				u ^= 1 << 63
			} else {
				u = ^u
			}
			return Float(math.Float64frombits(u)), dst, 9, nil
		}
		i := int64(u ^ (1 << 63))
		if k == KindBool || k == KindInt || k == KindDate {
			return Datum{K: k, I: i}, dst, 9, nil
		}
		return Datum{K: KindInt, I: i}, dst, 9, nil
	case keyTagString:
		i := 1
		for {
			// Copy the run up to the next 0x00 (0xFF descending) whole.
			j := bytes.IndexByte(buf[i:], flip)
			if j < 0 {
				return Datum{}, dst, 0, fmt.Errorf("decode key string: unterminated")
			}
			start := len(dst)
			dst = append(dst, buf[i:i+j]...)
			if desc {
				for x := start; x < len(dst); x++ {
					dst[x] = ^dst[x]
				}
			}
			i += j
			if i+1 >= len(buf) {
				return Datum{}, dst, 0, fmt.Errorf("decode key string: truncated escape")
			}
			switch next := buf[i+1] ^ flip; next {
			case 0x00: // terminator
				return Datum{K: KindString}, dst, i + 2, nil
			case 0xFF: // escaped NUL
				dst = append(dst, 0x00)
				i += 2
			default:
				return Datum{}, dst, 0, fmt.Errorf("decode key string: bad escape %x", next)
			}
		}
	default:
		return Datum{}, dst, 0, fmt.Errorf("decode key: unknown tag %x", buf[0]^flip)
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
