package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// Column stream encodings for the ORC-like format. Each column of a
// stripe is encoded as:
//
//	[presence bitmap][values of the non-null rows]
//
// Integer-family columns (bool/int/date) use a run-length encoding:
// runs of >= minRunLength identical values become (marker, count, value)
// blocks, everything else zigzag varint literal blocks. Floats are
// fixed 8-byte little endian. Strings use dictionary encoding when the
// distinct ratio is low, otherwise direct (lengths + bytes).

const minRunLength = 4

const (
	blkRun     = 0x00
	blkLiteral = 0x01
)

const (
	strDirect = 0x00
	strDict   = 0x01
)

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodePresence checks the stream's declared row count against the
// stripe's and returns the bitmap (aliasing buf) and the bytes consumed.
func decodePresence(buf []byte, rows int) ([]byte, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc presence count")
	}
	if n != uint64(rows) {
		return nil, 0, fmt.Errorf("storage: orc column has %d rows, stripe %d", n, rows)
	}
	nbytes := (rows + 7) / 8
	if len(buf)-used < nbytes {
		return nil, 0, fmt.Errorf("storage: orc presence bitmap truncated")
	}
	return buf[used : used+nbytes], used + nbytes, nil
}

// appendInts RLE-encodes the non-null integer values.
func appendInts(buf []byte, vals []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	i := 0
	for i < len(vals) {
		// Measure the run starting at i.
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if j-i >= minRunLength {
			buf = append(buf, blkRun)
			buf = binary.AppendUvarint(buf, uint64(j-i))
			buf = binary.AppendVarint(buf, vals[i])
			i = j
			continue
		}
		// Literal block: extend until the next long run begins.
		start := i
		for i < len(vals) {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			if j-i >= minRunLength {
				break
			}
			i = j
		}
		buf = append(buf, blkLiteral)
		buf = binary.AppendUvarint(buf, uint64(i-start))
		for k := start; k < i; k++ {
			buf = binary.AppendVarint(buf, vals[k])
		}
	}
	return buf
}

// decodeInts reverses appendInts into dst's backing array, returning
// the values and bytes consumed. max bounds the declared count (a
// column never holds more values than its stripe has rows), so hostile
// input cannot size the allocation.
func decodeInts(dst []int64, buf []byte, max int) ([]int64, int, error) {
	total, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc int count")
	}
	if total > uint64(max) {
		return nil, 0, fmt.Errorf("storage: orc int count %d exceeds %d rows", total, max)
	}
	dst = resize(dst, int(total))
	pos := used
	for i := 0; i < len(dst); {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("storage: orc int stream truncated")
		}
		kind := buf[pos]
		pos++
		count, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("storage: orc int block count")
		}
		if count > uint64(len(dst)-i) {
			return nil, 0, fmt.Errorf("storage: orc int block of %d overruns count", count)
		}
		pos += n
		end := i + int(count)
		switch kind {
		case blkRun:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("storage: orc run value")
			}
			pos += n
			for ; i < end; i++ {
				dst[i] = v
			}
		case blkLiteral:
			for ; i < end; i++ {
				v, n := binary.Varint(buf[pos:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("storage: orc literal value")
				}
				pos += n
				dst[i] = v
			}
		default:
			return nil, 0, fmt.Errorf("storage: orc int block kind %d", kind)
		}
	}
	return dst, pos, nil
}

// appendFloats encodes non-null doubles as fixed 8-byte LE.
func appendFloats(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, f := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// decodeFloats reverses appendFloats into dst's backing array; max
// bounds the declared count as in decodeInts.
func decodeFloats(dst []float64, buf []byte, max int) ([]float64, int, error) {
	total, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: orc float count")
	}
	if total > uint64(max) {
		return nil, 0, fmt.Errorf("storage: orc float count %d exceeds %d rows", total, max)
	}
	if total > uint64(len(buf)-used)/8 {
		return nil, 0, fmt.Errorf("storage: orc float stream truncated")
	}
	dst = resize(dst, int(total))
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[used+i*8:]))
	}
	return dst, used + len(dst)*8, nil
}

// encScratch is the string dictionary an orcWriter keeps across
// stripes. Nothing in it outlives one appendStrings call
// but capacity.
type encScratch struct {
	dict  map[string]int
	order []string
}

// appendStrings chooses dictionary or direct encoding by distinct ratio.
func (sc *encScratch) appendStrings(buf []byte, vals []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	if sc.dict == nil {
		sc.dict = make(map[string]int)
	}
	clear(sc.dict)
	dict, order := sc.dict, resize(sc.order, len(vals)/2)
	// The dictionary pays off when at most half the values are distinct;
	// the scan stops at the first value that would pass that mark.
	n, useDict := 0, true
	for _, s := range vals {
		if _, ok := dict[s]; !ok {
			if n == len(order) {
				useDict = false
				break
			}
			dict[s] = n
			order[n] = s
			n++
		}
	}
	sc.order = order
	if useDict {
		buf = append(buf, strDict)
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, s := range order[:n] {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, s := range vals {
			buf = binary.AppendUvarint(buf, uint64(dict[s]))
		}
		return buf
	}
	buf = append(buf, strDirect)
	for _, s := range vals {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	for _, s := range vals {
		buf = append(buf, s...)
	}
	return buf
}

// colBuilder is one column of the stripe being written: the presence
// bitmap (bit set = value present, as the stream stores it) and the
// dense non-null values in the column's payload. Write appends a datum
// at a time; encode and stats read the builder. Every value it holds
// is of the column's kind: appendDatum widens an int bound for a
// double column, and the writer rejects any other mismatch before
// appending.
type colBuilder struct {
	kind  types.Kind
	rows  int
	nulls int
	// present is kept from the first NULL on; until then every row is
	// present and encode writes the all-set bitmap itself, so a column
	// without NULLs grows one slice, not two.
	present []byte
	ints    []int64 // bool (0/1), int, date
	floats  []float64
	strs    []string
}

// reset empties the builder for a column of kind, keeping capacity.
func (cb *colBuilder) reset(kind types.Kind) {
	cb.kind, cb.rows, cb.nulls = kind, 0, 0
	cb.present, cb.ints, cb.floats, cb.strs = cb.present[:0], cb.ints[:0], cb.floats[:0], cb.strs[:0]
}

// appendAllPresent appends the presence bitmap of n rows that are all
// present: n set bits, the last byte's unused high bits clear.
func appendAllPresent(buf []byte, n int) []byte {
	for i := 0; i < n/8; i++ {
		buf = append(buf, 0xff)
	}
	if n&7 != 0 {
		buf = append(buf, byte(1)<<(uint(n)&7)-1)
	}
	return buf
}

// appendDatum appends one value, which is NULL or of a kind the column
// stores (checkKind).
func (cb *colBuilder) appendDatum(d types.Datum) {
	row := cb.rows
	cb.rows++
	if d.IsNull() {
		if cb.nulls == 0 {
			cb.present = appendAllPresent(cb.present[:0], row)
		}
		cb.nulls++
	}
	if cb.nulls > 0 {
		if row&7 == 0 {
			cb.present = append(cb.present, 0)
		}
		if d.IsNull() {
			return
		}
		cb.present[row>>3] |= 1 << (uint(row) & 7)
	}
	switch cb.kind {
	case types.KindBool, types.KindInt, types.KindDate:
		cb.ints = append(cb.ints, d.I)
	case types.KindFloat:
		f := d.F
		if d.K == types.KindInt {
			f = float64(d.I)
		}
		cb.floats = append(cb.floats, f)
	case types.KindString:
		cb.strs = append(cb.strs, d.S)
	}
}

// encode appends the column stream (presence, then the values of the
// non-null rows) to buf.
func (cb *colBuilder) encode(buf []byte, sc *encScratch) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(cb.rows))
	if cb.nulls == 0 {
		buf = appendAllPresent(buf, cb.rows)
	} else {
		buf = append(buf, cb.present...)
	}
	switch cb.kind {
	case types.KindBool, types.KindInt, types.KindDate:
		return appendInts(buf, cb.ints), nil
	case types.KindFloat:
		return appendFloats(buf, cb.floats), nil
	case types.KindString:
		return sc.appendStrings(buf, cb.strs), nil
	}
	return nil, fmt.Errorf("storage: orc cannot encode kind %v", cb.kind)
}

// stats returns the column's footer statistics: the NULL count, and the
// min and max of its values, seeded by the first and ordered as
// types.Compare orders datums of one kind (so a NaN seed stays both
// bounds, a later NaN moves neither, and -0.0 and 0.0 tie).
func (cb *colBuilder) stats() orcColStat {
	var lo, hi types.Datum
	switch cb.kind {
	case types.KindBool, types.KindInt, types.KindDate:
		if len(cb.ints) > 0 {
			a, b := minMax(cb.ints)
			lo, hi = types.Datum{K: cb.kind, I: a}, types.Datum{K: cb.kind, I: b}
		}
	case types.KindFloat:
		if len(cb.floats) > 0 {
			a, b := minMax(cb.floats)
			lo, hi = types.Float(a), types.Float(b)
		}
	case types.KindString:
		if len(cb.strs) > 0 {
			a, b := minMax(cb.strs)
			lo, hi = types.String(a), types.String(b)
		}
	}
	return orcColStat{Min: toJSONDatum(lo), Max: toJSONDatum(hi), Nulls: int64(cb.nulls)}
}

// footerStat is stats as the footer records it. A float stripe holding
// a NaN, or an infinite bound, records NULL bounds, which matchesRange
// reads as "cannot prune": the JSON footer has no NaN or infinity, and
// types.Compare orders a NaN equal to every value, so a predicate keeps
// NaN rows that finite bounds would have pruned.
func (cb *colBuilder) footerStat() orcColStat {
	st := cb.stats()
	if cb.kind == types.KindFloat && len(cb.floats) > 0 &&
		(math.IsInf(st.Min.F, 0) || math.IsInf(st.Max.F, 0) || slices.ContainsFunc(cb.floats, math.IsNaN)) {
		st.Min, st.Max = jsonDatum{}, jsonDatum{}
	}
	return st
}

// minMax returns the least and greatest of vals (non-empty) under <,
// the first value seeding both.
func minMax[T int64 | float64 | string](vals []T) (T, T) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if hi < v {
			hi = v
		}
	}
	return lo, hi
}

// decodedColumn holds one column's decoded streams (the presence bitmap
// plus the dense non-null value array). fillVector copies straight from
// these into vec.Vector payloads, skipping per-row Datum construction
// entirely.
// Its slices are reused from stripe to stripe.
type decodedColumn struct {
	kind    types.Kind
	present []byte // bit set = value present
	ints    []int64
	floats  []float64
	strs    []string
	dict    []string // the dictionary of strs, when it has one
	vi      int      // cursor into the dense value stream
}

func (dc *decodedColumn) isPresent(i int) bool {
	return dc.present[i>>3]&(1<<(uint(i)&7)) != 0
}

// decodeStrings reverses appendStrings into dc.strs, returning the
// bytes consumed; max bounds the declared count as in decodeInts. The
// string bytes of a stream are copied out of buf once and every value
// is a substring of that copy.
func (dc *decodedColumn) decodeStrings(buf []byte, max int) (int, error) {
	total, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, fmt.Errorf("storage: orc string count")
	}
	if total > uint64(max) {
		return 0, fmt.Errorf("storage: orc string count %d exceeds %d rows", total, max)
	}
	dc.strs = resize(dc.strs, int(total))
	if total == 0 {
		return pos, nil
	}
	if pos >= len(buf) {
		return 0, fmt.Errorf("storage: orc string mode truncated")
	}
	mode := buf[pos]
	pos++
	switch mode {
	case strDict:
		dlen, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("storage: orc dict size")
		}
		pos += n
		// Every entry takes at least its length byte.
		if dlen > uint64(len(buf)-pos) {
			return 0, fmt.Errorf("storage: orc dict size %d exceeds stream", dlen)
		}
		dc.dict = resize(dc.dict, int(dlen))
		start := pos
		for range dc.dict {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l > uint64(len(buf)-pos-n) {
				return 0, fmt.Errorf("storage: orc dict entry")
			}
			pos += n + int(l)
		}
		blob := string(buf[start:pos])
		off := 0
		for i := range dc.dict {
			l, n := binary.Uvarint(buf[start+off:])
			off += n
			dc.dict[i] = blob[off : off+int(l)]
			off += int(l)
		}
		for i := range dc.strs {
			idx, n := binary.Uvarint(buf[pos:])
			if n <= 0 || idx >= dlen {
				return 0, fmt.Errorf("storage: orc dict index")
			}
			pos += n
			dc.strs[i] = dc.dict[idx]
		}
	case strDirect:
		// The lengths precede the bytes: walk them once to find and
		// bound the byte region, then again to cut it.
		lens := pos
		var size uint64
		for range dc.strs {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l > uint64(len(buf)) {
				return 0, fmt.Errorf("storage: orc string length")
			}
			pos += n
			size += l
		}
		if size > uint64(len(buf)-pos) {
			return 0, fmt.Errorf("storage: orc string bytes truncated")
		}
		blob := string(buf[pos : pos+int(size)])
		pos += int(size)
		off := 0
		for i := range dc.strs {
			l, n := binary.Uvarint(buf[lens:])
			lens += n
			dc.strs[i] = blob[off : off+int(l)]
			off += int(l)
		}
	default:
		return 0, fmt.Errorf("storage: orc string mode %d", mode)
	}
	return pos, nil
}

// decode reverses colBuilder.encode: it parses a stripe column of rows rows
// from buf into dc, copying out everything it keeps.
func (dc *decodedColumn) decode(kind types.Kind, buf []byte, rows int) error {
	present, pos, err := decodePresence(buf, rows)
	if err != nil {
		return err
	}
	dc.kind, dc.vi = kind, 0
	dc.present = append(dc.present[:0], present...)
	nPresent := 0
	for _, b := range present {
		nPresent += bits.OnesCount8(b)
	}
	if tail := uint(rows) & 7; tail != 0 {
		nPresent -= bits.OnesCount8(present[len(present)-1] >> tail)
	}
	var have int
	switch kind {
	case types.KindBool, types.KindInt, types.KindDate:
		dc.ints, _, err = decodeInts(dc.ints, buf[pos:], rows)
		have = len(dc.ints)
	case types.KindFloat:
		dc.floats, _, err = decodeFloats(dc.floats, buf[pos:], rows)
		have = len(dc.floats)
	case types.KindString:
		_, err = dc.decodeStrings(buf[pos:], rows)
		have = len(dc.strs)
	default:
		return fmt.Errorf("storage: orc cannot decode kind %v", kind)
	}
	if err != nil {
		return err
	}
	if have < nPresent {
		return fmt.Errorf("storage: orc %v column short", kind)
	}
	return nil
}

// fillVector copies rows [row, row+n) into v. The ORC presence bit is
// SET for present values; the vec convention is the inverse (bit set =
// NULL), converted here.
func (dc *decodedColumn) fillVector(v *vec.Vector, row, n int) {
	v.Reset(dc.kind, n)
	switch dc.kind {
	case types.KindBool, types.KindInt, types.KindDate:
		for i := 0; i < n; i++ {
			if dc.isPresent(row + i) {
				v.I64[i] = dc.ints[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	case types.KindFloat:
		for i := 0; i < n; i++ {
			if dc.isPresent(row + i) {
				v.F64[i] = dc.floats[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			if dc.isPresent(row + i) {
				v.Str[i] = dc.strs[dc.vi]
				dc.vi++
			} else {
				v.SetNull(i)
			}
		}
	}
}
