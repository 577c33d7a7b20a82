// Package vec is the columnar batch layer under map-side execution:
// fixed-capacity column vectors with null bitmaps, the
// Batch container operators hand each other, and a pool that recycles
// batch memory across stages. The layout follows the classic
// vectorized-engine shape (one typed payload array per column plus a
// validity bitmap) so expression kernels in internal/exec run tight
// per-kind loops instead of per-row Datum dispatch.
//
// Conventions:
//   - Null bitmap: bit i SET means row i is NULL (the inverse of the
//     ORC presence stream, which storage converts at decode time).
//     Typed payload slots under a set bit hold garbage and must not be
//     read.
//   - Typed payloads: KindInt/KindBool/KindDate share I64 (bool as
//     0/1, date as epoch days, matching Datum.I), KindFloat uses F64,
//     KindString uses Str. KindAny keeps whole Datums in Any for
//     mixed-kind results (e.g. CASE arms of different types).
//   - Filters compact batches in place (no selection vectors), so a
//     vector never aliases another vector's payload.
package vec

import (
	"sync"

	"hivempi/internal/types"
)

// DefaultSize is the row capacity operators use for batches: big
// enough to amortize per-batch overhead, small enough that a projected
// stripe's working set stays cache-resident.
const DefaultSize = 1024

// KindAny marks a vector in datum mode: values live in Any as whole
// Datums. It is outside the types.Kind enum on purpose — storage never
// produces it; only expression kernels with mixed-kind outputs do.
const KindAny = types.Kind(0xFF)

// Vector is one column of a batch: a typed payload array selected by
// Kind plus a null bitmap. Length is owned by the enclosing Batch (its
// N); a vector only guarantees capacity.
type Vector struct {
	Kind types.Kind
	I64  []int64       // KindInt, KindBool (0/1), KindDate (epoch days)
	F64  []float64     // KindFloat
	Str  []string      // KindString
	Any  []types.Datum // KindAny mixed-kind values

	nulls []uint64 // bit set = NULL
}

// NewVector returns a vector typed kind with capacity for n rows.
func NewVector(kind types.Kind, n int) *Vector {
	v := &Vector{}
	v.Reset(kind, n)
	return v
}

// Reset re-types the vector and guarantees capacity for n rows with
// all-valid (zeroed) nulls. Payload memory is reused when the previous
// use was at least as large.
func (v *Vector) Reset(kind types.Kind, n int) {
	v.Kind = kind
	switch kind {
	case types.KindInt, types.KindBool, types.KindDate:
		if cap(v.I64) < n {
			v.I64 = make([]int64, n)
		}
		v.I64 = v.I64[:cap(v.I64)]
	case types.KindFloat:
		if cap(v.F64) < n {
			v.F64 = make([]float64, n)
		}
		v.F64 = v.F64[:cap(v.F64)]
	case types.KindString:
		if cap(v.Str) < n {
			v.Str = make([]string, n)
		}
		v.Str = v.Str[:cap(v.Str)]
	case KindAny:
		if cap(v.Any) < n {
			v.Any = make([]types.Datum, n)
		}
		v.Any = v.Any[:cap(v.Any)]
	case types.KindNull:
		// No payload; every row is null via the bitmap below.
	}
	words := (n + 63) / 64
	if cap(v.nulls) < words {
		v.nulls = make([]uint64, words)
	}
	v.nulls = v.nulls[:cap(v.nulls)]
	for i := range v.nulls {
		v.nulls[i] = 0
	}
	if kind == types.KindNull {
		v.SetNullRange(0, n)
	}
}

// Null reports whether row i is NULL.
func (v *Vector) Null(i int) bool {
	return v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i NULL.
func (v *Vector) SetNull(i int) {
	v.nulls[i>>6] |= 1 << (uint(i) & 63)
}

// ClearNull marks row i valid.
func (v *Vector) ClearNull(i int) {
	v.nulls[i>>6] &^= 1 << (uint(i) & 63)
}

// SetNullRange marks rows [lo,hi) NULL, a word at a time.
func (v *Vector) SetNullRange(lo, hi int) {
	for lo < hi {
		w, bit := lo>>6, uint(lo)&63
		n := min(hi-lo, 64-int(bit))
		v.nulls[w] |= (^uint64(0) >> (64 - uint(n))) << bit
		lo += n
	}
}

// AnyNulls reports whether any of the first n rows is NULL — the
// kernel fast-path check that skips per-row null tests entirely.
func (v *Vector) AnyNulls(n int) bool {
	full, rem := n>>6, uint(n)&63
	for i := 0; i < full; i++ {
		if v.nulls[i] != 0 {
			return true
		}
	}
	return rem != 0 && v.nulls[full]&((uint64(1)<<rem)-1) != 0
}

// NullWords exposes the bitmap words covering n rows for word-wise
// merges. The final word may carry bits past n; callers mask.
func (v *Vector) NullWords(n int) []uint64 {
	return v.nulls[:(n+63)/64]
}

// CopyNullsFrom overwrites v's bitmap for n rows with src's.
func (v *Vector) CopyNullsFrom(src *Vector, n int) {
	copy(v.nulls[:(n+63)/64], src.nulls)
}

// OrNullsFrom ORs src's bitmap for n rows into v's (binary-operator
// null propagation: result null where either input is).
func (v *Vector) OrNullsFrom(src *Vector, n int) {
	words := (n + 63) / 64
	for i := 0; i < words; i++ {
		v.nulls[i] |= src.nulls[i]
	}
}

// Datum materializes row i as a types.Datum (types.Null() under a set
// null bit). It is the slow-path bridge to row-at-a-time code; kernels
// use the typed payloads directly.
func (v *Vector) Datum(i int) types.Datum {
	if v.Null(i) {
		return types.Null()
	}
	switch v.Kind {
	case types.KindInt:
		return types.Int(v.I64[i])
	case types.KindBool:
		return types.Bool(v.I64[i] != 0)
	case types.KindDate:
		return types.Date(v.I64[i])
	case types.KindFloat:
		return types.Float(v.F64[i])
	case types.KindString:
		return types.String(v.Str[i])
	case KindAny:
		return v.Any[i]
	}
	return types.Null()
}

// SetDatum stores d at row i. The vector's Kind must already accept
// d's kind (same kind, or KindAny); a null datum sets the null bit.
func (v *Vector) SetDatum(i int, d types.Datum) {
	if d.IsNull() {
		v.SetNull(i)
		return
	}
	v.ClearNull(i)
	switch v.Kind {
	case types.KindInt, types.KindBool, types.KindDate:
		v.I64[i] = d.I
	case types.KindFloat:
		v.F64[i] = d.F
	case types.KindString:
		v.Str[i] = d.S
	case KindAny:
		v.Any[i] = d
	}
}

// Demote switches a typed vector to datum mode (KindAny) in place,
// keeping its first n rows and their null bits, with capacity for size
// rows. Producers that fill a column from untyped input use it when a
// value turns up that the column's kind cannot hold.
func (v *Vector) Demote(n, size int) {
	if cap(v.Any) < size {
		v.Any = make([]types.Datum, size)
	}
	v.Any = v.Any[:cap(v.Any)]
	for i := 0; i < n; i++ {
		v.Any[i] = v.Datum(i)
	}
	v.Kind = KindAny
}

// CopyFrom makes v an independent copy of src's first n rows (payload
// and null bitmap). Kernels use it for column references: the filter
// compacts batches in place, so outputs never alias batch columns.
func (v *Vector) CopyFrom(src *Vector, n int) {
	v.Reset(src.Kind, n)
	switch src.Kind {
	case types.KindInt, types.KindBool, types.KindDate:
		copy(v.I64, src.I64[:n])
	case types.KindFloat:
		copy(v.F64, src.F64[:n])
	case types.KindString:
		copy(v.Str, src.Str[:n])
	case KindAny:
		copy(v.Any, src.Any[:n])
	}
	v.CopyNullsFrom(src, n)
}

// move copies row src to row dst within the vector (batch compaction).
func (v *Vector) move(dst, src int) {
	switch v.Kind {
	case types.KindInt, types.KindBool, types.KindDate:
		v.I64[dst] = v.I64[src]
	case types.KindFloat:
		v.F64[dst] = v.F64[src]
	case types.KindString:
		v.Str[dst] = v.Str[src]
	case KindAny:
		v.Any[dst] = v.Any[src]
	}
	if v.Null(src) {
		v.SetNull(dst)
	} else {
		v.ClearNull(dst)
	}
}

// Batch is a set of equal-length column vectors. N is the live row
// count; vectors guarantee capacity ≥ N.
type Batch struct {
	Cols []*Vector
	N    int
}

// NewBatch returns a batch of ncols untyped vectors with capacity for
// n rows each. Callers Reset each column to its kind before writing.
func NewBatch(ncols, n int) *Batch {
	b := &Batch{Cols: make([]*Vector, ncols)}
	for i := range b.Cols {
		b.Cols[i] = NewVector(types.KindNull, n)
	}
	return b
}

// Row materializes batch row i into dst (grown as needed) for
// row-at-a-time bridges such as kernels falling back to Eval.
func (b *Batch) Row(i int, dst types.Row) types.Row {
	if cap(dst) < len(b.Cols) {
		dst = make(types.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for c, v := range b.Cols {
		dst[c] = v.Datum(i)
	}
	return dst
}

// RowSlab is a batch materialized row-major into one fresh allocation.
// Consumers retain the rows it cuts (collectors, the map-join table,
// storage.OpenSplit's callers), so a slab is never reused.
type RowSlab struct {
	data  []types.Datum
	width int
}

// Materialize copies b's N rows into a new slab.
func Materialize(b *Batch) RowSlab {
	s := RowSlab{data: make([]types.Datum, b.N*len(b.Cols)), width: len(b.Cols)}
	for c, v := range b.Cols {
		if v.Kind == types.KindNull {
			continue // an unprojected column: the zero Datum is NULL
		}
		for lane := 0; lane < b.N; lane++ {
			s.data[lane*s.width+c] = v.Datum(lane)
		}
	}
	return s
}

// Row cuts row i, capped so an append to it cannot reach its neighbour.
func (s RowSlab) Row(i int) types.Row {
	lo, hi := i*s.width, (i+1)*s.width
	return s.data[lo:hi:hi]
}

// Compact keeps exactly the rows whose mask bit is true, preserving
// order, moving survivors to the front of every column in place, and
// updates N. mask must cover b.N rows.
func (b *Batch) Compact(mask []bool) {
	out := 0
	for i := 0; i < b.N; i++ {
		if !mask[i] {
			continue
		}
		if out != i {
			for _, v := range b.Cols {
				v.move(out, i)
			}
		}
		out++
	}
	b.N = out
}

// Pool recycles batches across operator invocations so steady-state
// batch flow allocates nothing. Get returns a batch with at least
// ncols column headers; callers Reset columns per use (Reset reuses
// payload memory), set N, and Put the batch back when its rows are
// dead.
var pool = sync.Pool{New: func() any { return &Batch{} }}

// Get returns a pooled batch resized to ncols columns. Column vectors
// keep whatever payload capacity their previous use grew.
func Get(ncols int) *Batch {
	b := pool.Get().(*Batch)
	for len(b.Cols) < ncols {
		b.Cols = append(b.Cols, &Vector{})
	}
	b.Cols = b.Cols[:ncols]
	b.N = 0
	return b
}

// Put returns a batch to the pool. String/datum payloads are cleared
// so pooled batches do not pin row data.
func Put(b *Batch) {
	for _, v := range b.Cols {
		for i := range v.Str {
			v.Str[i] = ""
		}
		for i := range v.Any {
			v.Any[i] = types.Datum{}
		}
	}
	pool.Put(b)
}
