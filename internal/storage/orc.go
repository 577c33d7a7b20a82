package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// The ORC-like file layout:
//
//	[stripe 0][stripe 1]...[footer JSON][uint32 footer length]["GORC"]
//
// Each stripe holds one DEFLATE-compressed stream per column; the footer
// records the schema, every stripe's offset/length, per-column stream
// offsets within the stripe, row counts and per-column min/max/null
// statistics used for predicate pushdown.

var orcMagic = []byte("GORC")

// ORCOptions tunes the writer.
type ORCOptions struct {
	StripeRows  int   // max rows per stripe; DefaultStripeRows if 0
	StripeBytes int64 // approx uncompressed bytes per stripe; 0 = rows only
}

// DefaultStripeRows matches a scaled-down ORC stripe granularity.
const DefaultStripeRows = 1 << 20

type orcStripeMeta struct {
	Offset     int64        `json:"offset"`
	Length     int64        `json:"length"`
	Rows       int          `json:"rows"`
	ColOffsets []int64      `json:"colOffsets"` // within-stripe, len nCols+1
	Stats      []orcColStat `json:"stats"`
}

type orcColStat struct {
	Min   jsonDatum `json:"min"`
	Max   jsonDatum `json:"max"`
	Nulls int64     `json:"nulls"`
}

// jsonDatum serializes a datum into the footer.
type jsonDatum struct {
	K uint8   `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

func toJSONDatum(d types.Datum) jsonDatum {
	return jsonDatum{K: uint8(d.K), I: d.I, F: d.F, S: d.S}
}

func (j jsonDatum) datum() types.Datum {
	return types.Datum{K: types.Kind(j.K), I: j.I, F: j.F, S: j.S}
}

type orcColumnMeta struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type orcFooter struct {
	Columns []orcColumnMeta `json:"columns"`
	Stripes []orcStripeMeta `json:"stripes"`
	Rows    int64           `json:"rows"`

	// dataEnd is the largest stripe end, set by validate: the bytes the
	// file must hold in front of the footer.
	dataEnd int64
}

// orcWriter cuts rows into stripes. Write appends a row to one
// colBuilder per column and WriteBatch writes a batch's rows through
// Write; a stripe is cut after the row that brings it to StripeRows
// or, with StripeBytes set, to that many approximate bytes (len+2 per
// non-null string value, 9 per anything else). The builders and the
// column-encoding scratch live as long as the writer, and a stripe is
// compressed into the buffer of the pooled deflater (deflate.go) it
// borrows, so steady-state work allocates per stripe (its footer
// entry), not per stream.
type orcWriter struct {
	w      io.WriteCloser
	schema *types.Schema
	opts   ORCOptions

	cols        []colBuilder
	rows        int
	approxBytes int64
	offset      int64
	footer      orcFooter
	row         types.Row // WriteBatch's lane, reused

	raw []byte
	enc encScratch
}

func newORCWriter(w io.WriteCloser, schema *types.Schema, opts ORCOptions) *orcWriter {
	if opts.StripeRows <= 0 {
		opts.StripeRows = DefaultStripeRows
	}
	ow := &orcWriter{w: w, schema: schema, opts: opts}
	ow.cols = make([]colBuilder, schema.Len())
	for ci, c := range schema.Columns {
		ow.cols[ci].reset(c.Type)
		ow.footer.Columns = append(ow.footer.Columns, orcColumnMeta{Name: c.Name, Type: c.Type.String()})
	}
	return ow
}

// Write appends row, or fails and leaves the stripe as it was when a
// value's kind is not its column's (checkKind).
func (ow *orcWriter) Write(row types.Row) error {
	if len(row) != ow.schema.Len() {
		return fmt.Errorf("storage: orc row has %d columns, schema %d", len(row), ow.schema.Len())
	}
	for ci, d := range row {
		if err := checkKind("orc", ow.schema.Columns[ci], d.K); err != nil {
			return err
		}
	}
	for ci, d := range row {
		ow.cols[ci].appendDatum(d)
		if d.K == types.KindString {
			ow.approxBytes += int64(len(d.S)) + 2
		} else {
			ow.approxBytes += 9
		}
	}
	ow.rows++
	if ow.rows >= ow.opts.StripeRows ||
		(ow.opts.StripeBytes > 0 && ow.approxBytes >= ow.opts.StripeBytes) {
		return ow.flushStripe()
	}
	return nil
}

// WriteBatch writes b's rows through Write.
func (ow *orcWriter) WriteBatch(b *vec.Batch) (err error) {
	ow.row, err = writeLanes(ow, ow.row, b)
	return err
}

func (ow *orcWriter) flushStripe() error {
	if ow.rows == 0 {
		return nil
	}
	meta := orcStripeMeta{Offset: ow.offset, Rows: ow.rows}
	meta.ColOffsets = make([]int64, len(ow.cols)+1)
	meta.Stats = make([]orcColStat, len(ow.cols))
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	stripe := d.stripe[:0]
	for ci := range ow.cols {
		cb := &ow.cols[ci]
		meta.ColOffsets[ci] = int64(len(stripe))
		raw, err := cb.encode(ow.raw[:0], &ow.enc)
		if err != nil {
			return err
		}
		ow.raw = raw
		stripe = d.compress(stripe, raw)
		meta.Stats[ci] = cb.footerStat()
	}
	d.stripe = stripe
	meta.Length = int64(len(stripe))
	meta.ColOffsets[len(ow.cols)] = meta.Length
	if _, err := ow.w.Write(stripe); err != nil {
		return err
	}
	ow.offset += meta.Length
	ow.footer.Stripes = append(ow.footer.Stripes, meta)
	ow.footer.Rows += int64(ow.rows)
	for ci, c := range ow.schema.Columns {
		ow.cols[ci].reset(c.Type)
	}
	ow.rows = 0
	ow.approxBytes = 0
	return nil
}

func (ow *orcWriter) Close() error {
	if err := ow.flushStripe(); err != nil {
		return err
	}
	fb, err := json.Marshal(&ow.footer)
	if err != nil {
		return err
	}
	if _, err := ow.w.Write(fb); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(fb)))
	copy(tail[4:], orcMagic)
	if _, err := ow.w.Write(tail[:]); err != nil {
		return err
	}
	return ow.w.Close()
}

// inflater is the pooled read-side codec state: the compressed and
// inflated buffers of one stream and the Huffman tables of its current
// dynamic block (inflate.go). A reader borrows one for the length of a
// footer read or a stripe load and copies out what it keeps, so nothing
// served to a caller aliases it.
type inflater struct {
	comp []byte
	raw  []byte
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenRootBits]uint32
	lens [maxLitSym + maxDistSym]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// fetch reads [off, off+n) of r into the compressed buffer.
func (in *inflater) fetch(r io.ReadSeeker, off, n int64) ([]byte, error) {
	in.comp = resize(in.comp, int(n))
	if _, err := r.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, in.comp); err != nil {
		return nil, err
	}
	return in.comp, nil
}

// maxInflateRatio is deflate's largest possible expansion (a stored
// run of 258-byte matches costs one bit each): a stream of n compressed
// bytes never inflates past n*maxInflateRatio.
const maxInflateRatio = 1032

// validate checks everything the readers index or allocate by, so that
// a hostile footer is an error at open and never a panic or an
// allocation sized by its claims. It also records dataEnd, which
// readORCFooter holds against the length of the file at hand.
func (f *orcFooter) validate() error {
	nCols := len(f.Columns)
	for i := range f.Stripes {
		st := &f.Stripes[i]
		if st.Offset < 0 || st.Length < 0 || st.Rows < 0 || st.Length > math.MaxInt64-st.Offset {
			return fmt.Errorf("storage: orc stripe %d: bad extent (offset %d, length %d, rows %d)",
				i, st.Offset, st.Length, st.Rows)
		}
		if len(st.ColOffsets) != nCols+1 {
			return fmt.Errorf("storage: orc stripe %d: %d column offsets for %d columns",
				i, len(st.ColOffsets), nCols)
		}
		prev := int64(0)
		for ci, off := range st.ColOffsets {
			if off < prev || off > st.Length {
				return fmt.Errorf("storage: orc stripe %d: column offset %d out of order or past length %d",
					i, off, st.Length)
			}
			// Each stream carries one presence bit per row.
			if ci > 0 && int64(st.Rows) > (off-prev)*8*maxInflateRatio {
				return fmt.Errorf("storage: orc stripe %d: %d rows cannot fit a %d-byte column stream",
					i, st.Rows, off-prev)
			}
			prev = off
		}
		if end := st.Offset + st.Length; end > f.dataEnd {
			f.dataEnd = end
		}
	}
	return nil
}

// footerMemoCap bounds the parsed-footer cache. Workloads re-open the
// same few dozen part files once per split; past the cap the oldest
// entry goes.
const footerMemoCap = 64

// footerMemo caches parsed footers by the content of their bytes. The
// bytes are still read from the file on every open, so the I/O a reader
// does (and every error it can meet doing it) does not depend on the
// cache; only json.Unmarshal and validate are skipped. Entries are
// valid footers only and are never written after insertion.
var footerMemo struct {
	mu      sync.Mutex
	entries map[uint32]*footerEntry
	order   [footerMemoCap]uint32 // keys by insertion; order[n%cap] is the oldest once full
	n       int
}

type footerEntry struct {
	raw    []byte
	footer *orcFooter
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// parseORCFooter returns the validated footer encoded by fb, from the
// memo when an earlier open parsed the same bytes.
func parseORCFooter(fb []byte) (*orcFooter, error) {
	key := crc32.Checksum(fb, castagnoli)
	m := &footerMemo
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e != nil && bytes.Equal(e.raw, fb) {
		return e.footer, nil
	}
	footer := &orcFooter{}
	if err := json.Unmarshal(fb, footer); err != nil {
		return nil, fmt.Errorf("storage: orc footer: %w", err)
	}
	if err := footer.validate(); err != nil {
		return nil, err
	}
	e = &footerEntry{raw: bytes.Clone(fb), footer: footer}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[uint32]*footerEntry, footerMemoCap)
	}
	if _, held := m.entries[key]; !held {
		slot := m.n % footerMemoCap
		if m.n >= footerMemoCap {
			delete(m.entries, m.order[slot])
		}
		m.order[slot] = key
		m.n++
	}
	m.entries[key] = e
	m.mu.Unlock()
	return footer, nil
}

// readORCFooter reads the tail and the footer bytes from r and parses
// them.
func readORCFooter(r io.ReadSeeker) (*orcFooter, error) {
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if end < 8 {
		return nil, fmt.Errorf("storage: orc file too small (%d bytes)", end)
	}
	var tail [8]byte
	if _, err := r.Seek(end-8, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(tail[4:], orcMagic) {
		return nil, fmt.Errorf("storage: bad orc magic %q", tail[4:])
	}
	flen := int64(binary.LittleEndian.Uint32(tail[0:]))
	if flen > end-8 {
		return nil, fmt.Errorf("storage: orc footer length %d exceeds file", flen)
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	fb, err := in.fetch(r, end-8-flen, flen)
	if err != nil {
		return nil, err
	}
	footer, err := parseORCFooter(fb)
	if err != nil {
		return nil, err
	}
	if footer.dataEnd > end-8-flen {
		return nil, fmt.Errorf("storage: orc stripes end at %d, past the %d data bytes of the file",
			footer.dataEnd, end-8-flen)
	}
	return footer, nil
}

// orcSplitReader serves the stripes whose start offset lies inside the
// split range, materializing only projected columns and skipping
// stripes pruned by the predicate's min/max check.
type orcSplitReader struct {
	r       io.ReadSeeker
	schema  *types.Schema
	stripes []*orcStripeMeta // into the shared footer: read-only
	project []int            // resolved: every column when none was requested

	si   int
	row  int
	rows int

	// vcols holds the decoded streams (presence + dense values) per
	// projected column, reused from stripe to stripe, so NextBatch
	// copies column data straight into vector payloads without
	// materializing Datums.
	vcols []*decodedColumn

	// BytesReadPhysical counts compressed bytes actually fetched, the
	// quantity that makes ORC cheaper than Text in the cost model.
	BytesReadPhysical int64
	StripesSkipped    int64
}

func newORCSplitReader(r io.ReadSeeker, offset, length int64, schema *types.Schema,
	projection []int, predicate *Predicate) (*orcSplitReader, error) {
	footer, err := readORCFooter(r)
	if err != nil {
		return nil, err
	}
	if len(footer.Columns) != schema.Len() {
		return nil, fmt.Errorf("storage: orc has %d columns, schema %d", len(footer.Columns), schema.Len())
	}
	sr := &orcSplitReader{r: r, schema: schema, project: projection}
	if projection == nil {
		sr.project = make([]int, schema.Len())
		for i := range sr.project {
			sr.project[i] = i
		}
	}
	for i := range footer.Stripes {
		st := &footer.Stripes[i]
		if st.Offset < offset || st.Offset >= offset+length {
			continue
		}
		if predicate != nil && predicate.Column < len(st.Stats) {
			cs := st.Stats[predicate.Column]
			if !predicate.matchesRange(cs.Min.datum(), cs.Max.datum()) {
				sr.StripesSkipped++
				continue
			}
		}
		sr.stripes = append(sr.stripes, st)
	}
	return sr, nil
}

// readColumnStream fetches and inflates one column's stream of st into
// in's buffers.
func (sr *orcSplitReader) readColumnStream(in *inflater, st *orcStripeMeta, ci int) ([]byte, error) {
	if ci < 0 || ci >= sr.schema.Len() {
		return nil, fmt.Errorf("storage: orc projection column %d out of range", ci)
	}
	lo, hi := st.ColOffsets[ci], st.ColOffsets[ci+1]
	comp, err := in.fetch(sr.r, st.Offset+lo, hi-lo)
	if err != nil {
		return nil, fmt.Errorf("storage: orc column stream: %w", err)
	}
	sr.BytesReadPhysical += int64(len(comp))
	raw, err := in.inflate(comp)
	if err != nil {
		return nil, fmt.Errorf("storage: orc inflate: %w", err)
	}
	return raw, nil
}

// loadStripeVec decompresses the projected columns of a stripe into
// their decoded streams.
func (sr *orcSplitReader) loadStripeVec(st *orcStripeMeta) error {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	if sr.vcols == nil {
		sr.vcols = make([]*decodedColumn, sr.schema.Len())
	}
	for _, ci := range sr.project {
		raw, err := sr.readColumnStream(in, st, ci)
		if err != nil {
			return err
		}
		if sr.vcols[ci] == nil {
			sr.vcols[ci] = &decodedColumn{}
		}
		if err := sr.vcols[ci].decode(sr.schema.Columns[ci].Type, raw, st.Rows); err != nil {
			return err
		}
	}
	sr.rows = st.Rows
	sr.row = 0
	return nil
}

// NextBatch implements BatchReader: it fills b's columns (one per
// schema column; unprojected columns come back all-null) with up to
// vec.DefaultSize rows decoded directly from the pruned column
// streams, and returns io.EOF when the split is exhausted.
func (sr *orcSplitReader) NextBatch(b *vec.Batch) error {
	for sr.row >= sr.rows {
		if sr.si >= len(sr.stripes) {
			return io.EOF
		}
		if err := sr.loadStripeVec(sr.stripes[sr.si]); err != nil {
			return err
		}
		sr.si++
	}
	n := sr.rows - sr.row
	if n > vec.DefaultSize {
		n = vec.DefaultSize
	}
	for ci := 0; ci < sr.schema.Len(); ci++ {
		if dc := sr.vcols[ci]; dc != nil {
			dc.fillVector(b.Cols[ci], sr.row, n)
		} else {
			b.Cols[ci].Reset(types.KindNull, n)
		}
	}
	b.N = n
	sr.row += n
	return nil
}

// PhysicalBytes implements PhysicalReader.
func (sr *orcSplitReader) PhysicalBytes() int64 { return sr.BytesReadPhysical }
