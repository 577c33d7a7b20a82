package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// The sequence format stores binary-encoded rows in blocks, each
// preceded by a 16-byte sync marker so a reader can resynchronize at an
// arbitrary split offset, like Hadoop SequenceFiles.

var seqSync = []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x53, 0x45, 0x51, 0x46,
	0x13, 0x37, 0xC0, 0xDE, 0x0B, 0x10, 0xC4, 0x5D}

const seqBlockTarget = 64 << 10 // flush a block at ~64 KB

// seqWriter buffers encoded rows into sync-delimited blocks.
type seqWriter struct {
	w      io.WriteCloser
	schema *types.Schema
	buf    []byte
	rows   uint32
	row    types.Row // WriteBatch's lane, reused
}

func newSeqWriter(w io.WriteCloser, schema *types.Schema) *seqWriter {
	return &seqWriter{w: w, schema: schema}
}

func (s *seqWriter) Write(row types.Row) error {
	if len(row) != s.schema.Len() {
		return fmt.Errorf("storage: seq row has %d columns, schema %d", len(row), s.schema.Len())
	}
	s.buf = types.EncodeRow(s.buf, row)
	s.rows++
	if len(s.buf) >= seqBlockTarget {
		return s.flushBlock()
	}
	return nil
}

// WriteBatch writes b's rows through Write.
func (s *seqWriter) WriteBatch(b *vec.Batch) (err error) {
	s.row, err = writeLanes(s, s.row, b)
	return err
}

func (s *seqWriter) flushBlock() error {
	if s.rows == 0 {
		return nil
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(s.buf)))
	binary.LittleEndian.PutUint32(hdr[4:], s.rows)
	if _, err := s.w.Write(seqSync); err != nil {
		return err
	}
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.w.Write(s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.rows = 0
	return nil
}

func (s *seqWriter) Close() error {
	if err := s.flushBlock(); err != nil {
		return err
	}
	return s.w.Close()
}

// seqSplitReader reads the blocks whose sync marker starts inside the
// split's byte range, decoding their rows straight into column batches.
// Its sync-scan window and payload buffer live as long as the reader;
// the strings of a batch are cut from one allocation made for that
// batch alone, as in the Text reader.
type seqSplitReader struct {
	r      io.ReadSeeker
	schema *types.Schema
	pos    int64 // where the next sync scan starts
	end    int64 // split end: a block whose marker starts at >= end is the next split's
	size   int64 // file length, which bounds a block's claimed payload
	eof    bool

	scan []byte // a marker-sized tail, then one read chunk
	hdr  [8]byte

	// The current block: its payload, the offset of its next row, and
	// that row's ordinal within the block out of the block's rows.
	payload   []byte
	p         int
	row, rows uint32

	// Per-batch scratch: the bytes of every string cell in (lane,
	// column) order and where each one ends.
	strBuf  []byte
	strEnds []int
}

func newSeqSplitReader(r io.ReadSeeker, offset, length int64, schema *types.Schema) (*seqSplitReader, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	return &seqSplitReader{r: r, schema: schema, pos: offset, end: offset + length, size: size}, nil
}

// scanToSync advances to the next sync marker at or after pos,
// returning io.EOF when none starts before the split end.
func (s *seqSplitReader) scanToSync() error {
	// Read forward in chunks looking for the marker, keeping a
	// marker-sized tail in front of each chunk in case the sync spans two.
	const chunk = 32 << 10
	keep := len(seqSync) - 1
	if s.scan == nil {
		s.scan = make([]byte, keep+chunk)
	}
	tail := 0
	base := s.pos
	if _, err := s.r.Seek(s.pos, io.SeekStart); err != nil {
		return err
	}
	for {
		n, err := s.r.Read(s.scan[tail : tail+chunk])
		if n == 0 {
			if err == io.EOF {
				return io.EOF
			}
			if err != nil {
				return err
			}
		}
		window := s.scan[:tail+n]
		if idx := bytes.Index(window, seqSync); idx >= 0 {
			markerPos := base - int64(tail) + int64(idx)
			if markerPos >= s.end {
				return io.EOF
			}
			s.pos = markerPos
			return nil
		}
		if err == io.EOF {
			return io.EOF
		}
		tail = copy(s.scan, window[max(0, len(window)-keep):])
		base += int64(n)
		if base-int64(tail) >= s.end {
			return io.EOF
		}
	}
}

// loadBlock reads the block at the next marker into the payload buffer.
// The header's claims are checked against the file before anything is
// sized by them.
func (s *seqSplitReader) loadBlock() error {
	if err := s.scanToSync(); err != nil {
		return err
	}
	hdrPos := s.pos + int64(len(seqSync))
	if _, err := s.r.Seek(hdrPos, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return fmt.Errorf("storage: seq block header: %w", err)
	}
	blen := int64(binary.LittleEndian.Uint32(s.hdr[0:]))
	nrows := binary.LittleEndian.Uint32(s.hdr[4:])
	if left := s.size - hdrPos - int64(len(s.hdr)); blen > left {
		return fmt.Errorf("storage: seq block at %d: %d payload bytes, %d left in the file", s.pos, blen, left)
	}
	// Every row takes at least its column-count byte.
	if int64(nrows) > blen {
		return fmt.Errorf("storage: seq block at %d: %d rows in %d payload bytes", s.pos, nrows, blen)
	}
	s.payload = resize(s.payload, int(blen))
	// Reserve the string scratch for what this block can add to a batch:
	// its payload's bytes, and a string end per cell of its rows.
	s.strBuf = slices.Grow(s.strBuf, int(blen))
	s.strEnds = slices.Grow(s.strEnds, int(min(nrows, vec.DefaultSize))*s.schema.Len())
	if _, err := io.ReadFull(s.r, s.payload); err != nil {
		return fmt.Errorf("storage: seq block payload: %w", err)
	}
	s.pos = hdrPos + int64(len(s.hdr)) + blen
	s.p, s.row, s.rows = 0, 0, nrows
	return nil
}

// NextBatch implements BatchReader: up to vec.DefaultSize rows, read on
// across block boundaries, into vectors typed from the schema. A
// Sequence file holds whatever datums were written, so a column that
// meets a datum of another kind drops to datum mode for that batch
// instead of storing the value through the wrong payload.
func (s *seqSplitReader) NextBatch(b *vec.Batch) error {
	if s.eof {
		return io.EOF
	}
	cols := b.Cols[:s.schema.Len()]
	for ci, v := range cols {
		v.Reset(s.schema.Columns[ci].Type, vec.DefaultSize)
	}
	s.strBuf, s.strEnds = s.strBuf[:0], s.strEnds[:0]
	n := 0
	for n < vec.DefaultSize {
		if s.row == s.rows {
			err := s.loadBlock()
			if err == io.EOF {
				s.eof = true
				break
			}
			if err != nil {
				return err
			}
			continue // a block may hold no rows
		}
		if err := s.decodeRow(cols, n); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return io.EOF
	}
	// A cell holds a string now exactly when a string was decoded into
	// it, in a column still typed string or one demoted since.
	arena, cell, lo := string(s.strBuf), 0, 0
	for lane := 0; lane < n; lane++ {
		for _, v := range cols {
			if v.Null(lane) {
				continue
			}
			var dst *string
			switch {
			case v.Kind == types.KindString:
				dst = &v.Str[lane]
			case v.Kind == vec.KindAny && v.Any[lane].K == types.KindString:
				dst = &v.Any[lane].S
			default:
				continue
			}
			hi := s.strEnds[cell]
			*dst = arena[lo:hi]
			cell, lo = cell+1, hi
		}
	}
	b.N = n
	return nil
}

// decodeRow decodes the block's next row into lane of cols. String
// bytes go to strBuf; NextBatch cuts them once the batch is full.
func (s *seqSplitReader) decodeRow(cols []*vec.Vector, lane int) error {
	buf := s.payload[s.p:]
	width, p := binary.Uvarint(buf)
	if p <= 0 {
		return fmt.Errorf("storage: seq row %d: decode row: bad column count", s.row)
	}
	if width != uint64(len(cols)) {
		return fmt.Errorf("storage: seq row has %d columns, schema %d", width, len(cols))
	}
	for ci, v := range cols {
		d, str, w, err := types.DecodeDatumBytes(buf[p:])
		if err != nil {
			return fmt.Errorf("storage: seq row %d: decode row column %d: %w", s.row, ci, err)
		}
		p += w
		if !d.IsNull() && d.K != v.Kind && v.Kind != vec.KindAny {
			v.Demote(lane, vec.DefaultSize)
		}
		v.SetDatum(lane, d)
		if d.K == types.KindString {
			s.strBuf = append(s.strBuf, str...)
			s.strEnds = append(s.strEnds, len(s.strBuf))
		}
	}
	s.p += p
	s.row++
	return nil
}
