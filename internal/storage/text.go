package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// TextDelim is Hive's default field delimiter rendered printable ('|'
// instead of \x01, matching TPC-H's .tbl convention).
const TextDelim = '|'

// textWriter writes delimiter-separated rows, one per line.
type textWriter struct {
	w      io.WriteCloser
	bw     *bufio.Writer
	schema *types.Schema
	line   []byte    // the row being rendered, reused
	row    types.Row // WriteBatch's lane, reused
}

func newTextWriter(w io.WriteCloser, schema *types.Schema) *textWriter {
	return &textWriter{w: w, bw: bufio.NewWriter(w), schema: schema}
}

func (t *textWriter) Write(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: text row has %d columns, schema %d", len(row), t.schema.Len())
	}
	for ci, d := range row {
		if err := checkKind("text", t.schema.Columns[ci], d.K); err != nil {
			return err
		}
	}
	t.line = append(row.AppendText(t.line[:0], TextDelim), '\n')
	_, err := t.bw.Write(t.line)
	return err
}

// WriteBatch writes b's rows through Write.
func (t *textWriter) WriteBatch(b *vec.Batch) (err error) {
	t.row, err = writeLanes(t, t.row, b)
	return err
}

func (t *textWriter) Close() error {
	if err := t.bw.Flush(); err != nil {
		return err
	}
	return t.w.Close()
}

// textSplitReader reads the lines belonging to one split: a line belongs
// to the split that contains its first byte, so readers at offset > 0
// skip the partial first line and every reader runs past the split end
// to finish its final line (the standard Hadoop TextInputFormat rule).
//
// It parses lines straight into column batches with one tokenizer
// (readLine, parseLine) and one field parser (parseField). Every field
// of every line is parsed against the schema whether or not its column
// is projected; projection only decides what is stored.
type textSplitReader struct {
	br      *bufio.Reader
	schema  *types.Schema
	project []int        // column ordinals to materialize
	kinds   []types.Kind // per column: its kind if projected, else KindNull
	pos     int64        // offset of the next unread byte
	end     int64        // split end; lines starting at >= end belong to the next split
	done    bool

	// Per-line scratch, overwritten by every parseLine: column ci's
	// bytes and its parsed value (string payloads stay in fields).
	long   []byte // a line longer than the bufio window, grown once
	fields [][]byte
	vals   []textValue

	// Per-batch scratch: the bytes of every projected string cell in
	// (lane, column) order and where each one ends.
	strBuf  []byte
	strEnds []int
}

func newTextSplitReader(r io.ReadSeeker, offset, length int64, schema *types.Schema,
	projection []int) (*textSplitReader, error) {
	if _, err := r.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	n := schema.Len()
	t := &textSplitReader{br: bufio.NewReader(r), schema: schema, project: projection,
		pos: offset, end: offset + length,
		fields: make([][]byte, n), vals: make([]textValue, n)}
	if projection == nil {
		t.project = make([]int, n)
		for i := range t.project {
			t.project[i] = i
		}
	}
	t.kinds = make([]types.Kind, n)
	for _, ci := range t.project {
		if ci < 0 || ci >= n {
			return nil, fmt.Errorf("storage: text projection column %d out of range", ci)
		}
		t.kinds[ci] = schema.Columns[ci].Type
	}
	if offset > 0 {
		// Skip the tail of the previous split's last line.
		if _, err := t.readLine(); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return t, nil
}

// readLine returns the next line of the file without its newline, or
// io.EOF once the file is exhausted. The bytes are valid until the
// next call.
func (t *textSplitReader) readLine() ([]byte, error) {
	line, err := t.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		t.long = append(t.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = t.br.ReadSlice('\n')
			t.long = append(t.long, line...)
		}
		line = t.long
	}
	t.pos += int64(len(line))
	if err == io.EOF {
		t.done = true
		if len(line) == 0 {
			return nil, io.EOF
		}
	} else if err != nil {
		return nil, err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, nil
}

// nextLine reads and parses the split's next line into t.fields and
// t.vals; io.EOF ends the split.
func (t *textSplitReader) nextLine() error {
	// A line starting exactly at the end boundary belongs to this split
	// (the next split unconditionally skips its first partial line), so
	// the stop condition is pos > end, matching Hadoop's LineRecordReader.
	if t.done || t.pos > t.end {
		return io.EOF
	}
	line, err := t.readLine()
	if err != nil {
		return err
	}
	return t.parseLine(line)
}

// parseLine cuts line at every delimiter and parses each field as its
// column's kind. The field count is checked before any field is.
func (t *textSplitReader) parseLine(line []byte) error {
	cols := t.schema.Columns
	if n := bytes.Count(line, textDelim) + 1; n != len(cols) {
		return fmt.Errorf("storage: text parse: row has %d fields, schema %s has %d",
			n, t.schema, len(cols))
	}
	for ci := range cols {
		f := line
		if i := bytes.IndexByte(line, TextDelim); i >= 0 {
			f, line = line[:i], line[i+1:]
		}
		i, fl, null, err := parseField(f, cols[ci].Type)
		if err != nil {
			return fmt.Errorf("storage: text parse: column %s: %w", cols[ci].Name, err)
		}
		t.fields[ci], t.vals[ci] = f, textValue{i: i, f: fl, null: null}
	}
	return nil
}

// textValue is one parsed field in the form a vector stores it: i for
// the integer-backed kinds, f for floats, neither for strings (whose
// bytes stay in fields).
type textValue struct {
	i    int64
	f    float64
	null bool
}

var textDelim = []byte{TextDelim}

// parseField parses one text-serde field of a column of kind k into
// the payload a vector of that kind stores: i for the integer-backed
// kinds (bool as 0/1, date as epoch days), fl for floats, neither for
// strings, whose bytes the caller holds. The spellings the writer
// produces are recognised here without allocating; every other
// spelling, and every error, comes from types.ParseText.
func parseField(f []byte, k types.Kind) (i int64, fl float64, null bool, err error) {
	if string(f) == `\N` {
		return 0, 0, true, nil
	}
	switch k {
	case types.KindString:
		return 0, 0, false, nil
	case types.KindInt:
		if v, err := strconv.ParseInt(string(f), 10, 64); err == nil {
			return v, 0, false, nil
		}
	case types.KindFloat:
		if v, err := strconv.ParseFloat(string(f), 64); err == nil {
			return 0, v, false, nil
		}
	case types.KindBool:
		switch string(f) {
		case "true":
			return 1, 0, false, nil
		case "false":
			return 0, 0, false, nil
		}
	case types.KindDate:
		if days, ok := parseISODate(f); ok {
			return days, 0, false, nil
		}
	}
	d, err := types.ParseText(string(f), k)
	return d.I, d.F, false, err
}

// parseISODate converts a canonical YYYY-MM-DD date of the years
// 0001-9999 to days since the Unix epoch. Anything else is left to
// types.DateFromString, which accepts or rejects it.
func parseISODate(f []byte) (int64, bool) {
	if len(f) != 10 || f[4] != '-' || f[7] != '-' {
		return 0, false
	}
	var num [10]int
	for i, c := range f {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		num[i] = int(c - '0')
	}
	y := num[0]*1000 + num[1]*100 + num[2]*10 + num[3]
	m := num[5]*10 + num[6]
	d := num[8]*10 + num[9]
	if y < 1 || m < 1 || m > 12 || d < 1 || d > daysIn(y, m) {
		return 0, false
	}
	// Days from the civil date, counting years from March so the leap
	// day falls last (y >= 0 throughout, so the divisions are floors).
	if m <= 2 {
		y--
	}
	era, yoe := y/400, y%400
	doy := (153*((m+9)%12)+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era)*146097 + int64(doe) - 719468, true
}

func daysIn(y, m int) int {
	switch m {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	}
	return 31
}

// NextBatch implements BatchReader: up to vec.DefaultSize lines parsed
// straight into b's typed payloads, unprojected columns all-null. The
// reader's scratch is reused from batch to batch; the strings of a
// batch are cut from one allocation made for that batch alone, because
// join tables, group keys and row sinks keep them.
func (t *textSplitReader) NextBatch(b *vec.Batch) error {
	cols := b.Cols[:t.schema.Len()]
	for ci, v := range cols {
		v.Reset(t.kinds[ci], vec.DefaultSize)
	}
	t.strBuf, t.strEnds = t.strBuf[:0], t.strEnds[:0]
	n := 0
	for n < vec.DefaultSize {
		err := t.nextLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, ci := range t.project {
			v, val := cols[ci], t.vals[ci]
			switch {
			case val.null:
				v.SetNull(n)
			case v.Kind == types.KindString:
				t.strBuf = append(t.strBuf, t.fields[ci]...)
			case v.Kind == types.KindFloat:
				v.F64[n] = val.f
			default:
				v.I64[n] = val.i
			}
			if v.Kind == types.KindString {
				t.strEnds = append(t.strEnds, len(t.strBuf))
			}
		}
		n++
	}
	if n == 0 {
		return io.EOF
	}
	arena, cell, lo := string(t.strBuf), 0, 0
	for lane := 0; lane < n; lane++ {
		for _, ci := range t.project {
			if v := cols[ci]; v.Kind == types.KindString {
				hi := t.strEnds[cell]
				v.Str[lane] = arena[lo:hi]
				cell, lo = cell+1, hi
			}
		}
	}
	b.N = n
	return nil
}
