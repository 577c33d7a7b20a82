package storage

import (
	"bufio"
	"fmt"
	"io"

	"hivempi/internal/types"
)

// TextDelim is Hive's default field delimiter rendered printable ('|'
// instead of \x01, matching TPC-H's .tbl convention).
const TextDelim = '|'

// textWriter writes delimiter-separated rows, one per line.
type textWriter struct {
	w      io.WriteCloser
	bw     *bufio.Writer
	schema *types.Schema
	line   []byte // the row being rendered, reused
}

func newTextWriter(w io.WriteCloser, schema *types.Schema) *textWriter {
	return &textWriter{w: w, bw: bufio.NewWriter(w), schema: schema}
}

func (t *textWriter) Write(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: text row has %d columns, schema %d", len(row), t.schema.Len())
	}
	t.line = append(row.AppendText(t.line[:0], TextDelim), '\n')
	_, err := t.bw.Write(t.line)
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
type textSplitReader struct {
	br     *bufio.Reader
	schema *types.Schema
	pos    int64 // offset of the next unread byte
	end    int64 // split end; lines starting at >= end belong to the next split
	done   bool
}

func newTextSplitReader(r io.ReadSeeker, offset, length int64, schema *types.Schema) (*textSplitReader, error) {
	if _, err := r.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	t := &textSplitReader{br: bufio.NewReader(r), schema: schema, pos: offset, end: offset + length}
	if offset > 0 {
		// Skip the tail of the previous split's last line.
		skipped, err := t.br.ReadString('\n')
		t.pos += int64(len(skipped))
		if err == io.EOF {
			t.done = true
		} else if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *textSplitReader) Next() (types.Row, error) {
	// A line starting exactly at the end boundary belongs to this split
	// (the next split unconditionally skips its first partial line), so
	// the stop condition is pos > end, matching Hadoop's LineRecordReader.
	if t.done || t.pos > t.end {
		return nil, io.EOF
	}
	line, err := t.br.ReadString('\n')
	if err == io.EOF {
		t.done = true
		if len(line) == 0 {
			return nil, io.EOF
		}
	} else if err != nil {
		return nil, err
	}
	t.pos += int64(len(line))
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	row, perr := types.ParseRowText(line, TextDelim, t.schema)
	if perr != nil {
		return nil, fmt.Errorf("storage: text parse: %w", perr)
	}
	return row, nil
}
