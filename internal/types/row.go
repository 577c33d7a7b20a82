package types

import (
	"fmt"
	"strings"
)

// Row is an ordered tuple of datums matching some Schema.
type Row []Datum

// Clone returns a deep-enough copy of the row (datums are values).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Text renders the row with the classic Hive field delimiter.
func (r Row) Text(delim byte) string {
	return string(r.AppendText(nil, delim))
}

// AppendText appends the row's Text rendering to dst.
func (r Row) AppendText(dst []byte, delim byte) []byte {
	for i, d := range r {
		if i > 0 {
			dst = append(dst, delim)
		}
		dst = d.AppendText(dst)
	}
	return dst
}

// Column describes one column of a table or intermediate result.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Col is shorthand for constructing a Column.
func Col(name string, t Kind) Column { return Column{Name: name, Type: t} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the ordinal of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a bigint, b string)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
