// Package storage implements the three table file formats the paper
// evaluates: delimited Text, a binary Sequence format (HiBench's
// default input), and an ORC-like columnar format with stripes, column
// projection, lightweight compression and stripe statistics for
// predicate pushdown (the source of Table II's Text vs ORC gap).
package storage

import (
	"fmt"
	"io"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// Format selects a table file format.
type Format int

// Supported formats.
const (
	FormatText Format = iota + 1
	FormatSequence
	FormatORC
)

// String returns the HiveQL STORED AS spelling.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "textfile"
	case FormatSequence:
		return "sequencefile"
	case FormatORC:
		return "orc"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat parses a STORED AS clause value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "textfile", "text":
		return FormatText, nil
	case "sequencefile", "sequence", "seq":
		return FormatSequence, nil
	case "orc", "orcfile":
		return FormatORC, nil
	default:
		return 0, fmt.Errorf("storage: unknown format %q", s)
	}
}

// RowWriter writes rows of one schema to a file: a row at a time
// (Write) or a column batch at a time (WriteBatch, whose batch is only
// read during the call). Every writer's WriteBatch is writeLanes over
// its Write, so both entry points write the same bytes for the same
// rows.
type RowWriter interface {
	Write(types.Row) error
	WriteBatch(*vec.Batch) error
	Close() error
}

// checkKind is the typed writers' (ORC and Text) rule for one value of
// kind k bound for column c: NULL, the column's own kind and an int
// widened to a double are written, anything else fails the write.
// Sequence files describe their own datums and take any kind.
func checkKind(format string, c types.Column, k types.Kind) error {
	if k == types.KindNull || k == c.Type || (c.Type == types.KindFloat && k == types.KindInt) {
		return nil
	}
	return fmt.Errorf("storage: %s column %s is %v, got %v", format, c.Name, c.Type, k)
}

// writeLanes writes b's rows through w.Write, each lane read into row,
// which is reused and returned for the next batch. No writer keeps a
// row it is given, so a batch costs no row slab.
func writeLanes(w RowWriter, row types.Row, b *vec.Batch) (types.Row, error) {
	for lane := 0; lane < b.N; lane++ {
		row = b.Row(lane, row)
		if err := w.Write(row); err != nil {
			return row, err
		}
	}
	return row, nil
}

// RowReader iterates rows; Next returns io.EOF at end of input.
type RowReader interface {
	Next() (types.Row, error)
}

// NewWriter creates a writer of the given format over w.
func NewWriter(f Format, w io.WriteCloser, schema *types.Schema) (RowWriter, error) {
	switch f {
	case FormatText:
		return newTextWriter(w, schema), nil
	case FormatSequence:
		return newSeqWriter(w, schema), nil
	case FormatORC:
		return newORCWriter(w, schema, ORCOptions{}), nil
	default:
		return nil, fmt.Errorf("storage: unknown format %v", f)
	}
}

// CreateTableFile creates path on fs and returns a writer for it. ORC
// stripes are cut at the DFS block size (Hive's default couples stripe
// and block sizes) so every split carries whole stripes.
func CreateTableFile(fs *dfs.FileSystem, path string, f Format, schema *types.Schema) (RowWriter, error) {
	w, err := fs.CreateOverwrite(path)
	if err != nil {
		return nil, err
	}
	if f == FormatORC {
		return newORCWriter(w, schema, ORCOptions{StripeBytes: fs.Config().BlockSize}), nil
	}
	return NewWriter(f, w, schema)
}

// PhysicalReader is implemented by readers whose physical I/O differs
// from the split length (ORC column projection + stripe skipping).
type PhysicalReader interface {
	PhysicalBytes() int64
}

// BatchReader iterates column batches; NextBatch fills b (whose
// column count must match the schema) and returns io.EOF at end of
// input. Unprojected columns come back all-null.
type BatchReader interface {
	NextBatch(b *vec.Batch) error
}

// OpenSplitBatch returns a batch reader over one input split, the one
// reader of each format. Each format applies its own boundary rule:
// text splits break at line boundaries, sequence splits at sync
// markers, ORC splits at stripe starts. ORC serves batches from its
// pruned column streams, Text parses lines and Sequence decodes block
// rows straight into vectors.
//
// projection optionally lists the column ordinals to materialize: ORC
// reads only those columns; Text still checks every field of every line
// but stores only those; Sequence fills the full row regardless.
// predicate optionally enables stripe skipping in ORC.
func OpenSplitBatch(fs *dfs.FileSystem, split dfs.Split, f Format, schema *types.Schema,
	projection []int, predicate *Predicate) (BatchReader, error) {
	r, err := fs.Open(split.Path)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatText:
		return newTextSplitReader(r, split.Offset, split.Length, schema, projection)
	case FormatSequence:
		return newSeqSplitReader(r, split.Offset, split.Length, schema)
	case FormatORC:
		return newORCSplitReader(r, split.Offset, split.Length, schema, projection, predicate)
	default:
		return nil, fmt.Errorf("storage: unknown format %v", f)
	}
}

// OpenSplit returns OpenSplitBatch's reader with its batches cut into
// rows. Each batch is cut from one fresh slab, so rows stay valid for as
// long as their holders keep them. The reader is a PhysicalReader when
// the batch reader is (ORC).
func OpenSplit(fs *dfs.FileSystem, split dfs.Split, f Format, schema *types.Schema,
	projection []int, predicate *Predicate) (RowReader, error) {
	br, err := OpenSplitBatch(fs, split, f, schema, projection, predicate)
	if err != nil {
		return nil, err
	}
	c := rowCutter{br: br, b: vec.Get(schema.Len())}
	if pr, ok := br.(PhysicalReader); ok {
		return &physicalCutter{c, pr}, nil
	}
	return &c, nil
}

// rowCutter serves a batch reader's batches a row at a time. Its batch
// is pooled and goes back at the reader's first error (io.EOF at the
// latest), which every later Next repeats; rows never alias it.
type rowCutter struct {
	br   BatchReader
	b    *vec.Batch
	slab vec.RowSlab
	i, n int // the next row of the slab, and its row count
	err  error
}

func (c *rowCutter) Next() (types.Row, error) {
	for c.i == c.n {
		if c.err != nil {
			return nil, c.err
		}
		if c.err = c.br.NextBatch(c.b); c.err != nil {
			vec.Put(c.b)
			c.b = nil
			return nil, c.err
		}
		c.slab, c.i, c.n = vec.Materialize(c.b), 0, c.b.N
	}
	c.i++
	return c.slab.Row(c.i - 1), nil
}

// physicalCutter is a rowCutter whose batch reader counts the bytes it
// fetched.
type physicalCutter struct {
	rowCutter
	PhysicalReader
}

// ReadAll reads every row of a file (testing and small-table helper).
func ReadAll(fs *dfs.FileSystem, path string, f Format, schema *types.Schema) ([]types.Row, error) {
	sz, err := fs.Size(path)
	if err != nil {
		return nil, err
	}
	rd, err := OpenSplit(fs, dfs.Split{Path: path, Offset: 0, Length: sz}, f, schema, nil, nil)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for {
		row, err := rd.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
}

// Predicate is a simple single-column comparison used for ORC stripe
// skipping (min/max pruning). The planner extracts one from pushed-down
// filters when possible.
type Predicate struct {
	Column int
	Op     PredicateOp
	Value  types.Datum
}

// PredicateOp enumerates prunable comparison operators.
type PredicateOp int

// Prunable operators.
const (
	PredEQ PredicateOp = iota + 1
	PredLT
	PredLE
	PredGT
	PredGE
)

// matchesRange reports whether any value in [min, max] can satisfy the
// predicate (if not, the stripe is skipped).
func (p *Predicate) matchesRange(min, max types.Datum) bool {
	if p == nil {
		return true
	}
	if min.IsNull() || max.IsNull() {
		return true // stats unavailable; cannot prune
	}
	switch p.Op {
	case PredEQ:
		return types.Compare(p.Value, min) >= 0 && types.Compare(p.Value, max) <= 0
	case PredLT:
		return types.Compare(min, p.Value) < 0
	case PredLE:
		return types.Compare(min, p.Value) <= 0
	case PredGT:
		return types.Compare(max, p.Value) > 0
	case PredGE:
		return types.Compare(max, p.Value) >= 0
	default:
		return true
	}
}
