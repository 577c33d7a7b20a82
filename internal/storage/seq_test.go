package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"hivempi/internal/dfs"
	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// TestSeqBatchTypesFromSchema: the Sequence reader fills vectors typed
// from the schema, and a datum whose kind disagrees with its column
// demotes that column — for that batch only — to datum mode rather than
// being stored through the typed payload. Every lane must read back as
// exactly the datum written, across the file's block boundaries.
func TestSeqBatchTypesFromSchema(t *testing.T) {
	schema := types.NewSchema(
		types.Col("a", types.KindInt),
		types.Col("b", types.KindString),
		types.Col("c", types.KindFloat),
	)
	pad := strings.Repeat("x", 60) // three 64 KB blocks
	rows := make([]types.Row, 2*vec.DefaultSize+1)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.String(fmt.Sprint("s", i, pad)), types.Float(float64(i) / 2)}
	}
	rows[3][1] = types.Null()
	// Second batch: column a meets a string mid-batch, a bool (same I64
	// payload as int) and a NULL; column b meets an int after and before
	// strings; column c meets an int.
	second := rows[vec.DefaultSize:]
	second[5][0] = types.String("not an int")
	second[6][0] = types.Bool(true)
	second[7][0] = types.Null()
	second[9][2] = types.Int(4)
	second[11][1] = types.Int(5)

	fs := newFS()
	writeRows(t, fs, "/kinds.seq", FormatSequence, schema, rows)
	sz, err := fs.Size("/kinds.seq")
	if err != nil {
		t.Fatal(err)
	}
	if sz < 2*seqBlockTarget {
		t.Fatalf("%d bytes: want batches that span blocks", sz)
	}
	rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/kinds.seq", Length: sz}, FormatSequence, schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(schema.Len(), vec.DefaultSize)
	wantKinds := [][]types.Kind{
		{types.KindInt, types.KindString, types.KindFloat},
		{vec.KindAny, vec.KindAny, vec.KindAny},
		{types.KindInt, types.KindString, types.KindFloat},
	}
	seen := 0
	for batch := 0; ; batch++ {
		err := rd.NextBatch(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range b.Cols {
			if v.Kind != wantKinds[batch][c] {
				t.Errorf("batch %d column %d kind %v, want %v", batch, c, v.Kind, wantKinds[batch][c])
			}
		}
		for i := 0; i < b.N; i++ {
			for c, got := range b.Row(i, nil) {
				if want := rows[seen][c]; got != want {
					t.Fatalf("row %d column %d = %#v, want %#v", seen, c, got, want)
				}
			}
			seen++
		}
	}
	if seen != len(rows) {
		t.Fatalf("reader served %d rows, want %d", seen, len(rows))
	}
}

// TestSeqHostileBlockRejected: a block header or payload that lies is
// an error, never a panic or an allocation sized by its claims.
func TestSeqHostileBlockRejected(t *testing.T) {
	schema := types.NewSchema(types.Col("a", types.KindInt), types.Col("b", types.KindString))
	file := func(schema *types.Schema) []byte {
		fs := newFS()
		rows := make([]types.Row, 100)
		for i := range rows {
			rows[i] = make(types.Row, schema.Len())
			for c := range rows[i] {
				rows[i][c] = types.Int(int64(i))
			}
		}
		writeRows(t, fs, "/good.seq", FormatSequence, schema, rows)
		data, err := fs.ReadFile("/good.seq")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := file(schema)
	hdr := len(seqSync) // the first block's header
	blen := binary.LittleEndian.Uint32(good[hdr:])
	cases := map[string][]byte{
		"payload past the file": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[hdr:], 1<<32-1)
			return b
		}(),
		"rows past the payload": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[hdr+4:], blen+1)
			return b
		}(),
		"row wider than the schema": file(types.NewSchema(
			types.Col("a", types.KindInt), types.Col("b", types.KindInt), types.Col("c", types.KindInt))),
		"truncated payload": good[:len(good)-5],
	}
	for name, data := range cases {
		fs := dfs.New(dfs.Config{BlockSize: 4 << 10, Nodes: []string{"n"}})
		if err := fs.WriteFile("/hostile.seq", data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd, err := OpenSplitBatch(fs, dfs.Split{Path: "/hostile.seq", Length: int64(len(data))},
			FormatSequence, schema, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := vec.NewBatch(schema.Len(), vec.DefaultSize)
		for err == nil {
			err = rd.NextBatch(b)
		}
		runtime.ReadMemStats(&after)
		if err == io.EOF {
			t.Errorf("%s: scanned clean", name)
		}
		t.Logf("%s: %v", name, err)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%s: allocated %d bytes reading a %d-byte file", name, got, len(data))
		}
	}
}
