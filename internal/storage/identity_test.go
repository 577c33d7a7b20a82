package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"hivempi/internal/types"
)

// Digests of identityRows written by the commit before the codec state
// was pooled (134f614). The writers may change how they work, never
// what they write: virtual time, dfs byte counts and every part-file
// digest downstream hang off these bytes.
const (
	goldenORCDigest  = "dda5ff863f5a421166c5a4c7e51d4a0e31b034234842712b036ba5b6455522e5"
	goldenTextDigest = "eca406212275d5781179c37e2bde772189dfbb9466243f7294c7e7cfb7903094"
)

func identitySchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.KindInt),
		types.Col("status", types.KindString),  // low cardinality, nulls: dictionary
		types.Col("comment", types.KindString), // all distinct: direct
		types.Col("price", types.KindFloat),
		types.Col("ship", types.KindDate),
		types.Col("flag", types.KindBool),
		types.Col("qty", types.KindInt), // long runs, nulls
	)
}

func identityRows(n int, seed int64) []types.Row {
	r := rand.New(rand.NewSource(seed))
	status := []string{"O", "F", "P", ""}
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{
			types.Int(int64(i) * 3),
			types.String(status[r.Intn(len(status))]),
			types.String(fmt.Sprintf("c%x-%d", r.Int63(), i)),
			types.Float(float64(r.Intn(1000000)) / 100),
			types.Date(int64(8000 + r.Intn(2500))),
			types.Bool(r.Intn(3) == 0),
			types.Int(int64(i / 97)),
		}
		for _, ci := range []int{1, 3, 6} {
			if r.Intn(16) == 0 {
				row[ci] = types.Null()
			}
		}
		rows[i] = row
	}
	return rows
}

func fileDigest(t *testing.T, write func(path string), path string, read func(string) ([]byte, error)) (string, []byte) {
	t.Helper()
	write(path)
	data, err := read(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), data
}

// TestWriterBytesIdentity writes the same table twice with another
// table in between, so the second pass runs on pooled compressors and
// scratch the other table left dirty, and holds both passes to the
// digest taken before any of that state was reused.
func TestWriterBytesIdentity(t *testing.T) {
	fs := newFS()
	rows := identityRows(6000, 42)
	other := testRows(3000)
	for _, tc := range []struct {
		f      Format
		golden string
	}{{FormatORC, goldenORCDigest}, {FormatText, goldenTextDigest}} {
		write := func(path string) { writeRows(t, fs, path, tc.f, identitySchema(), rows) }
		first, a := fileDigest(t, write, "/id/a", fs.ReadFile)
		writeRows(t, fs, "/id/other", tc.f, testSchema(), other)
		second, b := fileDigest(t, write, "/id/b", fs.ReadFile)
		if !bytes.Equal(a, b) {
			t.Errorf("%v: the same table written twice differs (%d vs %d bytes)", tc.f, len(a), len(b))
		}
		if first != tc.golden || second != tc.golden {
			t.Errorf("%v: digests %s, %s; golden %s", tc.f, first, second, tc.golden)
		}
	}
}
