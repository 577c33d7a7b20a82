package refexec

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hivempi/internal/tpch"
	"hivempi/internal/types"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/tpch22_digests.txt")

// TestResultDigests holds every TPC-H result, on both scan paths, to
// the bytes the row-at-a-time map chain produced: the golden was
// recorded at commit 2ceba7c, the last one that had that chain (and
// PR 7's row-vs-batch comparison suite, which this digest outlives).
// Each line hashes the types.EncodeRow bytes of a result's rows in
// order, so float sums are pinned to the last bit. Only a change to
// the data generator, the planner's task geometry or the result
// encoding may legitimately move a digest.
func TestResultDigests(t *testing.T) {
	const golden = "testdata/tpch22_digests.txt"
	var sb strings.Builder
	for _, format := range []string{"textfile", "orc"} {
		d := newLoadedDriver(t, testSF, testSeed, format)
		for q := 1; q <= tpch.NumQueries; q++ {
			script, err := tpch.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := lastRows(t, d, script)
			h := sha256.New()
			var buf []byte
			for _, r := range rows {
				buf = types.EncodeRow(buf[:0], r)
				h.Write(buf)
			}
			fmt.Fprintf(&sb, "%s %s rows=%d sha256=%x\n", format, tpch.QueryName(q), len(rows), h.Sum(nil))
		}
	}
	if *updateDigests {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(wantLines))
	}
	for i, w := range wantLines {
		if got[i] != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], w)
		}
	}
}
