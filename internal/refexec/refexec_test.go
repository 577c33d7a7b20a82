package refexec

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/tpch"
	"hivempi/internal/types"
)

const (
	testSF   = tpch.ScaleFactor(0.001)
	testSeed = 42
)

// newLoadedDriver builds the standard refexec driver (DataMPI, four
// nodes) over TPC-H generated at sf/seed in the given table format.
func newLoadedDriver(t *testing.T, sf tpch.ScaleFactor, seed int64, format string) *hive.Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes:     []string{"s1", "s2", "s3", "s4"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3", "s4"}
	conf.SlotsPerNode = 2
	d := hive.NewDriver(env, core.New(), conf)
	if err := tpch.Load(d, sf, seed, format, 2); err != nil {
		t.Fatal(err)
	}
	return d
}

func newDriver(t *testing.T) *hive.Driver {
	t.Helper()
	return newLoadedDriver(t, testSF, testSeed, "textfile")
}

// canon renders a row for order-insensitive matching; floats rounded.
func canon(r types.Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		if d.K == types.KindFloat {
			parts[i] = fmt.Sprintf("%.3f", d.F)
		} else {
			parts[i] = d.Text()
		}
	}
	return strings.Join(parts, "|")
}

// rowsMatch compares result sets allowing float tolerance: both sides
// are sorted canonically, then columns compared numerically.
func rowsMatch(t *testing.T, q int, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Q%d: engine %d rows, reference %d rows", q, len(got), len(want))
	}
	sortCanon := func(rows []types.Row) {
		sort.Slice(rows, func(i, j int) bool { return canon(rows[i]) < canon(rows[j]) })
	}
	sortCanon(got)
	sortCanon(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("Q%d row %d: width %d vs %d", q, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if g.K == types.KindFloat || w.K == types.KindFloat {
				gv, wv := g.Float(), w.Float()
				tol := 1e-6 * math.Max(1, math.Max(math.Abs(gv), math.Abs(wv)))
				if math.Abs(gv-wv) > tol {
					t.Fatalf("Q%d row %d col %d: %v vs %v", q, i, c, gv, wv)
				}
				continue
			}
			if g.IsNull() != w.IsNull() || (!g.IsNull() && types.Compare(g, w) != 0) {
				t.Fatalf("Q%d row %d col %d: %v vs %v\nengine: %s\nref:    %s",
					q, i, c, g, w, canon(got[i]), canon(want[i]))
			}
		}
	}
}

func lastRows(t *testing.T, d *hive.Driver, script string) []types.Row {
	t.Helper()
	results, err := d.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	return results[len(results)-1].Rows
}

// rowsByteIdentical asserts the two result sets are exactly equal —
// same rows, same order, same encoded bytes (no float tolerance).
func rowsByteIdentical(t *testing.T, q int, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Q%d: %d rows vs %d rows", q, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(types.EncodeRow(nil, got[i]), types.EncodeRow(nil, want[i])) {
			t.Fatalf("Q%d row %d differs:\ngot:  %s\nwant: %s", q, i, canon(got[i]), canon(want[i]))
		}
	}
}

// TestEngineMatchesReferenceOnAll22Queries covers both scan paths: the
// row-format adapter (text rows packed into batches) and the native
// columnar scan (ORC stripes decoded straight into batches).
func TestEngineMatchesReferenceOnAll22Queries(t *testing.T) {
	db := Load(testSF, testSeed)
	for _, format := range []string{"textfile", "orc"} {
		d := newLoadedDriver(t, testSF, testSeed, format)
		nonEmpty := 0
		for q := 1; q <= tpch.NumQueries; q++ {
			q := q
			t.Run(format+"/"+tpch.QueryName(q), func(t *testing.T) {
				script, err := tpch.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got := lastRows(t, d, script)
				want, err := Query(db, q)
				if err != nil {
					t.Fatal(err)
				}
				rowsMatch(t, q, got, want)
				if len(want) > 0 {
					nonEmpty++
				}
			})
		}
		if nonEmpty < 12 {
			t.Errorf("%s: only %d of 22 queries returned rows at this scale; "+
				"validation coverage too thin", format, nonEmpty)
		}
		var batches int64
		for _, qt := range d.Collector.Queries() {
			for _, st := range qt.Stages {
				for _, p := range st.Producers {
					batches += p.Batches
				}
			}
		}
		if batches == 0 {
			t.Errorf("%s: no map task recorded a batch", format)
		}
	}
}

func TestReferenceOrderingSpecs(t *testing.T) {
	db := Load(testSF, testSeed)
	// Q1 ordered by (returnflag, linestatus) ascending.
	rows, err := Query(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		a := rows[i-1][0].Str() + rows[i-1][1].Str()
		b := rows[i][0].Str() + rows[i][1].Str()
		if a > b {
			t.Errorf("Q1 reference not ordered at %d", i)
		}
	}
	// Q10 limited to 20 rows, revenue descending.
	rows10, err := Query(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows10) > 20 {
		t.Errorf("Q10 reference returned %d rows", len(rows10))
	}
	for i := 1; i < len(rows10); i++ {
		if rows10[i-1][2].Float() < rows10[i][2].Float() {
			t.Errorf("Q10 reference revenue not descending at %d", i)
		}
	}
}

func TestLikeIndependentImplementation(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"PROMO BRUSHED TIN", "PROMO%", true},
		{"ECONOMY BRUSHED TIN", "PROMO%", false},
		{"forest green peru", "forest%", true},
		{"abc Customer xyz Complaints", "%Customer%Complaints%", true},
		{"abc Customer xyz", "%Customer%Complaints%", false},
		{"MEDIUM POLISHED COPPER", "MEDIUM POLISHED%", true},
		{"", "%", true},
	}
	for _, c := range cases {
		if got := like(c.s, c.pat); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

// TestEngineMatchesReferenceAcrossSeeds re-validates a representative
// query subset under different generator seeds, guarding against
// coincidental agreement on one dataset.
func TestEngineMatchesReferenceAcrossSeeds(t *testing.T) {
	queries := []int{1, 3, 5, 9, 13, 16, 18, 21, 22}
	for _, seed := range []int64{7, 1234} {
		seed := seed
		db := Load(testSF, seed)
		d := newLoadedDriver(t, testSF, seed, "textfile")
		for _, q := range queries {
			script, err := tpch.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got := lastRows(t, d, script)
			want, err := Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			rowsMatch(t, q, got, want)
		}
	}
}

// TestEnhancedParallelismPreservesResults re-validates a query subset
// under the enhanced strategy on ORC tables (the Fig. 11/12 execution
// configuration must not change answers).
func TestEnhancedParallelismPreservesResults(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes:     []string{"s1", "s2", "s3", "s4"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3", "s4"}
	conf.SlotsPerNode = 2
	conf.Parallelism = exec.ParallelismEnhanced
	d := hive.NewDriver(env, core.New(), conf)
	if err := tpch.Load(d, testSF, testSeed, "orc", 2); err != nil {
		t.Fatal(err)
	}
	db := Load(testSF, testSeed)
	for _, q := range []int{1, 3, 9, 13, 16, 21} {
		script, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got := lastRows(t, d, script)
		want, err := Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		rowsMatch(t, q, got, want)
	}
}
