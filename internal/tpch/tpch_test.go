package tpch

import (
	"fmt"
	"strings"
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/types"
)

const testSF = ScaleFactor(0.001)

func newDriver(t *testing.T, engine exec.Engine, format string) *hive.Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes:     []string{"s1", "s2", "s3", "s4"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3", "s4"}
	conf.SlotsPerNode = 2
	d := hive.NewDriver(env, engine, conf)
	if err := Load(d, testSF, 42, format, 2); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(testSF, 7)
	g2 := NewGenerator(testSF, 7)
	a, al := g1.OrderAndLines()
	b, bl := g2.OrderAndLines()
	if len(a) != len(b) || len(al) != len(bl) {
		t.Fatal("row counts differ between identical generators")
	}
	for i := range a {
		if a[i].Text('|') != b[i].Text('|') {
			t.Fatalf("order %d differs", i)
		}
	}
	g3 := NewGenerator(testSF, 8)
	c, _ := g3.OrderAndLines()
	same := 0
	for i := range a {
		if i < len(c) && a[i].Text('|') == c[i].Text('|') {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratorReferentialIntegrity(t *testing.T) {
	g := NewGenerator(testSF, 42)
	orders, lines := g.OrderAndLines()
	okeys := map[int64]bool{}
	for _, o := range orders {
		okeys[o[0].Int()] = true
	}
	psPairs := map[[2]int64]bool{}
	for _, ps := range g.PartSupp() {
		psPairs[[2]int64{ps[0].Int(), ps[1].Int()}] = true
	}
	for i, l := range lines {
		if !okeys[l[0].Int()] {
			t.Fatalf("line %d references missing order %d", i, l[0].Int())
		}
		if !psPairs[[2]int64{l[1].Int(), l[2].Int()}] {
			t.Fatalf("line %d references missing partsupp (%d,%d)", i, l[1].Int(), l[2].Int())
		}
		ship, commit, receipt := l[10].Int(), l[11].Int(), l[12].Int()
		if receipt <= ship {
			t.Fatalf("line %d receipt %d <= ship %d", i, receipt, ship)
		}
		_ = commit
	}
	// Order totalprice must equal the sum over its lines.
	totals := map[int64]float64{}
	for _, l := range lines {
		totals[l[0].Int()] += l[5].Float() * (1 + l[7].Float()) * (1 - l[6].Float())
	}
	for i, o := range orders {
		want := totals[o[0].Int()]
		got := o[3].Float()
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("order %d totalprice %f != %f", i, got, want)
		}
	}
}

func TestGeneratorMarkers(t *testing.T) {
	g := NewGenerator(ScaleFactor(0.01), 42)
	complaints := 0
	for _, s := range g.Supplier() {
		if strings.Contains(s[6].Str(), "Customer") && strings.Contains(s[6].Str(), "Complaints") {
			complaints++
		}
	}
	if complaints == 0 {
		t.Error("no supplier complaint markers generated (Q16 would be vacuous)")
	}
	forest := 0
	for _, p := range g.Part() {
		if strings.HasPrefix(p[1].Str(), "forest") {
			forest++
		}
	}
	if forest == 0 {
		t.Error("no forest-prefixed parts generated (Q20 would be vacuous)")
	}
}

func rowsFingerprint(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			if d.K == types.KindFloat {
				parts[j] = fmt.Sprintf("%.4f", d.F)
			} else {
				parts[j] = d.Text()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// lastSelectRows runs a query script and returns the final SELECT rows.
func lastSelectRows(t *testing.T, d *hive.Driver, script string) []types.Row {
	t.Helper()
	results, err := d.Run(script)
	if err != nil {
		t.Fatalf("%v", err)
	}
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Rows != nil || strings.HasPrefix(strings.ToLower(
			strings.TrimSpace(results[i].Statement)), "select") {
			return results[i].Rows
		}
	}
	return nil
}

func TestAll22QueriesAgreeAcrossEngines(t *testing.T) {
	dm := newDriver(t, core.New(), "textfile")
	hd := newDriver(t, mrengine.New(), "textfile")
	for q := 1; q <= NumQueries; q++ {
		q := q
		t.Run(QueryName(q), func(t *testing.T) {
			script, err := Query(q)
			if err != nil {
				t.Fatal(err)
			}
			a := rowsFingerprint(lastSelectRows(t, dm, script))
			b := rowsFingerprint(lastSelectRows(t, hd, script))
			if len(a) != len(b) {
				t.Fatalf("datampi %d rows, hadoop %d rows", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("row %d differs:\n  datampi: %s\n  hadoop:  %s", i, a[i], b[i])
				}
			}
		})
	}
}

func TestQueriesAgreeAcrossFormats(t *testing.T) {
	// Text vs ORC must produce identical answers (Table II's comparison
	// is about performance only).
	text := newDriver(t, core.New(), "textfile")
	orc := newDriver(t, core.New(), "orc")
	for _, q := range []int{1, 3, 6, 12, 14} {
		script, err := Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a := rowsFingerprint(lastSelectRows(t, text, script))
		b := rowsFingerprint(lastSelectRows(t, orc, script))
		if len(a) != len(b) {
			t.Fatalf("%s: text %d rows, orc %d rows", QueryName(q), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s row %d differs:\n  text: %s\n  orc:  %s", QueryName(q), i, a[i], b[i])
			}
		}
	}
}

func TestQueryRangeValidation(t *testing.T) {
	if _, err := Query(0); err == nil {
		t.Error("Query(0) should fail")
	}
	if _, err := Query(23); err == nil {
		t.Error("Query(23) should fail")
	}
	for q := 1; q <= NumQueries; q++ {
		s, err := Query(q)
		if err != nil || !strings.Contains(strings.ToLower(s), "select") {
			t.Errorf("Query(%d) malformed: %v", q, err)
		}
	}
}

// TestPlanShapesForKeyQueries guards the planner's stage decomposition
// for representative queries (job counts drive every timing figure).
func TestPlanShapesForKeyQueries(t *testing.T) {
	d := newDriver(t, core.New(), "textfile")
	// Force common (shuffle) joins so stage counts are scale-independent
	// (at tiny test scale even orders fits the broadcast threshold).
	d.MapJoinThresholdBytes = 1
	cases := []struct {
		q          int
		stages     int // stages of the FINAL statement
		statements int // statements in the script
	}{
		{1, 2, 1},  // groupby + order
		{3, 4, 1},  // 2 joins + groupby + order
		{6, 1, 1},  // global aggregate
		{12, 3, 1}, // join + groupby + order
		{13, 4, 1}, // outer join + inner groupby + outer groupby + order
	}
	for _, c := range cases {
		script, err := Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		stmts := hive.SplitStatements(script)
		if len(stmts) != c.statements {
			t.Errorf("Q%d has %d statements, want %d", c.q, len(stmts), c.statements)
		}
		res, err := d.Execute("EXPLAIN " + stmts[len(stmts)-1])
		if err != nil {
			t.Fatalf("Q%d explain: %v", c.q, err)
		}
		got := strings.Count(res.Plan, "STAGE ")
		if got != c.stages {
			t.Errorf("Q%d plans %d stages, want %d:\n%s", c.q, got, c.stages, res.Plan)
		}
	}
	// With the default threshold, Q5's dimension chain (nation, region,
	// supplier) becomes map joins.
	d2 := newDriver(t, core.New(), "textfile")
	q5, _ := Query(5)
	res, err := d2.Execute("EXPLAIN " + hive.SplitStatements(q5)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "MapJoin") {
		t.Errorf("Q5 plan has no map joins:\n%s", res.Plan)
	}
	// Predicate pushdown must reach the lineitem scan of Q6.
	q6, _ := Query(6)
	res, err = d2.Execute("EXPLAIN " + hive.SplitStatements(q6)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "pushdown") {
		t.Errorf("Q6 plan lacks scan pushdown:\n%s", res.Plan)
	}
}
