package hive

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/mrengine"
	"hivempi/internal/types"
)

// newTestDriver builds a driver over an in-memory cluster.
func newTestDriver(t *testing.T, engine exec.Engine) *Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 8 << 10,
		Nodes:     []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	return NewDriver(env, engine, conf)
}

// seedSales creates and fills a small star schema used by most tests.
func seedSales(t *testing.T, d *Driver) {
	t.Helper()
	script := `
		CREATE TABLE sales (region string, product string, amount double, qty int, day date);
		CREATE TABLE products (product string, category string, price double);
	`
	if _, err := d.Run(script); err != nil {
		t.Fatal(err)
	}
	var sales []types.Row
	regions := []string{"east", "west", "north"}
	products := []string{"apple", "pear", "plum", "kiwi"}
	for i := 0; i < 600; i++ {
		sales = append(sales, types.Row{
			types.String(regions[i%3]),
			types.String(products[i%4]),
			types.Float(float64(i%50) + 0.5),
			types.Int(int64(i % 7)),
			types.Date(int64(10000 + i%30)),
		})
	}
	if err := d.LoadTableData("sales", 0, sales); err != nil {
		t.Fatal(err)
	}
	var prods []types.Row
	for i, p := range products {
		cat := "fruit"
		if i >= 3 {
			cat = "exotic"
		}
		prods = append(prods, types.Row{types.String(p), types.String(cat), types.Float(float64(i + 1))})
	}
	if err := d.LoadTableData("products", 0, prods); err != nil {
		t.Fatal(err)
	}
}

func engines(t *testing.T) map[string]exec.Engine {
	return map[string]exec.Engine{
		"datampi": core.New(),
		"hadoop":  mrengine.New(),
	}
}

func query(t *testing.T, d *Driver, sql string) *Result {
	t.Helper()
	res, err := d.Execute(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSimpleSelectFilter(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			seedSales(t, d)
			res := query(t, d, "SELECT product, amount FROM sales WHERE region = 'east' AND qty > 5")
			// region east: i%3==0; qty>5: i%7==6 -> i ≡ 6 mod 21 within 0..599.
			want := 0
			for i := 0; i < 600; i++ {
				if i%3 == 0 && i%7 == 6 {
					want++
				}
			}
			if len(res.Rows) != want {
				t.Errorf("got %d rows, want %d", len(res.Rows), want)
			}
			if res.Schema.Len() != 2 {
				t.Errorf("schema %s", res.Schema)
			}
		})
	}
}

func TestGroupByAggregates(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			seedSales(t, d)
			res := query(t, d, `
				SELECT region, sum(amount) AS total, count(*) AS n, avg(qty), min(amount), max(amount)
				FROM sales GROUP BY region ORDER BY region`)
			if len(res.Rows) != 3 {
				t.Fatalf("got %d groups", len(res.Rows))
			}
			// Validate against directly computed values.
			type aggRow struct {
				sum                float64
				n                  int64
				qtySum, amin, amax float64
				aminSet            bool
			}
			want := map[string]*aggRow{}
			regions := []string{"east", "west", "north"}
			for i := 0; i < 600; i++ {
				r := regions[i%3]
				w := want[r]
				if w == nil {
					w = &aggRow{}
					want[r] = w
				}
				amt := float64(i%50) + 0.5
				w.sum += amt
				w.n++
				w.qtySum += float64(i % 7)
				if !w.aminSet || amt < w.amin {
					w.amin = amt
					w.aminSet = true
				}
				if amt > w.amax {
					w.amax = amt
				}
			}
			for _, row := range res.Rows {
				w := want[row[0].Str()]
				if w == nil {
					t.Fatalf("unexpected region %q", row[0].Str())
				}
				if diff := row[1].Float() - w.sum; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("%s sum = %v, want %v", row[0].Str(), row[1].Float(), w.sum)
				}
				if row[2].Int() != w.n {
					t.Errorf("%s count = %v, want %v", row[0].Str(), row[2].Int(), w.n)
				}
				wantAvg := w.qtySum / float64(w.n)
				if diff := row[3].Float() - wantAvg; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("%s avg = %v, want %v", row[0].Str(), row[3].Float(), wantAvg)
				}
				if row[4].Float() != w.amin || row[5].Float() != w.amax {
					t.Errorf("%s min/max = %v/%v, want %v/%v",
						row[0].Str(), row[4].Float(), row[5].Float(), w.amin, w.amax)
				}
			}
			// Ordered by region ascending.
			if res.Rows[0][0].Str() != "east" || res.Rows[2][0].Str() != "west" {
				t.Errorf("order wrong: %v", res.Rows)
			}
		})
	}
}

func TestHaving(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	res := query(t, d, `
		SELECT product, count(*) AS cnt FROM sales
		GROUP BY product HAVING count(*) > 100 ORDER BY product`)
	// 600 rows over 4 products -> 150 each; all pass >100.
	if len(res.Rows) != 4 {
		t.Fatalf("having kept %d groups", len(res.Rows))
	}
	res2 := query(t, d, `
		SELECT product, count(*) AS cnt FROM sales
		GROUP BY product HAVING count(*) > 200`)
	if len(res2.Rows) != 0 {
		t.Errorf("having >200 kept %d groups", len(res2.Rows))
	}
}

func TestJoinReduceSide(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			d.MapJoinThresholdBytes = 1 // force shuffle joins
			seedSales(t, d)
			res := query(t, d, `
				SELECT p.category, sum(s.amount) AS total
				FROM sales s JOIN products p ON s.product = p.product
				GROUP BY p.category ORDER BY total DESC`)
			if len(res.Rows) != 2 {
				t.Fatalf("got %d categories: %v", len(res.Rows), res.Rows)
			}
			if res.Rows[0][1].Float() < res.Rows[1][1].Float() {
				t.Error("not ordered by total desc")
			}
			// fruit covers products 0..2 = 450 sales rows, exotic 150.
			var fruitTotal, exoticTotal float64
			for i := 0; i < 600; i++ {
				amt := float64(i%50) + 0.5
				if i%4 == 3 {
					exoticTotal += amt
				} else {
					fruitTotal += amt
				}
			}
			if diff := res.Rows[0][1].Float() - fruitTotal; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("fruit total %v, want %v", res.Rows[0][1].Float(), fruitTotal)
			}
			if diff := res.Rows[1][1].Float() - exoticTotal; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("exotic total %v, want %v", res.Rows[1][1].Float(), exoticTotal)
			}
		})
	}
}

func TestMapJoinMatchesShuffleJoin(t *testing.T) {
	run := func(threshold int64) []types.Row {
		d := newTestDriver(t, core.New())
		d.MapJoinThresholdBytes = threshold
		seedSales(t, d)
		res := query(t, d, `
			SELECT s.product, p.price, count(*) AS n
			FROM sales s JOIN products p ON s.product = p.product
			GROUP BY s.product, p.price ORDER BY s.product`)
		return res.Rows
	}
	shuffle := run(1)       // force reduce-side join
	mapjoin := run(1 << 30) // force map join
	if len(shuffle) != len(mapjoin) || len(shuffle) != 4 {
		t.Fatalf("row counts differ: %d vs %d", len(shuffle), len(mapjoin))
	}
	for i := range shuffle {
		if shuffle[i].Text('|') != mapjoin[i].Text('|') {
			t.Errorf("row %d: %s vs %s", i, shuffle[i].Text('|'), mapjoin[i].Text('|'))
		}
	}
}

func TestLeftOuterJoin(t *testing.T) {
	d := newTestDriver(t, core.New())
	if _, err := d.Run(`
		CREATE TABLE l (k int, lv string);
		CREATE TABLE r (k int, rv string);
	`); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTableData("l", 0, []types.Row{
		{types.Int(1), types.String("a")},
		{types.Int(2), types.String("b")},
		{types.Int(3), types.String("c")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTableData("r", 0, []types.Row{
		{types.Int(1), types.String("x")},
		{types.Int(1), types.String("y")},
	}); err != nil {
		t.Fatal(err)
	}
	d.MapJoinThresholdBytes = 1 // shuffle path
	res := query(t, d, `
		SELECT l.k, l.lv, r.rv FROM l LEFT OUTER JOIN r ON l.k = r.k ORDER BY l.k, r.rv`)
	if len(res.Rows) != 4 { // k=1 twice, k=2,3 null-padded
		t.Fatalf("left outer produced %d rows: %v", len(res.Rows), res.Rows)
	}
	if !res.Rows[2][2].IsNull() || !res.Rows[3][2].IsNull() {
		t.Errorf("missing rows not null-padded: %v", res.Rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			seedSales(t, d)
			res := query(t, d, `
				SELECT q.region, q.total FROM
					(SELECT region, sum(amount) AS total FROM sales GROUP BY region) q
				WHERE q.total > 0 ORDER BY q.total DESC LIMIT 2`)
			if len(res.Rows) != 2 {
				t.Fatalf("got %d rows", len(res.Rows))
			}
			if res.Rows[0][1].Float() < res.Rows[1][1].Float() {
				t.Error("not ordered")
			}
		})
	}
}

func TestDistinctAndCountDistinct(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	res := query(t, d, "SELECT DISTINCT region FROM sales ORDER BY region")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct got %d rows", len(res.Rows))
	}
	res2 := query(t, d, "SELECT region, count(DISTINCT product) FROM sales GROUP BY region ORDER BY region")
	if len(res2.Rows) != 3 {
		t.Fatalf("count distinct got %d rows", len(res2.Rows))
	}
	for _, r := range res2.Rows {
		if r[1].Int() != 4 {
			t.Errorf("count(distinct product) = %d, want 4", r[1].Int())
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	d := newTestDriver(t, mrengine.New())
	seedSales(t, d)
	res := query(t, d, "SELECT sum(qty), count(*) FROM sales WHERE region = 'west'")
	if len(res.Rows) != 1 {
		t.Fatalf("global agg got %d rows", len(res.Rows))
	}
	var wantSum, wantN int64
	for i := 0; i < 600; i++ {
		if i%3 == 1 {
			wantSum += int64(i % 7)
			wantN++
		}
	}
	if res.Rows[0][0].Int() != wantSum || res.Rows[0][1].Int() != wantN {
		t.Errorf("got (%d,%d), want (%d,%d)",
			res.Rows[0][0].Int(), res.Rows[0][1].Int(), wantSum, wantN)
	}
}

func TestInsertOverwriteAndCTAS(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	if _, err := d.Run(`
		CREATE TABLE east_sales STORED AS orc AS
			SELECT product, amount FROM sales WHERE region = 'east';
	`); err != nil {
		t.Fatal(err)
	}
	res := query(t, d, "SELECT count(*) FROM east_sales")
	if res.Rows[0][0].Int() != 200 {
		t.Errorf("CTAS table has %d rows, want 200", res.Rows[0][0].Int())
	}
	if _, err := d.Run(`
		CREATE TABLE top (product string, total double);
		INSERT OVERWRITE TABLE top
			SELECT product, sum(amount) FROM east_sales GROUP BY product;
	`); err != nil {
		t.Fatal(err)
	}
	res2 := query(t, d, "SELECT count(*) FROM top")
	if res2.Rows[0][0].Int() != 4 {
		t.Errorf("insert produced %d rows, want 4", res2.Rows[0][0].Int())
	}
	// Overwrite replaces.
	if _, err := d.Execute("INSERT OVERWRITE TABLE top SELECT product, sum(amount) FROM east_sales WHERE product = 'apple' GROUP BY product"); err != nil {
		t.Fatal(err)
	}
	res3 := query(t, d, "SELECT count(*) FROM top")
	if res3.Rows[0][0].Int() != 1 {
		t.Errorf("overwrite left %d rows, want 1", res3.Rows[0][0].Int())
	}
}

// TestCTASStoresTheValuesItWasGiven reads back CTAS copies whose
// column kinds the values do not always match. if() is typed by its
// THEN/ELSE values, so its bigint values round-trip; an int bound for a
// double column is widened; a double bound for a bigint column fails
// the statement instead of being stored as something else.
func TestCTASStoresTheValuesItWasGiven(t *testing.T) {
	var ifSum, widenSum float64
	for i := 0; i < 600; i++ {
		qty, amount := float64(i%7), float64(i%50)+0.5
		if qty > 3 {
			ifSum += qty
			widenSum += amount
		} else {
			widenSum += qty
		}
	}
	for _, format := range []string{"orc", "textfile"} {
		t.Run(format, func(t *testing.T) {
			d := newTestDriver(t, core.New())
			seedSales(t, d)
			for _, tc := range []struct {
				sel  string
				kind types.Kind
				sum  float64
			}{
				{"if(qty > 3, qty, 0)", types.KindInt, ifSum},
				{"CASE WHEN qty > 3 THEN amount ELSE qty END", types.KindFloat, widenSum},
			} {
				if _, err := d.Run(fmt.Sprintf(`DROP TABLE IF EXISTS zz;
					CREATE TABLE zz STORED AS %s AS SELECT %s AS c FROM sales`, format, tc.sel)); err != nil {
					t.Fatalf("%s: %v", tc.sel, err)
				}
				if res := query(t, d, "SELECT c FROM zz LIMIT 1"); res.Schema.Columns[0].Type != tc.kind {
					t.Errorf("%s: column c is %v, want %v", tc.sel, res.Schema.Columns[0].Type, tc.kind)
				}
				res := query(t, d, "SELECT sum(c), count(*) FROM zz")
				if got := res.Rows[0][0].Float(); got != tc.sum || res.Rows[0][1].Int() != 600 {
					t.Errorf("%s: sum(c) = %v over %v rows, want %v over 600", tc.sel, got, res.Rows[0][1], tc.sum)
				}
			}
			_, err := d.Run(fmt.Sprintf(`DROP TABLE IF EXISTS zz;
				CREATE TABLE zz STORED AS %s AS
					SELECT CASE WHEN qty > 3 THEN qty ELSE amount END AS c FROM sales WHERE qty = 1`, format))
			if err == nil || !strings.Contains(err.Error(), "column c is bigint, got double") {
				t.Errorf("a double bound for a bigint column: err = %v", err)
			}
		})
	}
}

// TestCTASNonFiniteDoubles: an ORC CTAS of a double column holding
// NaN, +Inf and -Inf closes (a stripe holding a NaN or an infinite
// bound records no bounds), reads those values back, and a pushed-down
// predicate on the column returns the rows it returns over the Text
// source — NaN compares equal to every value, so a stripe whose finite
// bounds surround a NaN must not be pruned either.
func TestCTASNonFiniteDoubles(t *testing.T) {
	d := newTestDriver(t, core.New())
	if _, err := d.Run(`CREATE TABLE vals (id int, x double)`); err != nil {
		t.Fatal(err)
	}
	parts := [][]float64{
		{0.5, 1.5, 2.5, 9.5},
		{3, math.NaN(), -2},
		{math.Inf(1), 4, 7},
		{math.Inf(-1), -5, math.NaN(), math.Inf(1)},
	}
	id := 0
	for part, xs := range parts {
		var rows []types.Row
		for _, x := range xs {
			rows = append(rows, types.Row{types.Int(int64(id)), types.Float(x)})
			id++
		}
		rows = append(rows, types.Row{types.Int(int64(id)), types.Null()})
		id++
		if err := d.LoadTableData("vals", part, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Run(`CREATE TABLE vals_orc STORED AS orc AS SELECT id, x FROM vals`); err != nil {
		t.Fatalf("ORC CTAS: %v", err)
	}
	render := func(res *Result) string { return fmt.Sprint(res.Rows) }
	all := render(query(t, d, "SELECT id, x FROM vals_orc ORDER BY id"))
	if want := render(query(t, d, "SELECT id, x FROM vals ORDER BY id")); all != want {
		t.Errorf("ORC read back %s, Text %s", all, want)
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		if !strings.Contains(all, v) {
			t.Errorf("%s missing from the ORC table: %s", v, all)
		}
	}
	for _, pred := range []string{"x > 5", "x < 0", "x = 4", "x >= 1e300", "x <= -1e300", "x > 100 AND x < 200"} {
		orc := render(query(t, d, "SELECT id, x FROM vals_orc WHERE "+pred+" ORDER BY id"))
		text := render(query(t, d, "SELECT id, x FROM vals WHERE "+pred+" ORDER BY id"))
		if orc != text {
			t.Errorf("WHERE %s: ORC %s, Text %s", pred, orc, text)
		}
	}
}

func TestDropTable(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	if _, err := d.Execute("DROP TABLE products"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Execute("SELECT * FROM products"); err == nil {
		t.Error("select from dropped table should fail")
	}
	if _, err := d.Execute("DROP TABLE products"); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := d.Execute("DROP TABLE IF EXISTS products"); err != nil {
		t.Error("drop if exists should succeed")
	}
}

func TestCaseLikeInBetween(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	res := query(t, d, `
		SELECT sum(CASE WHEN product LIKE 'p%' THEN 1 ELSE 0 END),
		       sum(CASE WHEN qty BETWEEN 2 AND 4 THEN 1 ELSE 0 END),
		       sum(CASE WHEN region IN ('east', 'west') THEN 1 ELSE 0 END)
		FROM sales`)
	row := res.Rows[0]
	if row[0].Int() != 300 { // pear + plum = 2 of 4 products
		t.Errorf("like count = %d, want 300", row[0].Int())
	}
	wantBetween := int64(0)
	for i := 0; i < 600; i++ {
		if q := i % 7; q >= 2 && q <= 4 {
			wantBetween++
		}
	}
	if row[1].Int() != wantBetween {
		t.Errorf("between count = %d, want %d", row[1].Int(), wantBetween)
	}
	if row[2].Int() != 400 {
		t.Errorf("in count = %d, want 400", row[2].Int())
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	d := newTestDriver(t, core.New())
	d.MapJoinThresholdBytes = 1
	seedSales(t, d)
	res := query(t, d, `
		SELECT count(*) FROM sales s, products p
		WHERE s.product = p.product AND p.category = 'fruit'`)
	if res.Rows[0][0].Int() != 450 {
		t.Errorf("comma join count = %d, want 450", res.Rows[0][0].Int())
	}
}

func TestExplain(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	res := query(t, d, `EXPLAIN SELECT region, sum(amount) FROM sales
		WHERE qty > 3 GROUP BY region ORDER BY region`)
	for _, want := range []string{"STAGE 1", "GroupByPartial", "Filter", "Extract", "(final)"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res.Plan)
		}
	}
	if len(res.Rows) != 0 {
		t.Error("explain should not execute")
	}
}

func TestTmpCleanup(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	query(t, d, "SELECT region, sum(amount) FROM sales GROUP BY region ORDER BY region")
	if left := d.Env.FS.List(d.TmpRoot); len(left) != 0 {
		t.Errorf("tmp files leaked: %v", left)
	}
}

func TestEnginesAgreeOnScriptedWorkload(t *testing.T) {
	results := map[string][]string{}
	for name, eng := range engines(t) {
		d := newTestDriver(t, eng)
		seedSales(t, d)
		res := query(t, d, `
			SELECT s.region, p.category, sum(s.amount * p.price) AS rev, count(*)
			FROM sales s JOIN products p ON s.product = p.product
			WHERE s.qty >= 1
			GROUP BY s.region, p.category
			ORDER BY rev DESC`)
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, fmt.Sprintf("%s|%s|%.4f|%d",
				r[0].Str(), r[1].Str(), r[2].Float(), r[3].Int()))
		}
		results[name] = lines
	}
	a, b := results["datampi"], results["hadoop"]
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestNoGoroutineLeaks ensures a full query lifecycle (both engines)
// leaves no background goroutines behind.
func TestNoGoroutineLeaks(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			seedSales(t, d)
			before := runtime.NumGoroutine()
			for i := 0; i < 3; i++ {
				query(t, d, `
					SELECT region, sum(amount) FROM sales
					WHERE qty > 1 GROUP BY region ORDER BY region`)
			}
			// Allow the runtime a moment to retire exiting goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
			after := runtime.NumGoroutine()
			if after > before+2 {
				t.Errorf("goroutines grew from %d to %d after queries", before, after)
			}
		})
	}
}

// TestMetastoreStatsGathered verifies write-time statistics flow from
// loads and CTAS into the metastore (they drive reducer sizing for
// compressed tables).
func TestMetastoreStatsGathered(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)
	sales, err := d.MS.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	if sales.Stats.Rows != 600 || sales.Stats.RawBytes <= 0 {
		t.Errorf("load stats = %+v, want 600 rows", sales.Stats)
	}
	if _, err := d.Run(`
		CREATE TABLE region_totals STORED AS orc AS
			SELECT region, sum(amount) AS total FROM sales GROUP BY region;
	`); err != nil {
		t.Fatal(err)
	}
	rt, err := d.MS.Get("region_totals")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Rows != 3 {
		t.Errorf("CTAS stats rows = %d, want 3", rt.Stats.Rows)
	}
	if rt.Stats.RawBytes < rt.Stats.Rows {
		t.Errorf("CTAS RawBytes %d implausible", rt.Stats.RawBytes)
	}
	// INSERT OVERWRITE refreshes stats.
	if _, err := d.Execute(
		"INSERT OVERWRITE TABLE region_totals SELECT region, sum(amount) FROM sales WHERE region = 'east' GROUP BY region"); err != nil {
		t.Fatal(err)
	}
	rt, _ = d.MS.Get("region_totals")
	if rt.Stats.Rows != 1 {
		t.Errorf("post-insert stats rows = %d, want 1", rt.Stats.Rows)
	}
}

// TestETLPipelineEndToEnd runs a realistic multi-statement pipeline
// (staging -> cleansing -> aggregation -> report) across formats.
func TestETLPipelineEndToEnd(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			d := newTestDriver(t, eng)
			seedSales(t, d)
			results, err := d.Run(`
				DROP TABLE IF EXISTS staged;
				CREATE TABLE staged STORED AS sequencefile AS
					SELECT region, product, amount, qty FROM sales WHERE amount > 0.0;
				DROP TABLE IF EXISTS cleansed;
				CREATE TABLE cleansed STORED AS orc AS
					SELECT region, product, amount FROM staged WHERE qty >= 1;
				DROP TABLE IF EXISTS report;
				CREATE TABLE report (region string, revenue double);
				INSERT OVERWRITE TABLE report
					SELECT region, sum(amount) FROM cleansed GROUP BY region;
				SELECT region, revenue FROM report ORDER BY revenue DESC;
			`)
			if err != nil {
				t.Fatal(err)
			}
			final := results[len(results)-1]
			if len(final.Rows) != 3 {
				t.Fatalf("report has %d regions", len(final.Rows))
			}
			for i := 1; i < len(final.Rows); i++ {
				if final.Rows[i-1][1].Float() < final.Rows[i][1].Float() {
					t.Error("report not ordered by revenue")
				}
			}
			// qty >= 1 drops i%7==0 rows; recompute expected totals.
			want := map[string]float64{}
			regions := []string{"east", "west", "north"}
			for i := 0; i < 600; i++ {
				if i%7 == 0 {
					continue
				}
				want[regions[i%3]] += float64(i%50) + 0.5
			}
			for _, r := range final.Rows {
				if diff := r[1].Float() - want[r[0].Str()]; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("%s revenue %f, want %f", r[0].Str(), r[1].Float(), want[r[0].Str()])
				}
			}
		})
	}
}
