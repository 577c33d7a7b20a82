package hive

import (
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/metrics"
	"hivempi/internal/trace"
	"hivempi/internal/types"
)

// rowsBytes renders a result's rows with the canonical row encoding so
// cached and compiled executions can be compared byte for byte.
func rowsBytes(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = string(types.EncodeRow(nil, r))
	}
	return out
}

func planCacheCounts(d *Driver) (hits, misses, evictions int64) {
	m := d.Env.Metrics
	return m.Counter(metrics.CtrPlanCacheHits).Value(),
		m.Counter(metrics.CtrPlanCacheMisses).Value(),
		m.Counter(metrics.CtrPlanCacheEvictions).Value()
}

const pcQuery = "SELECT region, sum(amount) AS total FROM sales GROUP BY region ORDER BY region"

func TestPlanCacheHitSkipsCompile(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)

	first := query(t, d, pcQuery)
	if first.CachedPlan {
		t.Fatal("first execution must compile, not hit the cache")
	}
	second := query(t, d, pcQuery)
	if !second.CachedPlan {
		t.Fatal("second execution of an identical statement must hit the cache")
	}
	hits, misses, _ := planCacheCounts(d)
	if hits != 1 || misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1", hits, misses)
	}

	a, b := rowsBytes(first), rowsBytes(second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between compiled and cached execution", i)
		}
	}
}

// Reformatted statements share a key: whitespace and identifier case
// vanish in lexing.
func TestPlanCacheHitOnReformattedStatement(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)

	query(t, d, pcQuery)
	res := query(t, d, "select   REGION, SUM(amount) as total\n\tFROM Sales GROUP BY region ORDER BY region")
	if !res.CachedPlan {
		t.Fatal("reformatted statement must normalize to the same plan key")
	}
}

// Same shape with different constants is a miss (no bind-parameter
// substitution); the recompile then re-caches under the new literals,
// so the most recent constants are the ones that hit.
func TestPlanCacheLiteralMismatchMisses(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)

	q2 := "SELECT product FROM sales WHERE qty > 2 AND region = 'east'"
	q3 := "SELECT product FROM sales WHERE qty > 3 AND region = 'east'"
	query(t, d, q2)
	if res := query(t, d, q3); res.CachedPlan {
		t.Fatal("different literal vector must not reuse the cached plan")
	}
	if res := query(t, d, q3); !res.CachedPlan {
		t.Fatal("recompiled literal vector must hit on repeat")
	}
}

// Any catalog change (DDL or a data load, both of which bump
// Metastore.Version) invalidates cached plans.
func TestPlanCacheInvalidatedByCatalogChange(t *testing.T) {
	d := newTestDriver(t, core.New())
	seedSales(t, d)

	query(t, d, pcQuery)
	if res := query(t, d, pcQuery); !res.CachedPlan {
		t.Fatal("warm-up hit expected")
	}

	if _, err := d.Run("CREATE TABLE extra (x int)"); err != nil {
		t.Fatal(err)
	}
	if res := query(t, d, pcQuery); res.CachedPlan {
		t.Fatal("DDL must invalidate the cached plan")
	}
	if res := query(t, d, pcQuery); !res.CachedPlan {
		t.Fatal("recompiled plan must be cached again")
	}

	if err := d.LoadTableData("sales", 0, []types.Row{{
		types.String("south"), types.String("apple"), types.Float(1.5),
		types.Int(1), types.Date(10001),
	}}); err != nil {
		t.Fatal(err)
	}
	res := query(t, d, pcQuery)
	if res.CachedPlan {
		t.Fatal("data load must invalidate the cached plan")
	}
	found := false
	for _, r := range res.Rows {
		if string(r[0].Str()) == "south" {
			found = true
		}
	}
	if !found {
		t.Fatal("recompiled plan must see the newly loaded rows")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	d := newTestDriver(t, core.New())
	d.planCache = NewPlanCache(2)
	seedSales(t, d)

	qs := []string{
		"SELECT region FROM sales GROUP BY region",
		"SELECT product FROM sales GROUP BY product",
		"SELECT qty FROM sales GROUP BY qty",
	}
	for _, q := range qs {
		query(t, d, q)
	}
	// qs[0] is the LRU victim of qs[2]'s insert; it must recompile.
	if res := query(t, d, qs[0]); res.CachedPlan {
		t.Fatal("evicted plan must not hit")
	}
	_, _, ev := planCacheCounts(d)
	if ev == 0 {
		t.Fatal("eviction counter must advance past capacity")
	}
	if n := d.planCache.Len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity is 2", n)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	d := newTestDriver(t, core.New())
	d.DisablePlanCache = true
	seedSales(t, d)

	query(t, d, pcQuery)
	if res := query(t, d, pcQuery); res.CachedPlan {
		t.Fatal("hive.plancache.enabled=false must bypass the cache")
	}
}

// Non-SELECT statements never enter the cache.
func TestPlanCacheOnlySelects(t *testing.T) {
	key, _, _, cacheable := normalizePlanKey("CREATE TABLE t (x int)")
	if cacheable || key != "" {
		t.Fatal("DDL must not be cacheable")
	}
	if _, _, _, ok := normalizePlanKey("SELECT 1 FROM t"); !ok {
		t.Fatal("SELECT must be cacheable")
	}
	key1, _, an, ok := normalizePlanKey("EXPLAIN ANALYZE SELECT 1 FROM t")
	if !ok || !an {
		t.Fatal("EXPLAIN ANALYZE SELECT must be cacheable and marked analyzed")
	}
	key2, _, _, _ := normalizePlanKey("SELECT 1 FROM t")
	if key1 != key2 {
		t.Fatal("EXPLAIN ANALYZE must share the bare statement's plan key")
	}
	if _, _, _, ok := normalizePlanKey("EXPLAIN SELECT 1 FROM t"); ok {
		t.Fatal("plain EXPLAIN never executes and must not be cacheable")
	}
}

// A cached plan must not survive a cluster-membership change: the
// compiled stages bake in task placement assumptions, and re-executing
// them verbatim after a node died used to schedule ranks onto the dead
// host. The cluster epoch is part of the plan fingerprint, so the death
// forces a recompile and the fresh run places nothing on non-UP nodes.
func TestPlanCacheInvalidatedByNodeDeath(t *testing.T) {
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize:   8 << 10,
		Replication: 2,
		Nodes:       []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	d := NewDriver(env, core.New(), conf)
	seedSales(t, d)
	m := fastDetector(d)
	d.AttachCluster(m, nil)

	first := query(t, d, pcQuery)
	if first.CachedPlan {
		t.Fatal("first execution must compile")
	}
	if res := query(t, d, pcQuery); !res.CachedPlan {
		t.Fatal("re-run on the unchanged cluster must hit the cache")
	}

	if err := m.MarkDead("s3"); err != nil {
		t.Fatal(err)
	}
	res := query(t, d, pcQuery)
	if res.CachedPlan {
		t.Fatal("node death must change the plan fingerprint (stale cache hit)")
	}
	for _, st := range res.Stages {
		for _, task := range append(append([]*trace.Task{}, st.Producers...), st.Consumers...) {
			if task.Host == "s3" {
				t.Fatalf("stage %s scheduled a task on the dead node", st.Name)
			}
		}
	}
	a, b := rowsBytes(first), rowsBytes(res)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("row counts differ after node death: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs after node death", i)
		}
	}

	// The post-death geometry is itself cacheable again.
	if res := query(t, d, pcQuery); !res.CachedPlan {
		t.Fatal("stable post-death cluster must cache the recompiled plan")
	}
}
