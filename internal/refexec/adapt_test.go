package refexec

import (
	"fmt"
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/tpch"
	"hivempi/internal/types"
)

// Skew-adaptive runtime reference tests: adaptive repartitioning,
// placement and combiner re-sizing must never change a single result
// byte.

// newAdaptDriver builds the standard refexec driver with the
// skew-adaptive runtime switched as requested. BytesPerReducer is
// lowered so the tiny test tables still plan multi-reducer shuffles —
// with the default 1 MB sizing every stage gets one reducer and the
// adapt gates never see an adaptable stage.
func newAdaptDriver(t *testing.T, adaptive bool) *hive.Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes:     []string{"s1", "s2", "s3", "s4"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3", "s4"}
	conf.SlotsPerNode = 2
	conf.BytesPerReducer = 8 << 10
	d := hive.NewDriver(env, core.New(), conf)
	d.AdaptiveSkew = adaptive
	if err := tpch.Load(d, testSF, testSeed, "textfile", 2); err != nil {
		t.Fatal(err)
	}
	return d
}

// adaptedStages counts the stages across the driver's recorded queries
// that the adapt runtime actually rewrote.
func adaptedStages(d *hive.Driver) (split, fused int) {
	for _, q := range d.Collector.Queries() {
		for _, st := range q.Stages {
			split += st.AdaptSplit
			fused += st.AdaptFused
		}
	}
	return split, fused
}

// TestAdaptiveSkewByteIdenticalAll22: the full TPC-H suite with the
// adaptive runtime on must be byte-identical to the run with it off
// and reference-correct.
func TestAdaptiveSkewByteIdenticalAll22(t *testing.T) {
	db := Load(testSF, testSeed)
	don := newAdaptDriver(t, true)
	doff := newAdaptDriver(t, false)
	for q := 1; q <= tpch.NumQueries; q++ {
		script, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		onRows := lastRows(t, don, script)
		offRows := lastRows(t, doff, script)
		rowsByteIdentical(t, q, onRows, offRows)
		want, err := Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		rowsMatch(t, q, onRows, want)
	}
	if split, fused := adaptedStages(doff); split != 0 || fused != 0 {
		t.Fatalf("adaptation-off driver rewrote stages: split=%d fused=%d", split, fused)
	}
}

// seedSkewTables creates a join workload with a heavily skewed fact
// table: rowsTotal rows whose keys concentrate hotShare of the volume
// on a handful of distinct keys (the remainder spreads uniformly), and
// a small dimension table mapping every key to one of three groups.
// Deterministic (LCG) so identically-seeded drivers hold identical
// tables.
func seedSkewTables(t *testing.T, d *hive.Driver, rowsTotal int) {
	t.Helper()
	const keySpace = 64
	if _, err := d.Run(`CREATE TABLE big (k bigint, v bigint);
		CREATE TABLE dim (k bigint, g string);`); err != nil {
		t.Fatal(err)
	}
	lcg := uint64(88172645463325252)
	next := func(n int) int {
		lcg ^= lcg << 13
		lcg ^= lcg >> 7
		lcg ^= lcg << 17
		return int(lcg % uint64(n))
	}
	rows := make([]types.Row, 0, rowsTotal)
	for i := 0; i < rowsTotal; i++ {
		// ~80% of the volume lands on one hot key, so whatever reducer
		// count the join stage auto-sizes to, the hot key's partition
		// dominates and the sink's partition-bytes CV crosses the
		// adaptation threshold.
		k := 0
		if next(10) >= 8 {
			k = 1 + next(keySpace-1)
		}
		rows = append(rows, types.Row{types.Int(int64(k)), types.Int(int64(i))})
	}
	// Two part files so the fact scan fans out over several map tasks.
	half := len(rows) / 2
	if err := d.LoadTableData("big", 0, rows[:half]); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTableData("big", 1, rows[half:]); err != nil {
		t.Fatal(err)
	}
	dim := make([]types.Row, keySpace)
	for k := 0; k < keySpace; k++ {
		dim[k] = types.Row{types.Int(int64(k)), types.String(fmt.Sprintf("g%d", k%3))}
	}
	if err := d.LoadTableData("dim", 0, dim); err != nil {
		t.Fatal(err)
	}
}

// skewQuery shuffle-joins the skewed fact table with the dimension and
// aggregates per group: stage 1 shuffles raw rows by the skewed key k
// (sink observed by the adapt runtime), stage 2 reads that sink and
// shuffles by g — the stage the runtime repartitions.
const skewQuery = `SELECT d.g, count(*) AS c, min(b.v) AS lo, max(b.v) AS hi
 FROM big b JOIN dim d ON b.k = d.k
 GROUP BY d.g
 ORDER BY d.g;`

// TestSeededSkewAdaptationFires: on the seeded-skew workload the
// adaptive driver must actually rewrite at least one stage (split or
// fuse) and still return byte-identical rows to the non-adaptive run.
func TestSeededSkewAdaptationFires(t *testing.T) {
	var rows [2][]types.Row
	for i, adaptive := range []bool{true, false} {
		d := newAdaptDriver(t, adaptive)
		d.MapJoinThresholdBytes = 1 // force the shuffle join
		seedSkewTables(t, d, 4000)
		// Twice: the second run also exercises Decide with the first
		// run's observations of the same cached plan.
		lastRows(t, d, skewQuery)
		rows[i] = lastRows(t, d, skewQuery)
		split, fused := adaptedStages(d)
		if adaptive && split+fused == 0 {
			t.Fatal("seeded skew did not trigger any repartitioning")
		}
		if !adaptive && split+fused != 0 {
			t.Fatalf("adaptation off yet stages rewritten: split=%d fused=%d", split, fused)
		}
	}
	if len(rows[0]) == 0 {
		t.Fatal("skew query returned no rows")
	}
	rowsByteIdentical(t, 0, rows[0], rows[1])
}
