package hibench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/types"
)

// fingerprint renders rows with rounded floats: partial-aggregation
// order differs across engines, so float sums differ in the last ulps
// exactly as they do between Hive deployments.
func fingerprint(rows []types.Row) []string {
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

func newDriver(t *testing.T, engine exec.Engine) *hive.Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes:     []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	d := hive.NewDriver(env, engine, conf)
	if err := Load(d, 256<<10, 7, "sequencefile", 2); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSizesRatio(t *testing.T) {
	rk, uv := Sizes(20 << 20)
	if rk <= 0 || uv <= 0 {
		t.Fatal("non-positive sizes")
	}
	rb, ub := int64(rk)*rankingRowBytes, int64(uv)*visitRowBytes
	if ub < rb*10 {
		t.Errorf("uservisits %d bytes should dwarf rankings %d bytes (Table I)", ub, rb)
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	g := &Generator{Seed: 3, Rankings: 500, UserVisits: 20000}
	counts := map[string]int{}
	for _, r := range g.GenUserVisits() {
		counts[r[1].Str()]++
	}
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	// Zipf: the hottest URL should take a large share.
	if freqs[0] < 20000/10 {
		t.Errorf("top URL has %d of 20000 visits; distribution not skewed", freqs[0])
	}
	if len(freqs) < 10 {
		t.Errorf("only %d distinct URLs", len(freqs))
	}
}

func TestAggregateWorkloadBothEngines(t *testing.T) {
	var results [][]string
	for _, eng := range []exec.Engine{core.New(), mrengine.New()} {
		d := newDriver(t, eng)
		if _, err := d.Run(AggregateQuery); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		res, err := d.Execute("SELECT sourceip, sumadrevenue FROM uservisits_aggre ORDER BY sourceip")
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, fingerprint(res.Rows))
	}
	if len(results[0]) == 0 {
		t.Fatal("aggregate produced no groups")
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("engines disagree on group count: %d vs %d", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("row %d: %s vs %s", i, results[0][i], results[1][i])
		}
	}
}

func TestJoinWorkloadBothEngines(t *testing.T) {
	var results [][]string
	for _, eng := range []exec.Engine{core.New(), mrengine.New()} {
		d := newDriver(t, eng)
		if _, err := d.Run(JoinQuery); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		res, err := d.Execute(
			"SELECT sourceip, totalrevenue FROM rankings_uservisits_join ORDER BY totalrevenue DESC, sourceip")
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, fingerprint(res.Rows))
	}
	if len(results[0]) == 0 {
		t.Fatal("join produced no rows")
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("row %d: %s vs %s", i, results[0][i], results[1][i])
		}
	}
}

func TestJoinWorkloadStageCount(t *testing.T) {
	// The paper's JOIN workload runs three jobs (Fig. 10: JOB1..JOB3).
	// At paper scale rankings exceeds the broadcast threshold, so force
	// the common (shuffle) join here.
	d := newDriver(t, core.New())
	d.MapJoinThresholdBytes = 1
	if _, err := d.Run(JoinQuery); err != nil {
		t.Fatal(err)
	}
	queries := d.Collector.Queries()
	last := queries[len(queries)-1]
	if len(last.Stages) != 3 {
		for _, s := range last.Stages {
			t.Logf("stage: %s", s.Name)
		}
		t.Errorf("JOIN compiled into %d stages, paper has 3 jobs", len(last.Stages))
	}
}

func TestAggregateVsDirectComputation(t *testing.T) {
	d := newDriver(t, core.New())
	if _, err := d.Run(AggregateQuery); err != nil {
		t.Fatal(err)
	}
	res, err := d.Execute("SELECT sourceip, sumadrevenue FROM uservisits_aggre ORDER BY sourceip")
	if err != nil {
		t.Fatal(err)
	}
	// Recompute directly from the generator.
	nr, nu := Sizes(256 << 10)
	g := &Generator{Seed: 7, Rankings: nr, UserVisits: nu}
	want := map[string]float64{}
	for _, r := range g.GenUserVisits() {
		want[r[0].Str()] += r[3].Float()
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		w := want[r[0].Str()]
		if diff := r[1].Float() - w; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("sum[%s] = %f, want %f", r[0].Str(), r[1].Float(), w)
		}
	}
}

func TestTeraSort(t *testing.T) {
	conf := exec.DefaultEngineConf()
	records := TeraGen(5000, 11)
	st, keys, err := RunTeraSort(records, 4, 3, conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(records) {
		t.Fatalf("sorted %d keys, want %d", len(keys), len(records))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Fatalf("keys out of order at %d", i)
		}
	}
	if st.NumMaps != 4 || st.NumReds != 3 {
		t.Errorf("trace geometry %d/%d", st.NumMaps, st.NumReds)
	}
	var pairs int64
	for _, m := range st.Producers {
		pairs += m.ShuffleOutPairs
	}
	if pairs != 5000 {
		t.Errorf("traced %d shuffle pairs, want 5000", pairs)
	}
}

func TestTeraGenDeterministic(t *testing.T) {
	a := TeraGen(100, 5)
	b := TeraGen(100, 5)
	for i := range a {
		if !bytes.Equal(a[i][0], b[i][0]) {
			t.Fatal("teragen not deterministic")
		}
	}
}

func TestKVSizeContrast(t *testing.T) {
	// Fig. 2(c,d): Hive collect sizes vary with column content, while
	// TeraSort pairs are fixed-width. Verify the traces reflect that.
	d := newDriver(t, core.New())
	if _, err := d.Run(AggregateQuery); err != nil {
		t.Fatal(err)
	}
	stages := d.Collector.AllStages()
	hist := stages[len(stages)-1].Producers[0].CollectSizes
	if hist.Total() == 0 {
		t.Fatal("no collect sizes recorded")
	}
	if len(hist.TopSizes(3)) == 0 {
		t.Error("no dominant sizes")
	}
	_ = types.KindInt
}
