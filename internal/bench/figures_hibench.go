package bench

import (
	"fmt"
	"sort"
	"strings"

	"hivempi/internal/exec"
	"hivempi/internal/hibench"
	"hivempi/internal/perfmodel"
	"hivempi/internal/tpch"
	"hivempi/internal/trace"
)

// TableIResult reports generated dataset sizes (paper Table I).
type TableIResult struct {
	HiBench map[int]map[string]int64 // sizeGB -> table -> bytes
	TPCH    map[int]map[string]int64
}

// TableI generates each dataset and measures the per-table bytes.
func (r *Runner) TableI(hibenchSizes, tpchSizes []int) (*TableIResult, error) {
	out := &TableIResult{
		HiBench: map[int]map[string]int64{},
		TPCH:    map[int]map[string]int64{},
	}
	measure := func(cl *cluster, tables []string) map[string]int64 {
		m := map[string]int64{}
		for _, t := range tables {
			tab, err := cl.ms.Get(t)
			if err != nil {
				continue
			}
			m[t] = tab.TotalBytes(cl.env.FS) * int64(r.cfg.Params.ScaleUp) / 1000 * 1000
		}
		return m
	}
	for _, gb := range hibenchSizes {
		cl, err := r.loadHiBench(gb, "sequencefile")
		if err != nil {
			return nil, err
		}
		out.HiBench[gb] = measure(cl, []string{"rankings", "uservisits"})
	}
	for _, gb := range tpchSizes {
		cl, err := r.loadTPCH(gb, "textfile")
		if err != nil {
			return nil, err
		}
		out.TPCH[gb] = measure(cl, tpch.TableNames())
	}
	return out, nil
}

func (t *TableIResult) String() string {
	var sb strings.Builder
	sb.WriteString("Table I: generated data sizes (simulated bytes)\n")
	render := func(name string, m map[int]map[string]int64) {
		var sizes []int
		for gb := range m {
			sizes = append(sizes, gb)
		}
		sort.Ints(sizes)
		tables := map[string]bool{}
		for _, byTable := range m {
			for t := range byTable {
				tables[t] = true
			}
		}
		var tnames []string
		for t := range tables {
			tnames = append(tnames, t)
		}
		sort.Strings(tnames)
		fmt.Fprintf(&sb, "%s:\n", name)
		for _, t := range tnames {
			fmt.Fprintf(&sb, "  %-12s", t)
			for _, gb := range sizes {
				fmt.Fprintf(&sb, " %4dGB:%-10s", gb, humanBytes(m[gb][t]))
			}
			sb.WriteByte('\n')
		}
	}
	render("HiBench", t.HiBench)
	render("TPC-H", t.TPCH)
	return sb.String()
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Figure1Result is the Hive-on-Hadoop execution-time breakdown that
// motivates the paper (startup ~5%, Map-Shuffle >50%).
type Figure1Result struct {
	Workloads []*WorkloadResult // AGGREGATE + JOIN on Hadoop, 20 GB
}

// Figure1 runs the motivation breakdown.
func (r *Runner) Figure1() (*Figure1Result, error) {
	cl, err := r.loadHiBench(20, "sequencefile")
	if err != nil {
		return nil, err
	}
	out := &Figure1Result{}
	for _, w := range []string{"AGGREGATE", "JOIN"} {
		res, err := r.runHiBenchWorkload(cl, "hadoop", w, 20, nil)
		if err != nil {
			return nil, err
		}
		out.Workloads = append(out.Workloads, res)
	}
	return out, nil
}

func (f *Figure1Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: Hive-on-Hadoop job breakdown, 20 GB (seconds)\n")
	sb.WriteString(renderBreakdowns(f.Workloads))
	var su, ms, tot float64
	for _, w := range f.Workloads {
		for _, j := range w.Jobs {
			su += j.Startup
			ms += j.MapShuffle
			tot += j.Total()
		}
	}
	fmt.Fprintf(&sb, "  Map-Shuffle share: %.0f%% (paper: >50%%), startup share: %.0f%% (paper: ~5%%)\n",
		100*ms/tot, 100*su/tot)
	return sb.String()
}

func renderBreakdowns(ws []*WorkloadResult) string {
	var sb strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&sb, "  %-10s %-8s %2dGB total=%7.1fs\n", w.Workload, w.Engine, w.SizeGB, w.Total)
		for _, j := range w.Jobs {
			fmt.Fprintf(&sb, "    %-14s startup=%5.1f ms=%7.1f others=%7.1f (maps=%d reds=%d)\n",
				j.Name, j.Startup, j.MapShuffle, j.Others, j.NumMaps, j.NumReds)
		}
	}
	return sb.String()
}

// Figure2Result contrasts communication characteristics: per-task
// runtimes (Hive AGGREGATE vs TeraSort) and KV size distributions
// (Hive AGGREGATE vs TPC-H Q3).
type Figure2Result struct {
	AggEndTimes  []float64 // per-task end times (a)
	TeraEndTimes []float64 // (b)
	AggTopSizes  []int     // dominant collect sizes (c)
	Q3TopSizes   []int     // (d)
	AggSpread    float64   // (max-min)/mean of task DURATIONS
	TeraSpread   float64
}

// Figure2 reproduces the communication-characteristics study.
func (r *Runner) Figure2() (*Figure2Result, error) {
	out := &Figure2Result{}

	// (a)+(c): HiBench AGGREGATE map tasks.
	cl, err := r.loadHiBench(20, "sequencefile")
	if err != nil {
		return nil, err
	}
	d := r.driver(cl, "hadoop", nil)
	d.Collector.Reset()
	if _, err := d.Run(hibench.AggregateQuery); err != nil {
		return nil, err
	}
	aggStage := d.Collector.AllStages()[0]
	sim := r.cfg.Params.SimulateStage(aggStage)
	out.AggEndTimes = perfmodel.TaskEndTimes(sim)
	hist := trace.NewSizeHistogram()
	for _, m := range aggStage.Producers {
		hist.Merge(m.CollectSizes)
	}
	out.AggTopSizes = hist.TopSizes(3)

	// (b): TeraSort with a comparable record volume.
	conf := exec.DefaultEngineConf()
	conf.Slaves = slaves
	nRecords := int(20 * r.cfg.BytesPerGB / hibench.TeraRecordSize)
	numMaps := len(sim.Producers)
	if numMaps < 1 {
		numMaps = 8
	}
	teraStage, _, err := hibench.RunTeraSort(hibench.TeraGen(nRecords, r.cfg.Seed),
		numMaps, conf.MaxSlots(), conf)
	if err != nil {
		return nil, err
	}
	teraSim := r.cfg.Params.SimulateStage(teraStage)
	out.TeraEndTimes = perfmodel.TaskEndTimes(teraSim)

	// (d): TPC-H Q3 collect sizes.
	tcl, err := r.loadTPCH(20, "textfile")
	if err != nil {
		return nil, err
	}
	td := r.driver(tcl, "hadoop", nil)
	td.Collector.Reset()
	q3, _ := tpch.Query(3)
	if _, err := td.Run(q3); err != nil {
		return nil, err
	}
	q3hist := trace.NewSizeHistogram()
	for _, st := range td.Collector.AllStages() {
		for _, m := range st.Producers {
			q3hist.Merge(m.CollectSizes)
		}
	}
	out.Q3TopSizes = q3hist.TopSizes(4)

	out.AggSpread = spread(perfmodel.TaskDurations(sim))
	out.TeraSpread = spread(perfmodel.TaskDurations(teraSim))
	return out, nil
}

func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	return (max - min) / (sum / float64(len(xs)))
}

func (f *Figure2Result) String() string {
	return fmt.Sprintf(`Figure 2: communication characteristics
  (a) Hive AGGREGATE task-duration spread: %.2f (irregular)
  (b) TeraSort task-duration spread:       %.2f (centralized; paper: Hive >> TeraSort)
  (c) AGGREGATE dominant KV sizes (bytes): %v (paper: centred at ~32B)
  (d) TPC-H Q3 dominant KV sizes (bytes):  %v (paper: multiple modes, ~14B and ~32B)
`, f.AggSpread, f.TeraSpread, f.AggTopSizes, f.Q3TopSizes)
}

// Figure6Result compares blocking and non-blocking shuffle styles.
type Figure6Result struct {
	BlockingOPhase    float64
	NonBlockingOPhase float64
	BlockingEvents    []perfmodel.CollectEvent
	NonBlockingEvents []perfmodel.CollectEvent
}

// Figure6 runs HiBench AGGREGATE at 20 GB under both styles.
func (r *Runner) Figure6() (*Figure6Result, error) {
	out := &Figure6Result{}
	for _, nb := range []bool{true, false} {
		cl, err := r.loadHiBench(20, "sequencefile")
		if err != nil {
			return nil, err
		}
		d := r.driver(cl, "datampi", func(c *exec.EngineConf) { c.NonBlocking = nb })
		d.Collector.Reset()
		if _, err := d.Run(hibench.AggregateQuery); err != nil {
			return nil, err
		}
		st := d.Collector.AllStages()[0]
		sim := r.cfg.Params.SimulateStage(st)
		events := perfmodel.CollectTimeline(st, sim)
		if nb {
			out.NonBlockingOPhase = sim.MapEnd - sim.MapStart
			out.NonBlockingEvents = events
		} else {
			out.BlockingOPhase = sim.MapEnd - sim.MapStart
			out.BlockingEvents = events
		}
	}
	return out, nil
}

func (f *Figure6Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `Figure 6: shuffle styles, HiBench AGGREGATE 20 GB
  blocking     O-phase: %6.1fs (%d send events)
  non-blocking O-phase: %6.1fs (%d send events)
  ratio: %.2fx (paper: 120s vs 61s ~= 2.0x)
`, f.BlockingOPhase, len(f.BlockingEvents),
		f.NonBlockingOPhase, len(f.NonBlockingEvents),
		f.BlockingOPhase/f.NonBlockingOPhase)
	sb.WriteString("  per-task send windows (first..last event, seconds):" + "\n")
	sb.WriteString(renderSendWindows("blocking", f.BlockingEvents))
	sb.WriteString(renderSendWindows("non-block", f.NonBlockingEvents))
	return sb.String()
}

// renderSendWindows summarizes the first tasks' send activity windows,
// the per-task lines the paper's Fig. 6 plots.
func renderSendWindows(label string, events []perfmodel.CollectEvent) string {
	type window struct {
		first, last float64
		n           int
	}
	byTask := map[int]*window{}
	for _, ev := range events {
		w := byTask[ev.TaskID]
		if w == nil {
			w = &window{first: ev.Time, last: ev.Time}
			byTask[ev.TaskID] = w
		}
		if ev.Time < w.first {
			w.first = ev.Time
		}
		if ev.Time > w.last {
			w.last = ev.Time
		}
		w.n++
	}
	var ids []int
	for id := range byTask {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > 6 {
		ids = ids[:6]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "    %-9s", label)
	for _, id := range ids {
		w := byTask[id]
		fmt.Fprintf(&sb, "  T%d:%.0f..%.0f(%d)", id, w.first, w.last, w.n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Figure8Result sweeps the cache-memory and send-queue knobs.
type Figure8Result struct {
	MemPercent map[float64]float64 // mem fraction -> total seconds (AGG+JOIN)
	SendQueue  map[int]float64
}

// Figure8 reproduces the tuning study at 20 GB.
func (r *Runner) Figure8() (*Figure8Result, error) {
	out := &Figure8Result{MemPercent: map[float64]float64{}, SendQueue: map[int]float64{}}
	run := func(mut func(*exec.EngineConf)) (float64, error) {
		cl, err := r.loadHiBench(20, "sequencefile")
		if err != nil {
			return 0, err
		}
		var total float64
		for _, w := range []string{"AGGREGATE", "JOIN"} {
			res, err := r.runHiBenchWorkload(cl, "datampi", w, 20, mut)
			if err != nil {
				return 0, err
			}
			total += res.Total
		}
		return total, nil
	}
	for _, m := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		m := m
		t, err := run(func(c *exec.EngineConf) { c.MemUsedPercent = m })
		if err != nil {
			return nil, err
		}
		out.MemPercent[m] = t
	}
	for _, q := range []int{2, 4, 6, 8, 10} {
		q := q
		t, err := run(func(c *exec.EngineConf) { c.SendQueueSize = q })
		if err != nil {
			return nil, err
		}
		out.SendQueue[q] = t
	}
	return out, nil
}

func (f *Figure8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: DataMPI tuning, HiBench AGGREGATE+JOIN 20 GB (seconds)\n  memusedpercent:")
	var ms []float64
	for m := range f.MemPercent {
		ms = append(ms, m)
	}
	sort.Float64s(ms)
	for _, m := range ms {
		fmt.Fprintf(&sb, "  %.1f=%.0fs", m, f.MemPercent[m])
	}
	sb.WriteString("\n  sendqueue:     ")
	var qs []int
	for q := range f.SendQueue {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		fmt.Fprintf(&sb, "  %d=%.0fs", q, f.SendQueue[q])
	}
	sb.WriteString("\n  (paper: best at memusedpercent=0.4; stable for queue >= 6)\n")
	return sb.String()
}

// Figure9Result is the HiBench scalability comparison.
type Figure9Result struct {
	Runs []*WorkloadResult // workload x size x engine
}

// Figure9 runs AGGREGATE and JOIN at each size on both engines.
func (r *Runner) Figure9(sizes []int) (*Figure9Result, error) {
	out := &Figure9Result{}
	for _, gb := range sizes {
		cl, err := r.loadHiBench(gb, "sequencefile")
		if err != nil {
			return nil, err
		}
		for _, w := range []string{"AGGREGATE", "JOIN"} {
			for _, eng := range []string{"hadoop", "datampi"} {
				res, err := r.runHiBenchWorkload(cl, eng, w, gb, nil)
				if err != nil {
					return nil, err
				}
				out.Runs = append(out.Runs, res)
			}
		}
	}
	return out, nil
}

// AverageGain reports DataMPI's mean improvement over Hadoop.
func (f *Figure9Result) AverageGain() float64 {
	type k struct {
		w  string
		gb int
	}
	had := map[k]float64{}
	dm := map[k]float64{}
	for _, run := range f.Runs {
		kk := k{run.Workload, run.SizeGB}
		if run.Engine == "hadoop" {
			had[kk] = run.Total
		} else {
			dm[kk] = run.Total
		}
	}
	var sum float64
	var n int
	for kk, h := range had {
		if d, ok := dm[kk]; ok && h > 0 {
			sum += (h - d) / h
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (f *Figure9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: Intel HiBench performance (seconds)\n")
	sb.WriteString("  workload    size   hadoop   datampi   gain\n")
	type k struct {
		w  string
		gb int
	}
	had := map[k]float64{}
	dm := map[k]float64{}
	var keys []k
	for _, run := range f.Runs {
		kk := k{run.Workload, run.SizeGB}
		if run.Engine == "hadoop" {
			if _, seen := had[kk]; !seen {
				keys = append(keys, kk)
			}
			had[kk] = run.Total
		} else {
			dm[kk] = run.Total
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].w != keys[j].w {
			return keys[i].w < keys[j].w
		}
		return keys[i].gb < keys[j].gb
	})
	for _, kk := range keys {
		h, d := had[kk], dm[kk]
		fmt.Fprintf(&sb, "  %-10s %3dGB  %7.1f  %8.1f  %5.1f%%\n",
			kk.w, kk.gb, h, d, 100*(h-d)/h)
	}
	fmt.Fprintf(&sb, "  average gain: %.0f%% (paper: ~30%%; AGGREGATE 29%%, JOIN 31%%)\n",
		100*f.AverageGain())
	return sb.String()
}

// Figure10Result is the per-job breakdown at 20 GB on both engines.
type Figure10Result struct {
	Runs []*WorkloadResult
}

// Figure10 breaks down AGGREGATE and JOIN jobs on both engines.
func (r *Runner) Figure10() (*Figure10Result, error) {
	cl, err := r.loadHiBench(20, "sequencefile")
	if err != nil {
		return nil, err
	}
	out := &Figure10Result{}
	for _, w := range []string{"AGGREGATE", "JOIN"} {
		for _, eng := range []string{"hadoop", "datampi"} {
			res, err := r.runHiBenchWorkload(cl, eng, w, 20, nil)
			if err != nil {
				return nil, err
			}
			out.Runs = append(out.Runs, res)
		}
	}
	return out, nil
}

// MSGains returns per-job Map-Shuffle improvements of DataMPI.
func (f *Figure10Result) MSGains() map[string]float64 {
	had := map[string][]JobResult{}
	dm := map[string][]JobResult{}
	for _, run := range f.Runs {
		if run.Engine == "hadoop" {
			had[run.Workload] = run.Jobs
		} else {
			dm[run.Workload] = run.Jobs
		}
	}
	out := map[string]float64{}
	for w, hj := range had {
		dj := dm[w]
		for i := range hj {
			if i < len(dj) && hj[i].MapShuffle > 0 {
				out[fmt.Sprintf("%s/job%d", w, i+1)] =
					(hj[i].MapShuffle - dj[i].MapShuffle) / hj[i].MapShuffle
			}
		}
	}
	return out
}

func (f *Figure10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: per-job breakdown, HiBench 20 GB (seconds)\n")
	sb.WriteString(renderBreakdowns(f.Runs))
	gains := f.MSGains()
	var names []string
	for n := range gains {
		names = append(names, n)
	}
	sort.Strings(names)
	sb.WriteString("  MS-phase gains (paper: 20%-70%):")
	for _, n := range names {
		fmt.Fprintf(&sb, "  %s=%.0f%%", n, 100*gains[n])
	}
	sb.WriteByte('\n')
	return sb.String()
}
