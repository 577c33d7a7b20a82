package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

const resultSchema = "hivempi.e2e/v1"

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name       string `json:"name"`
	Engine     string `json:"engine"`
	Dataset    string `json:"dataset"`
	SizeGB     int    `json:"size_gb"`
	Statements int    `json:"statements_per_pass"`
	Passes     int    `json:"passes"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd map[string]value `json:"end_to_end"`
	// Rounds holds each end-to-end metric per measured round; compare
	// mode takes a run's own quartile spread from it.
	Rounds map[string][]float64 `json:"rounds"`
	// Counts are the exact counts and the virtual-time breakdown of the
	// last measured pass (the per-layer metrics of those names, traced or
	// not); compare mode requires the exact ones to repeat.
	Counts map[string]float64 `json:"counts"`
	// PassWallMs, PassCPUMs and ReferenceMs are the raw per-pass samples,
	// in order.
	PassWallMs  []float64 `json:"pass_wall_ms"`
	PassCPUMs   []float64 `json:"pass_cpu_ms"`
	ReferenceMs []float64 `json:"reference_ms"`
	// PerLayer and Shares (layer time / host.pass_cpu_ms_p50) exist
	// only in a traced run.
	PerLayer map[string]value   `json:"per_layer,omitempty"`
	Shares   map[string]float64 `json:"shares_of_cpu,omitempty"`
}

// result is the file the benchmark writes.
type result struct {
	Schema     string            `json:"schema"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newResult(cfg config) *result {
	return &result{Schema: resultSchema, Seed: cfg.seed, Seconds: cfg.seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// endToEndOf computes the end-to-end metrics over a set of passes: the
// median pass on each host clock in units of the reference kernel timed
// just before it (see reference.go for why), the mean allocation per
// pass, and the median virtual time.
func endToEndOf(samples []passSample) map[string]float64 {
	n := float64(len(samples))
	var wallRef, cpuRef, virt []float64
	var mallocs, allocB uint64
	for _, s := range samples {
		wallRef = append(wallRef, float64(s.wallNs)/float64(s.refNs))
		cpuRef = append(cpuRef, float64(s.cpuNs)/float64(s.refNs))
		virt = append(virt, s.virtualS)
		mallocs += s.mallocs
		allocB += s.allocB
	}
	return map[string]float64{
		"pass_wall_ref":     median(wallRef),
		"pass_cpu_ref":      median(cpuRef),
		"allocs_per_pass":   float64(mallocs) / n,
		"alloc_mb_per_pass": float64(allocB) / n / mb,
		"virtual_s":         median(virt),
	}
}

func (w *workloadResult) fillEndToEnd(samples []passSample, roundOf []int, rounds int, setupS []float64) {
	w.EndToEnd = map[string]value{}
	w.Rounds = map[string][]float64{}
	all := endToEndOf(samples)
	all["setup_s"] = median(setupS)
	for _, d := range endToEnd {
		w.EndToEnd[d.Name] = value{Value: all[d.Name], Unit: d.Unit}
	}
	for round := 0; round < rounds; round++ {
		var part []passSample
		for i, s := range samples {
			if roundOf[i] == round {
				part = append(part, s)
			}
		}
		for name, v := range endToEndOf(part) {
			w.Rounds[name] = append(w.Rounds[name], v)
		}
	}
	w.Rounds["setup_s"] = setupS
	w.Counts = samples[len(samples)-1].counts
	for _, s := range samples {
		w.PassWallMs = append(w.PassWallMs, float64(s.wallNs)/1e6)
		w.PassCPUMs = append(w.PassCPUMs, float64(s.cpuNs)/1e6)
		w.ReferenceMs = append(w.ReferenceMs, float64(s.refNs)/1e6)
	}
}

func (w *workloadResult) fillPerLayer(sp spanTotals, rp replayTotals, parseNs, simNs int64,
	counts map[string]float64, samples []passSample, verifyNs int64) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := map[string]float64{
		"hive.statement_ms":     ms(sp.statementNs),
		"engine.stage_ms":       ms(sp.stageNs),
		"engine.stage_union_ms": ms(sp.stageUnionNs),
		"hive.driver_self_ms":   ms(sp.driverSelfNs),
		"hive.parse_ms":         ms(parseNs),
		"engine.stages":         float64(sp.stages),
		"engine.tasks":          float64(sp.tasks),

		"storage.scan_ms":       ms(rp.scanNs),
		"storage.scan_rows":     float64(rp.scanRows),
		"storage.scan_mb":       float64(rp.scanBytes) / mb,
		"exec.map_ms":           ms(rp.mapNs),
		"exec.map_out_pairs":    float64(rp.mapOutPairs),
		"kvio.sort_ms":          ms(rp.sortNs),
		"kvio.merge_ms":         ms(rp.mergeNs),
		"exec.reduce_ms":        ms(rp.reduceNs),
		"storage.write_ms":      ms(rp.writeNs),
		"storage.write_mb":      float64(rp.writeBytes) / mb,
		"dfs.write_ms":          ms(rp.dfsWriteNs),
		"dfs.read_ms":           ms(rp.dfsReadNs),
		"datampi.shuffle_ms":    ms(rp.datampiNs),
		"hadoop.shuffle_ms":     ms(rp.hadoopNs),
		"perfmodel.simulate_ms": ms(simNs),

		"host.peak_rss_mb": peakRSSMB(),
		"host.passes":      float64(len(samples)),
		"bench.verify_s":   float64(verifyNs) / 1e9,
	}
	if rp.datampiNs > 0 {
		m["datampi.shuffle_mb_per_s"] = float64(rp.datampiBytes) / mb / (float64(rp.datampiNs) / 1e9)
	}
	for k, v := range counts {
		m[k] = v
	}
	var wall, cpu, ref []float64
	var gcPause uint64
	var gcCycles uint32
	for _, s := range samples {
		wall = append(wall, float64(s.wallNs)/1e6)
		cpu = append(cpu, float64(s.cpuNs)/1e6)
		ref = append(ref, float64(s.refNs)/1e6)
		gcPause += s.gcPause
		gcCycles += s.gcCycles
	}
	n := float64(len(samples))
	m["host.gc_pause_ms_per_pass"] = float64(gcPause) / 1e6 / n
	m["host.gc_cycles_per_pass"] = float64(gcCycles) / n
	m["host.pass_wall_ms_best"] = percentile(wall, 0)
	m["host.pass_cpu_ms_p50"] = median(cpu)
	m["host.reference_ms"] = median(ref)
	m["host.pass_wall_ms_p50"] = median(wall)
	m["host.pass_wall_ms_tail"] = percentile(wall, tailPercentile(len(samples)))
	// Traced pass wall (statement spans; replays run in a later pass)
	// against the untraced median.
	m["bench.trace_overhead_frac"] = ms(sp.statementNs)/median(wall) - 1

	w.PerLayer = map[string]value{}
	for _, d := range perLayer {
		w.PerLayer[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	w.Shares = map[string]float64{}
	for _, name := range replayLayers {
		w.Shares[name] = m[name] / m["host.pass_cpu_ms_p50"]
	}
}

// validate checks a result file's shape: schema, every catalogue metric
// present with its unit, finite values, and the span identity.
func (r *result) validate() error {
	if r.Schema != resultSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, resultSchema)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads")
	}
	for _, w := range r.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return fmt.Errorf("unknown workload %q", w.Name)
		}
		if w.Attempted < 1 || w.Passes < 1 {
			return fmt.Errorf("%s: attempted %d, passes %d", w.Name, w.Attempted, w.Passes)
		}
		check := func(defs []metricDef, got map[string]value) error {
			for _, d := range defs {
				v, ok := got[d.Name]
				if !ok {
					return fmt.Errorf("%s: metric %s missing", w.Name, d.Name)
				}
				if v.Unit != d.Unit {
					return fmt.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					return fmt.Errorf("%s: metric %s is %v", w.Name, d.Name, v.Value)
				}
			}
			return nil
		}
		if err := check(endToEnd, w.EndToEnd); err != nil {
			return err
		}
		if w.PerLayer == nil {
			continue
		}
		if err := check(perLayer, w.PerLayer); err != nil {
			return err
		}
		st, self, union := w.PerLayer["hive.statement_ms"].Value,
			w.PerLayer["hive.driver_self_ms"].Value, w.PerLayer["engine.stage_union_ms"].Value
		if math.Abs(st-(self+union)) > 1e-6 {
			return fmt.Errorf("%s: hive.statement_ms %v != hive.driver_self_ms %v + engine.stage_union_ms %v",
				w.Name, st, self, union)
		}
	}
	return nil
}

func (r *result) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print lists every metric by name with its unit.
func (w *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (%s, %s at %d paper-GB): %d passes x %d statements, %d attempted, %d failed\n",
		w.Name, w.Engine, w.Dataset, w.SizeGB, w.Passes, w.Statements, w.Attempted, w.Failed)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-32s %16.4f %s\n", d.Name, w.EndToEnd[d.Name].Value, d.Unit)
	}
	if w.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-32s %16.4f %-8s", d.Name, w.PerLayer[d.Name].Value, d.Unit)
		if share, ok := w.Shares[d.Name]; ok {
			fmt.Fprintf(out, " %5.1f%% of host.pass_cpu_ms_p50", 100*share)
		}
		fmt.Fprintln(out)
	}
}
