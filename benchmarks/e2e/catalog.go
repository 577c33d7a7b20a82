package main

// The metric catalogue: every metric the benchmark reports, with its
// unit and direction. BENCHMARK.json repeats it for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
//
// Two clocks, always labelled (README "Metric definitions"): host
// metrics are what the Go code costs on this machine; virtual metrics
// are what internal/perfmodel says the modelled 1+7-node cluster would
// take. A host-side optimisation must leave every virtual and exact
// count metric identical.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// exact marks counts that two runs of one commit at one seed must
	// reproduce bit for bit (compare mode enforces it).
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the warehouse sees, with the share
// of the parent's median by which each may worsen before a change is a
// regression. The two host clocks are in units of the reference kernel
// (reference.go): the build host runs everything 20-50 % slower for
// minutes at a time, so that raw milliseconds, even of a run's fastest
// pass, spread 7-29 % between quartiles across ten seeds and two runs of
// one commit differed by 29 % (README "Spread"); per layer the raw
// milliseconds are still reported. The count metrics repeat to about 1 %.
// There is no rows/s metric: the rows of a pass are fixed by the seed, so
// it is the reciprocal of a wall-time estimator.
var endToEnd = []metricDef{
	{Name: "pass_wall_ref", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "pass_cpu_ref", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "allocs_per_pass", Unit: "objects", Better: lower, Bound: 0.05},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "virtual_s", Unit: "s", Better: lower, Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer are the traced-run metrics; layer names are the repo's
// packages. They carry no bound.
var perLayer = []metricDef{
	// Spans recorded around Driver.Execute and Engine.Run.
	{Name: "hive.statement_ms", Unit: "ms", Better: lower},
	{Name: "engine.stage_ms", Unit: "ms", Better: lower},
	{Name: "engine.stage_union_ms", Unit: "ms", Better: lower},
	{Name: "hive.driver_self_ms", Unit: "ms", Better: lower},
	{Name: "hive.parse_ms", Unit: "ms", Better: lower},
	{Name: "engine.stages", Unit: "count", Better: lower, exact: true},
	{Name: "engine.tasks", Unit: "count", Better: lower, exact: true},

	// Stage replays: standalone single-goroutine cost of each layer at
	// the workload's real volume.
	{Name: "storage.scan_ms", Unit: "ms", Better: lower},
	{Name: "storage.scan_rows", Unit: "count", Better: lower, exact: true},
	{Name: "storage.scan_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "exec.map_ms", Unit: "ms", Better: lower},
	{Name: "exec.map_out_pairs", Unit: "count", Better: lower, exact: true},
	{Name: "kvio.sort_ms", Unit: "ms", Better: lower},
	{Name: "kvio.merge_ms", Unit: "ms", Better: lower},
	{Name: "exec.reduce_ms", Unit: "ms", Better: lower},
	{Name: "storage.write_ms", Unit: "ms", Better: lower},
	{Name: "storage.write_mb", Unit: "MB", Better: lower},
	{Name: "dfs.write_ms", Unit: "ms", Better: lower},
	{Name: "dfs.read_ms", Unit: "ms", Better: lower},
	{Name: "datampi.shuffle_ms", Unit: "ms", Better: lower},
	{Name: "datampi.shuffle_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "hadoop.shuffle_ms", Unit: "ms", Better: lower},
	{Name: "perfmodel.simulate_ms", Unit: "ms", Better: lower},

	// Exact counts from Result.Stages / Result.Metrics.
	{Name: "exec.input_rows", Unit: "count", Better: lower, exact: true},
	{Name: "exec.input_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "exec.shuffle_out_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "exec.shuffle_out_pairs", Unit: "count", Better: lower, exact: true},
	{Name: "exec.combine_in_pairs", Unit: "count", Better: lower, exact: true},
	{Name: "exec.combine_out_pairs", Unit: "count", Better: lower, exact: true},
	{Name: "exec.spill_mb", Unit: "MB", Better: lower},
	{Name: "exec.reduce_groups", Unit: "count", Better: lower, exact: true},
	{Name: "exec.write_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "exec.batches", Unit: "count", Better: lower, exact: true},
	{Name: "dfs.read_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "dfs.write_mb", Unit: "MB", Better: lower, exact: true},
	{Name: "datampi.send_flushes", Unit: "count", Better: lower},
	{Name: "datampi.forced_flushes", Unit: "count", Better: lower},
	{Name: "hive.plancache_hits", Unit: "count", Better: higher, exact: true},
	{Name: "hive.plancache_misses", Unit: "count", Better: lower, exact: true},
	{Name: "perfmodel.virtual_compile_s", Unit: "s", Better: lower, exact: true},
	{Name: "perfmodel.virtual_startup_s", Unit: "s", Better: lower},
	{Name: "perfmodel.virtual_mapshuffle_s", Unit: "s", Better: lower},
	{Name: "perfmodel.virtual_others_s", Unit: "s", Better: lower},

	// Host.
	{Name: "host.gc_pause_ms_per_pass", Unit: "ms", Better: lower},
	{Name: "host.gc_cycles_per_pass", Unit: "count", Better: lower},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "host.reference_ms", Unit: "ms", Better: lower},
	{Name: "host.pass_wall_ms_best", Unit: "ms", Better: lower},
	{Name: "host.pass_wall_ms_p50", Unit: "ms", Better: lower},
	{Name: "host.pass_wall_ms_tail", Unit: "ms", Better: lower},
	{Name: "host.pass_cpu_ms_p50", Unit: "ms", Better: lower},
	{Name: "host.passes", Unit: "count", Better: higher},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.verify_s", Unit: "s", Better: lower},
}

// replayLayers are the per-layer timings also reported as a share of
// host.pass_cpu_ms_p50 (result file and printed table only).
var replayLayers = []string{
	"storage.scan_ms", "exec.map_ms", "kvio.sort_ms", "kvio.merge_ms",
	"exec.reduce_ms", "storage.write_ms", "dfs.write_ms", "dfs.read_ms",
	"datampi.shuffle_ms", "hadoop.shuffle_ms", "hive.driver_self_ms",
	"hive.parse_ms", "perfmodel.simulate_ms",
}
