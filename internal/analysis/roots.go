package analysis

// This file is the single shared roots table for every scope-sensitive
// analyzer. PR 6 (cluster) and PR 8 (adapt) each had to hand-extend
// three separately-hardcoded package lists; now wallclock, lockorder,
// metricshot, ctxleak and the determinism analyzers (maporder,
// floatorder, hotalloc) all read from here, and roots_test.go asserts
// the virtual-time set actually covers every package that depends on
// the virtual clock. Adding a package to the engine means touching this
// file exactly once — or failing the coverage test loudly.

// VirtualTimePackages are the packages whose timing model is the
// deterministic virtual clock (perfmodel seconds threaded through
// traces and spans). A stray wall-clock read or an unseeded RNG in any
// of them silently corrupts determinism and resume-safety, so both are
// forbidden mechanically (wallclock analyzer).
//
//   - bench rides along: its numbers feed the paper tables and must come
//     from the model, not the host clock.
//   - cluster is the failure detector: its heartbeat timeline IS virtual
//     time, so a wall-clock read there breaks detector determinism.
//   - adapt feeds observed stage statistics back into scheduling — a
//     wall-clock read there would make repartition decisions run-order
//     dependent.
//   - obs/comm renders comm-plane skew statistics measured in virtual
//     seconds; it imports perfmodel directly, so it is in the set (the
//     roots coverage test would flag its absence).
//   - obs/bundle serializes the run record whose every duration is
//     virtual seconds; a wall-clock read there would make two captures
//     of the same run diff non-zero.
var VirtualTimePackages = []string{
	"perfmodel", "core", "datampi", "hive", "obs", "obs/comm",
	"obs/bundle", "chaos", "bench", "cluster", "adapt",
}

// LockScopePackages are the packages whose mutexes participate in the
// cross-layer acquisition graph analyzed by lockorder: the dfs
// namespace lock, the imstore budget lock, the metrics registry lock
// and the cluster membership lock.
var LockScopePackages = []string{"dfs", "imstore", "metrics", "cluster"}

// CtxLeakPackages are the packages whose goroutines must signal
// completion (ctxleak analyzer): the DAG stage scheduler, the DataMPI
// engine core and the shuffle library.
var CtxLeakPackages = []string{"hive", "core", "datampi"}

// HotRootPackages contribute every declared function as a hot-path
// root for metricshot and hotalloc: the shuffle library, the kv wire
// format, the columnar batch layer (vec runs per batch inside every
// map-side operator), and the baseline engine, whose collect, spill
// and merge loops run per emitted pair. These are exactly the packages
// whose alloc budgets are committed in BENCH_shuffle.json /
// BENCH_vec.json.
var HotRootPackages = []string{"kvio", "datampi", "vec", "hadoop"}

// HotRootMethods are individual hot entry points outside those
// packages, keyed by internal package name, then receiver type name
// ("" for free functions): the dfs per-I/O paths and the plan cache's
// per-statement lookup/insert path in hive, the storage codec's
// per-row, per-stream and per-stripe paths, and the executors on both
// sides of the shuffle.
var HotRootMethods = map[string]map[string][]string{
	"dfs": {
		"Writer": {"Write"},
		"Reader": {"Read", "ReadAt"},
	},
	"hive": {
		"PlanCache": {"lookup", "put"},
		"Driver":    {"foldPlanCacheEvictions"},
		"":          {"normalizePlanKey"},
	},
	// The table codecs are the largest host-side layer of most
	// end-to-end workloads (benchmarks/e2e): their steady state is
	// allocation per stripe, block or batch, not per row or per stream.
	"storage": {
		"orcWriter":       {"Write", "WriteBatch", "flushStripe"},
		"deflater":        {"compress"},
		"colBuilder":      {"appendDatum", "encode", "stats"},
		"orcSplitReader":  {"NextBatch", "loadStripeVec", "readColumnStream"},
		"textWriter":      {"Write", "WriteBatch"},
		"seqWriter":       {"WriteBatch"},
		"textSplitReader": {"NextBatch", "readLine"},
		"seqSplitReader":  {"NextBatch", "loadBlock", "decodeRow"},
		"decodedColumn":   {"decode", "fillVector"},
		"rowCutter":       {"Next"},
	},
	// RunMapTask is the only map-side executor: every operator, kernel
	// and terminal it builds runs per batch or per lane of every scan.
	// ReduceDriver.Feed is the reduce side's: it runs per key group on
	// both engines, and its per-group cost must not grow per value.
	// RunReduceTask is the one loop that feeds it, for both engines.
	"exec": {
		"":             {"RunMapTask", "RunReduceTask"},
		"ReduceDriver": {"Feed"},
	},
	// bundle.categorize runs per stage on every bundle capture and
	// inside the benchdiff attribution path; keeping it alloc- and
	// lookup-clean keeps capture zero-cost enough to leave on in CI.
	"obs/bundle": {
		"": {"categorize"},
	},
}

// FloatOrderPackages are the packages floatorder scans for
// order-sensitive float accumulation: the operator layer (exact
// aggregates), the kv merge layer (partial-sum merge order — the PR 7
// bug class) and the adaptive runtime (histogram folds that feed
// scheduling decisions).
var FloatOrderPackages = []string{"exec", "kvio", "adapt"}
