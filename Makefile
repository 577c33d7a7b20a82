GO ?= go

.PHONY: build test race vet fmt lint sarif check bench benchdiff obscheck trace comm soak bundles e2e fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint runs the project-specific analyzers (cmd/hivelint): wall-clock
# use in virtual-time packages, leaked MPI requests, lock-order cycles,
# per-call metric lookups on hot paths, unsignalled goroutines, and the
# determinism dataflow suite (map-order leaks into emission sinks,
# order-dependent float accumulation, per-iteration allocations on
# benchmarked hot paths). Exits non-zero on any finding not in the
# committed .hivelint-baseline.json.
lint:
	$(GO) run ./cmd/hivelint

# sarif emits the same findings as SARIF 2.1.0 for code scanning
# (fresh findings are errors; baselined ones stay visible as notes).
sarif:
	$(GO) run ./cmd/hivelint -sarif > hivelint.sarif

# obscheck vets and race-tests the observability plane (the metrics
# registry and the span/Chrome-trace exporter) explicitly; `race`
# covers them too, but this keeps the plane's gate visible on its own.
obscheck:
	$(GO) vet ./internal/obs/ ./internal/metrics/
	$(GO) test -race ./internal/obs/ ./internal/metrics/

# check is the tier-1 verification gate: static checks, then the full
# suite under the race detector (covers the mpi/datampi concurrency
# tests and the chaos soak).
check: vet fmt lint build obscheck race

# soak runs the failure-domain soak under the race detector: all 22
# TPC-H queries against the reference executor while seeded node-loss
# schedules (crash mid-stage, crash during re-replication, slow-node
# flap) tear at the cluster, plus the task/IO chaos soak. The verbose
# log lands in soak.log (uploaded as a CI artifact).
soak:
	$(GO) test -race -count=1 -v \
		-run 'TestNodeLossSoak|TestChaosSoak' ./internal/refexec/ \
		| tee soak.log

# fuzz runs each native fuzz target for FUZZTIME, starting from its
# committed seed corpus (testdata/fuzz/<target>): the parsers of
# shuffle bytes, WireSource and Run.AppendBlock (CountPairs is checked
# inside both), the sorted run's radix sorts against their comparisons
# (FuzzRunSort), the reduce side's decoders of shuffled values and
# keys, RowSlab.AppendRow and DecodeKeyDatumBytes, the ORC writer's
# DEFLATE encoder against compress/flate BestSpeed (FuzzDeflate), and
# the ORC reader: its DEFLATE decoder against compress/flate
# (FuzzInflate), whole files through OpenSplitBatch (FuzzORCSplitBatch)
# and one column stream under a fixed footer (FuzzORCColumnStream).
# `go test` alone replays the seeds as ordinary tests.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireSource$$' -fuzztime $(FUZZTIME) ./internal/kvio/
	$(GO) test -run '^$$' -fuzz '^FuzzRunAppendBlock$$' -fuzztime $(FUZZTIME) ./internal/kvio/
	$(GO) test -run '^$$' -fuzz '^FuzzRunSort$$' -fuzztime $(FUZZTIME) ./internal/kvio/
	$(GO) test -run '^$$' -fuzz '^FuzzRowSlabAppendRow$$' -fuzztime $(FUZZTIME) ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKeyDatumBytes$$' -fuzztime $(FUZZTIME) ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzDeflate$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzInflate$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzORCSplitBatch$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzORCColumnStream$$' -fuzztime $(FUZZTIME) ./internal/storage/

# bench runs the shuffle hot-path microbenchmarks (kvio framing, sort
# and merge, MPI_D_Send, dfs memory tier, the Hadoop map-output and
# reduce-input paths) and writes the parsed numbers to
# BENCH_shuffle.json.
# Each benchmark runs BENCH_COUNT times and benchfmt keeps the fastest
# run, which damps scheduler/noisy-neighbour interference in the
# committed numbers.
BENCH_COUNT ?= 3
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) \
		./internal/kvio/ ./internal/datampi/ ./internal/dfs/ ./internal/hadoop/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchfmt > BENCH_shuffle.json
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/vec/ ./internal/exec/ ./internal/storage/ ./internal/types/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchfmt > BENCH_vec.json
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/adapt/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchfmt > BENCH_skew.json

# bundles captures run bundles (hivempi.bundle/v1) into BUNDLE_DIR:
# the seeded skew A/B pair (adaptation off vs. on — the reference
# regression for attribution) plus a Q1+Q9 capture bundle. Diff any two
# with `go run ./cmd/tracediff`.
BUNDLE_DIR ?= bundles
bundles:
	$(GO) run ./cmd/benchsuite -quick -exp skew -bundle $(BUNDLE_DIR)

# benchdiff re-runs the shuffle and executor microbenchmarks and
# compares them to the committed BENCH_shuffle.json / BENCH_vec.json
# baselines; it fails on a ns/op regression past BENCH_TOL (or
# allocs/op growth past 2%). CI runs this blocking at the default 10%; label a
# PR `bench-regression-ok` to demote the gate to advisory when a
# regression is intentional (see README). Override locally with e.g.
# `make benchdiff BENCH_TOL=0.30` on noisy machines. When the gate
# trips, -attr appends tracediff attribution from the BUNDLE_DIR pairs
# so the failure names the regressing category, not just a percentage.
BENCH_TOL ?= 0.10
benchdiff: bundles
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) \
		./internal/kvio/ ./internal/datampi/ ./internal/dfs/ ./internal/hadoop/ \
		| $(GO) run ./cmd/benchfmt > /tmp/bench_current.json
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOL) -attr $(BUNDLE_DIR) BENCH_shuffle.json /tmp/bench_current.json
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/vec/ ./internal/exec/ ./internal/storage/ ./internal/types/ \
		| $(GO) run ./cmd/benchfmt > /tmp/bench_vec_current.json
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOL) -attr $(BUNDLE_DIR) BENCH_vec.json /tmp/bench_vec_current.json
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/adapt/ \
		| $(GO) run ./cmd/benchfmt > /tmp/bench_skew_current.json
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOL) -attr $(BUNDLE_DIR) BENCH_skew.json /tmp/bench_skew_current.json

# comm runs TPC-H Q1 (aggregate) + Q9 (join) on DataMPI at quick scale
# and writes the communication report — per-stage O x A shuffle
# matrices with skew statistics — to BENCH_comm.json (the committed
# snapshot of the comm plane's output).
comm:
	$(GO) run ./cmd/benchsuite -quick -exp none -comm BENCH_comm.json

# trace runs TPC-H Q9 DAG-parallel at quick scale and exports its
# Chrome trace-event timeline (schema-checked by benchsuite before the
# file is written). Open /tmp/q9.trace.json in Perfetto.
trace:
	$(GO) run ./cmd/benchsuite -quick -exp dag -trace /tmp/q9.trace.json

# e2e runs the end-to-end benchmark BENCHMARK.json declares
# (benchmarks/e2e): six workloads through hive.Driver with every answer
# checked, costs on the host clock (in reference-kernel units) and the
# virtual clock, and with --trace 1 the per-layer spans and replays.
# Results land in benchmarks/e2e/out/. Compare two runs with
# `bash benchmarks/e2e/run.sh -compare a/result.json b/result.json`.
E2E_ARGS ?= --trace 1
e2e:
	bash benchmarks/e2e/run.sh $(E2E_ARGS)
