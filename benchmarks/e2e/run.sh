#!/usr/bin/env bash
# Build the benchmark from source and run it as one foreground process.
#
#   bash benchmarks/e2e/run.sh --workload scan_agg --seed 42 --seconds 8 --trace 0
#   bash benchmarks/e2e/run.sh -compare base/result.json candidate/result.json
#
# Everything this writes stays inside the checkout: the binary, the Go
# build cache and every temp/spill file live under benchmarks/e2e/out/.build/
# and results under benchmarks/e2e/out/, which ignores all it holds. The
# binary is exec'ed, so no shell, `go run` wrapper or child outlives it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal/hive ]]; then
	echo "e2e: $root is not a checkout of the repository (no go.mod / internal/hive)" >&2
	exit 2
fi

build="$root/benchmarks/e2e/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
