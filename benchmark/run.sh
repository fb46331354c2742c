#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds prserve and the benchmark
# binary from the checkout's sources into .bench_build/ (Go's own caches are
# pointed there too, so nothing is written outside the checkout), then hands
# every argument to the benchmark. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                  # every workload, untraced then traced
#   bash benchmark/run.sh -calibrate 5     # spread of every metric over 5 runs
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/prserve" ]; then
	echo "benchmark/run.sh: $root is not a dfpr checkout (no go.mod or cmd/prserve): nothing to measure" >&2
	exit 3
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$out/prserve" ./cmd/prserve >&2
go build -C benchmark -o "$out/dfprbench" . >&2
exec "$out/dfprbench" -prserve "$out/prserve" -work "$out/work" "$@"
