#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# arguments go to the binary (see main.go). Run from the repository
# root: `bash benchmark/run.sh --workload replica_single --trace 0`.
# The Go build cache and scratch files stay under .bench_build so
# nothing outside the checkout is written.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod and internal/ are missing here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/lam-benchmark" ./benchmark
exec "$build/lam-benchmark" "$@"
