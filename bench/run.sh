#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it
# writes inside the checkout it is started from: the Go build cache,
# the binary and (when /dev/shm is not usable) the state directories
# all live under .bench_build/. Run from the repository root:
#
#   bash bench/run.sh --workload search-cold --seed 1 --seconds 12 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/autotune-bench" ./bench
exec "$build/autotune-bench" "$@"
