#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload local_zipf --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files, the binary, WAL directories and the trace
# all live under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export GOPROXY=off        # stdlib and this repository only
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
