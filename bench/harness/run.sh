#!/usr/bin/env bash
# Builds the benchmark harness from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/harness/run.sh --workload sweep-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and the runs' temporary
# state. Without the repository around bench/harness the build fails, and so
# does this script.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0
mkdir -p "$TMPDIR"

go -C bench/harness build -o "$build/nosq-harness" .
exec "$build/nosq-harness" "$@"
