#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#   sh perfbench/run.sh --workload extract --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and run scratch stay under
# .bench_build/ in the current directory; build messages go to stderr so
# the last line of stdout is the result object.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -scratch "$build" "$@"
