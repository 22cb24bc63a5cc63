#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's own sources and
# runs it. Run from the repository root:
#
#   bash _nsbench/run.sh --workload t3-k50-raw --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the work
# directory (trace files, stores) and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/nsbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/_nsbench" && go build -buildvcs=false -o "$out/nsbench" .)
exec "$out/nsbench" -out "$out" "$@"
