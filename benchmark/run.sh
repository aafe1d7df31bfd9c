#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash benchmark/run.sh --workload shared-alerts --seed 1 --seconds 15 --trace 0
# Run from the repository root. The build cache, binary, write-ahead logs
# and span dumps all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/zstream-benchmark" .)
exec "$out/zstream-benchmark" --workdir "$out" "$@"
