#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload sr_inproc --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh                      # all four workloads, both phases
#   bash benchmark/run.sh -compare old.json new.json
#   bash benchmark/run.sh -aa
#
# Everything the build leaves behind (Go build cache, temp files, the
# binary) goes under .bench_build/ at the checkout root, so a run reads
# and writes only inside the checkout. The first run builds the standard
# library too; later runs reuse the cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/poseidon-benchmark" .
exec "$build/poseidon-benchmark" "$@"
