#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
