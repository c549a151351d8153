#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout this
# script sits in, then runs it from the checkout root with the given
# arguments, e.g.
#
#	bash perfbench/run.sh --workload study-lulesh --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
