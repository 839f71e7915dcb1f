#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 15 --trace 0
#
# Every workload, end-to-end then per-layer:
#
#   for w in paper-batch beacon-direct beacon-chain; do
#     for t in 0 1; do bash perfbench/run.sh --workload $w --seed 1 --seconds 15 --trace $t; done
#   done
#
# Everything the build writes (Go build cache, temporary files, binary)
# stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
