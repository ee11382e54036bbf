#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given arguments:
#
#   bash perfbench/run.sh --workload step-early --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (binary and Go build cache)
# stay under .bench_build/ in that root. The host is pinned to two worker
# threads so that runs compare across machines with more cores.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export GOMAXPROCS=2 MPTWINO_WORKERS=2
exec "$out/perfbench" "$@"
