#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload write-heavy --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, temp files) stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
