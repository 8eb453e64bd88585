#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash revealbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, the spans of traced runs and
# the service's data directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/revealbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS=

(cd "$root/revealbench" && go build -o "$out/revealbench" .) >&2
exec "$out/revealbench" "$@"
