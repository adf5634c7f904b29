#!/usr/bin/env bash
# Builds the benchmark and confmaskd from the checkout it is run in, then
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fattree16 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, binaries, traces and
# daemon data all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/confmaskd" ./cmd/confmaskd
exec "$out/bin/perfbench" -dir "$out" -confmaskd "$out/bin/confmaskd" "$@"
