#!/usr/bin/env bash
# Builds the cutfit benchmark from source and runs it with the given
# arguments, from the root of a cutfit checkout:
#
#   bash cutfitbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the span files stay under .bench_build
# in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/cutfitbench" && go build -o "$out/cutfitbench" .)
exec "$out/cutfitbench" "$@"
