#!/usr/bin/env bash
# Builds the page-load benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#   bash perfbench/run.sh --workload homepage --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache and the binary live
# in .bench_build/ under the root, so nothing is written elsewhere.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
