#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload plan-hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# WAL directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
