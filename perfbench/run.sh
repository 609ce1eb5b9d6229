#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload paper|scale|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the toolchain and the
# benchmark write (Go build cache, telemetry counters, binary, traces)
# stays under .bench_build/ in the current directory, and the toolchain
# never reaches for the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
  GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
