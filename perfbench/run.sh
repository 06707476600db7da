#!/usr/bin/env bash
# Builds the offload benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build/ at the checkout root, and the module proxy is
# off: the benchmark and the program it measures are both built from the
# files in this checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
