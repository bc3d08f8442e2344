#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from this checkout's
# source, then run it with the arguments given (--workload, --seed,
# --seconds, --trace). Everything the build writes — the binary, the Go
# build cache, the toolchain's own bookkeeping — stays under .bench_build in
# the checkout, and nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/llbench" ./bench
exec "$out/llbench" "$@"
