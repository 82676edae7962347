#!/usr/bin/env bash
# Builds the benchmark and the dreamd shard binary from source, then runs one
# benchmark invocation with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload fig19-quick-cold --seed 14084625 --seconds 24 --trace 0
#   bash bench/run.sh compare setA.jsonl setB.jsonl
#
# Everything the build and the run write (Go build cache, binaries, scratch
# cache directories, profiles, spans, run records) stays under .bench_build/
# in the checkout. A checkout without the repository's sources fails the
# build, so the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C bench build -o "$build/bench" .
go build -o "$build/dreamd" ./cmd/dreamd
exec "$build/bench" "$@"
