#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): builds the harness
# and hhgb-serve from source into .bench_build/ at the root of the checkout,
# then runs the harness with the arguments it was given. Everything the build
# writes — Go's build cache included — stays inside the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C "$bench" -o "$build/hhgb-bench" .
go build -C "$bench" -o "$build/hhgb-serve" hhgb/cmd/hhgb-serve
exec "$build/hhgb-bench" -dir "$bench" -serve "$build/hhgb-serve" "$@"
