#!/usr/bin/env bash
# Builds the reproduction benchmark from this checkout's sources and runs
# it. Run from the repository root, for example:
#
#   bash reprobench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every other file the Go toolchain
# would write go under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The benchmark measures the program under its default garbage-collector
# settings, whatever the caller's environment says.
unset GOGC GOMEMLIMIT

(cd reprobench && go build -o "$build/reprobench" .)
exec "$build/reprobench" "$@"
