#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory and
# runs it with the given arguments:
#
#   bash internal/benchmark/run.sh --workload many-mu12 --seed 3 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under the build
# directory (.bench_build unless CARGO_TARGET_DIR names another), so a
# checkout is left as it was found apart from that directory.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gotmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/bin/benchmark" ./internal/benchmark
exec "$build/bin/benchmark" -out "$build/out" "$@"
