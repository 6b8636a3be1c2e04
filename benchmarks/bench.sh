#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside the
# checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write stays in the checkout: the Go build
# cache and the binary under .bench_build/, the engine's data and the trace
# files under benchmarks/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/nnexus-bench" .
exec "$build/nnexus-bench" -out "$here/out" "$@"
