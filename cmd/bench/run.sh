#!/usr/bin/env bash
# BENCHMARK.json's command: build cmd/bench from source and run it with the
# driver's arguments (--workload --seed --seconds --trace).
#
# Run from the root of a checkout. Everything the build and the run write —
# the binary, Go's build cache, the generated trace files — goes under
# .bench_build/ in that checkout. In a directory without the repository's
# own go.mod the build fails and the script exits non-zero without a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -C cmd/bench -o "$build/bench" .
exec "$build/bench" "$@"
