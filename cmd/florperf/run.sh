#!/usr/bin/env bash
# Builds florperf from this checkout and runs it with the given arguments,
# from the repository root:
#
#   bash cmd/florperf/run.sh --workload query_hot --seed 1 --seconds 12 --trace 0
#
# The binary, Go's build cache and its temporary files all go under
# .bench_build/ in the working directory, and so do the runs the benchmark
# records, so nothing is written outside the checkout. The first run in a
# checkout compiles flor; later runs find everything cached.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOWORK=off GOPROXY=off GOFLAGS=
go build -C "$here" -o "$out/florperf" .
exec "$out/florperf" "$@"
