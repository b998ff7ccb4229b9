#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (caches included,
# so nothing is written outside the checkout) and runs it with the
# arguments given. Run it from the root of the checkout:
#
#   bash benchmark/run.sh -workload lookup -seed 1 -seconds 12 -trace 0
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
go build -C "$root/benchmark" -o "$build/cycloid-benchmark" .
exec "$build/cycloid-benchmark" "$@"
