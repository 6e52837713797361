#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ at the root of the checkout (compiler cache and
# temporary files included, so nothing is written outside it) and runs
# it with the arguments given. The first call in a checkout compiles the
# standard library too; later calls find everything cached.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
