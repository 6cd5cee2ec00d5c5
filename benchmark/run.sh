#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout (Go's build cache, temp
# files and the WAL workload's directory live there too, so nothing is
# read or written outside the checkout) and runs it with the arguments
# given. In a directory without the repository around it the build fails
# and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" -tmp "$build/tmp" "$@"
