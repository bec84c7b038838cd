#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the driver's arguments. Everything
# the go command writes (build cache, temporary files, binaries) stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp .bench_build/bin
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOTMPDIR="$root/.bench_build/tmp"
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
