#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
go build -C benchmark -o "$root/.bench_build/offbench" .
exec "$root/.bench_build/offbench" "$@"
