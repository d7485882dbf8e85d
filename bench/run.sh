#!/usr/bin/env bash
# Launcher for the repo benchmark (see bench/README.md). Builds the bench
# program from source into .bench_build/ and runs it from the repo root, so
# every byte the benchmark writes (Go build cache included) stays inside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C bench -o "$root/.bench_build/bin/vmalloc-bench" .
exec "$root/.bench_build/bin/vmalloc-bench" "$@"
