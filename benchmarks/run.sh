#!/usr/bin/env bash
# Builds the ladder from source into .bench_build/ in the checkout and runs
# it with the arguments given; the Go build cache stays in the checkout too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$root/benchmarks/ladder" -o "$build/ladder" .
cd "$root"
exec "$build/ladder" "$@"
