#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# toolchain writes (build cache, module cache, the binary) stays under
# .bench_build/ at the checkout root, so a run touches nothing outside.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$build/stampbench" .
exec "$build/stampbench" "$@"
