#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it. Everything the Go toolchain writes — build cache, temporary
# files — stays in that directory, so a run touches nothing outside the
# checkout, and a checkout without the repository around the benchmark
# (no go.mod) fails here before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
