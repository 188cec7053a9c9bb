#!/usr/bin/env bash
# Build the benchmark from source into .bench_build/ of the checkout and run
# it. Everything the Go toolchain writes (build cache, temp files, its own
# config and telemetry directory, the binary) stays under .bench_build/, so a
# run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/wincm-benchmark" .
exec "$build/wincm-benchmark" -out "$here/out" "$@"
