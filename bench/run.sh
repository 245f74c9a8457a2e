#!/usr/bin/env bash
# Builds bench/tppbench from source and runs it with the given arguments.
# Run from the root of a checkout.  Everything the build writes (Go's
# build cache and temp files, the binary) stays inside the checkout,
# under .bench_build/; the traced run writes its span files to bench/out/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
go build -o "$build/tppbench" ./bench/tppbench
exec "$build/tppbench" "$@"
