#!/usr/bin/env bash
# Builds finepack-bench from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash cmd/finepack-bench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
#
# Everything the toolchain and the benchmark write (build cache, binary,
# scratch files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C "$(dirname "$0")" build -o "$build/finepack-bench" .
exec "$build/finepack-bench" "$@"
