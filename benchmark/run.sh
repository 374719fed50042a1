#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, temporary
# files, its own configuration) is kept under .bench_build, and everything the
# benchmark writes under benchmark/out, so nothing outside the checkout is
# touched. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload kv_wire_read --seed 1 --seconds 10 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/ermia-benchmark" .)
exec "$build/ermia-benchmark" -out "$here/out" "$@"
