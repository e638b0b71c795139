#!/usr/bin/env bash
# Builds the OBD benchmark from source and runs one workload of it.
#
#   bash obdbench/run.sh --workload grade-big --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) stays under .bench_build/ there.
# The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C "$root/obdbench" build -buildvcs=false -o "$build/obdbench" . >&2
exec "$build/obdbench" --root . --out .bench_build "$@"
