#!/usr/bin/env bash
# Builds hypard's benchmark from source and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash bench/run.sh -workload all -seed 1
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the working tree, and the Go toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
