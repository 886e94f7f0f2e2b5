#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh -seed 1 -out run.json
#
# Everything the build and the run write (Go build cache, temporary
# stores, the binary) stays under .bench_build/ at the root, and the build
# never reaches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
