#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh -workload all -seed 7
#
# Every build output (binary, Go build cache, temporary files) stays under
# .bench_build/ in the current directory. The benchmark is its own module
# (benchmark/go.mod) that imports the repository's packages through a
# replace directive, so the build fails, and nothing runs, in a checkout
# that lacks the repository's sources.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
