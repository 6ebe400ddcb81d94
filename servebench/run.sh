#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it:
#
#   bash servebench/run.sh --workload wire-sssp --seed 1 --seconds 15 --trace 0
#   bash servebench/run.sh --workload all --seed 1 --seconds 15 --trace 1
#
# Run it from the repository root. The Go build cache, temporary files,
# snapshot files and span dumps all stay under .bench_build/ there, and the
# build never touches the network (the module has no dependencies outside
# this repository).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --work-dir "$out" "$@"
