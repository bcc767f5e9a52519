#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; everything it builds or writes stays under .bench_build/ there.
#
#   bash simbench/run.sh --workload bidl-steady --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" --out "$out/simbench-results" "$@"
