#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#	bash bench/run.sh --workload campus-join --seed 3 --seconds 20 --trace 0
#	bash bench/run.sh -seed 1                  # all four workloads, untraced then traced
#	bash bench/run.sh -compare A.json -- B.json
#
# Everything the Go toolchain writes (build cache, temp files, config) stays
# under .bench_build/ in the repository, and nothing is fetched: the module
# resolves the simulator from the enclosing checkout.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
