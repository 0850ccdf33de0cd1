#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 3 --seconds 20 --trace 0
#
# The Go build cache, the binary, cache directories and traces all live
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry files in the checkout too.
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off \
		GOTOOLCHAIN=local go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
