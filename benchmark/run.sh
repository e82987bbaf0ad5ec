#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the Go build cache, the go command's own state (it
# keeps telemetry counters under the home directory) and temporary files go
# under .bench_build/, results under benchmark/out/. Arguments pass through:
#
#   bash benchmark/run.sh --workload hot_read --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/; it is built as a package of the repository's module" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
