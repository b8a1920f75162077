#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments; BENCHMARK.json
# names this script as the command. Everything it writes stays inside the
# checkout: the build and Go's build cache under .bench_build/, results
# under bench/out/.
#
#   bash bench/run.sh --workload native_closed --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                  # all four workloads, seed 1
#   bash bench/run.sh -selfcheck       # two sets of runs, then compare them
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" -out "$root/bench/out" "$@"
