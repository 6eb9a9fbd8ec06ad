#!/usr/bin/env bash
# The one command of the benchmark: builds bnbench from source into
# .bench_build/ at the root of the checkout and runs it from there.
#
#   benchmarks/run.sh -seed 1                      all four workloads
#   benchmarks/run.sh -workload serve-ingest -seed 7 -seconds 20 -trace 1
#
# Every metric is printed by name and unit, with the sample counts and the
# operations attempted and failed; the last line is the result as JSON.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/goenv.sh"
build_tool bnbench
cd "$root"
exec "$build/bnbench" "$@"
