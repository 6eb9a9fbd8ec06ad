#!/usr/bin/env bash
# A/A check: two sets, A and B, of N runs of the same binary on N seeds. The
# runs alternate, and so does which set goes first on a seed. Prints, per
# workload and metric, the median and quartiles of each set and the A/A delta,
# and exits non-zero if a delta exceeds the metric's bound in BENCHMARK.json
# or a count metric differs at all between the two runs on one seed.
#
#   benchmarks/aa.sh [N]        N >= 5, default 5
set -euo pipefail
n=${1:-5}
if [ "$n" -lt 5 ]; then
	echo "aa.sh: N must be at least 5" >&2
	exit 2
fi
source "$(dirname "${BASH_SOURCE[0]}")/goenv.sh"
build_tool bnbench
build_tool aastat
out=$build/aa
rm -rf "$out"
mkdir -p "$out"

cd "$root"
for workload in tracker-ingest cluster-batched cluster-struct serve-ingest; do
	for seed in $(seq 1 "$n"); do
		order="A B"
		if [ $((seed % 2)) -eq 0 ]; then
			order="B A"
		fi
		for set in $order; do
			"$build/bnbench" -workload "$workload" -seed "$seed" -seconds 20 -trace 0 |
				tail -n 1 >>"$out/$workload.$set.jsonl"
		done
	done
done
exec "$build/aastat" -bounds "$root/BENCHMARK.json" -dir "$out"
