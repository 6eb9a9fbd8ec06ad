#!/usr/bin/env bash
# The repository benchmark's ledger, and the gate against its newest entry.
#
#   scripts/ledger.sh record N   write BENCH_<N>.json (never overwrites one)
#   scripts/ledger.sh check      one seed-1 run against the newest BENCH_*.json
#   scripts/ledger.sh tree       the program tree id a ledger records
#
# record runs benchmarks/run.sh on every workload of BENCHMARK.json for each
# of SEEDS, one -trace 1 run per seed for the layer probes, and every Go
# benchmark of the module five times, each time in a separate `go test
# -count 1` process: this box's speed shifts for stretches of wall-clock
# time that can cover a whole process, so a row's median spans five
# processes rather than five passes of one. BENCH_<N>.json holds the commit (with
# -dirty for uncommitted changes), the program tree, the cpu line, the Go
# version and the seeds; the machine's processor count and the model and model name lines
# of /proc/cpuinfo; per workload and end-to-end metric the median and quartiles over the
# seeds; per workload the three count metrics and the failed operations seed
# by seed; the probes' medians and quartiles; and per benchmark row the
# median of each reported unit.
#
# check runs every workload on the first seed and every benchmark once. It
# exits 1 when a workload's 1/s or a benchmark row's events/sec or
# queries/sec value is more than DROP % below the ledger's median, enforced
# only when the hardware matches the ledger's — the cpu line, the processor
# count and both cpuinfo lines; Go's cpu line alone ("Intel(R) Xeon(R)
# Processor") is shared by unlike hosts, and absolute rates do not compare
# across hardware, so elsewhere, and against a ledger that predates those
# fields, the drop is printed as advice — and on any hardware
# when an operation fails or a count metric differs from the ledger's seed-1
# value: msgs_per_event, frames_per_event and err_vs_mle_mean count what the
# program did, and repeat to the last digit for a seed. Probes are recorded,
# not gated: they are uncorrected, and one run of an unchanged tree read
# core.seq_p1_events_per_s 36 % below the ledger's median. Needs jq and two
# processors.
#
# The program tree is the git tree id of every file a commit of the working
# tree would hold, less the ledgers, docs/ and the Markdown files: a ledger
# recorded before its commit (commit ending in -dirty) still names what it
# measured, and `scripts/ledger.sh tree` in a checkout prints the same id
# exactly when that checkout runs the same program.
set -euo pipefail
cd "$(dirname "$0")/.."
SEEDS=(1 2 3 4 5) # fixed before any run; check runs the first
DROP=30
work=.bench_build/ledger
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)

# fresh: empty the work directory — the last recording's log.txt, runs.jsonl
# and micro.txt — for a new record or check; tree leaves it alone.
fresh() {
	rm -rf "$work"
	mkdir -p "$work"
}

# bench SEED ARGS...: one run of the repository benchmark; its JSON result,
# tagged with its seed, goes to standard output.
bench() {
	local seed=$1
	shift
	benchmarks/run.sh -seed "$seed" "$@" | tee -a "$work/log.txt" | tail -n 1 |
		jq -c --argjson seed "$seed" '. + {seed: $seed}'
}

# runs SEED...: every workload on every SEED, into runs.jsonl.
runs() {
	for seed; do
		for w in $workloads; do
			bench "$seed" -workload "$w" -trace 0 | jq -c --arg w "$w" '. + {workload: $w}' >>"$work/runs.jsonl"
		done
	done
}

# micro COUNT: every benchmark of the module in COUNT separate
# `go test -count 1` processes, as one {name, unit, value} line per reported
# value in micro.jsonl; sets cpu to the run's cpu: line.
micro() {
	: >"$work/micro.txt"
	for ((pass = 0; pass < $1; pass++)); do
		go test -run '^$' -bench . -count 1 ./... | tee -a "$work/micro.txt"
	done
	awk '/^Benchmark/ { n = $1; sub(/-[0-9]+$/, "", n)
			for (i = 3; i < NF; i += 2) printf "{\"name\":\"%s\",\"unit\":\"%s\",\"value\":%s}\n", n, $(i + 1), $i }' \
		"$work/micro.txt" >"$work/micro.jsonl"
	cpu=$(grep -m1 '^cpu:' "$work/micro.txt" || echo 'cpu: unknown')
}

# hardware: this machine's identity beside the cpu line, as a JSON object.
hardware() {
	local model name
	model=$(grep -m1 $'^model\t' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //' || true)
	name=$(grep -m1 $'^model name\t' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //' || true)
	jq -n -c --argjson nproc "$(nproc)" --arg model "$model" --arg name "$name" \
		'{nproc: $nproc, cpu_model: $model, cpu_model_name: $name}'
}

# tree: the program tree id (see the header), from a scratch index.
tree() {
	local index
	index=$(mktemp -u)
	GIT_INDEX_FILE=$index git add -A .
	GIT_INDEX_FILE=$index git rm -r -q --cached --ignore-unmatch -- 'BENCH_*.json' docs '*.md'
	GIT_INDEX_FILE=$index git write-tree
	rm -f "$index"
}

# Quantiles as benchmarks/aastat computes them (exclusive method).
stats='def q($p): sort as $s | length as $n | if $n == 1 then $s[0] else
	($p * ($n + 1) - 1) as $pos | ([0, ([($pos | floor), $n - 2] | min)] | max) as $lo |
	([0, ([$pos - $lo, 1] | min)] | max) as $f | $s[$lo] + $f * ($s[$lo + 1] - $s[$lo]) end;
def summary: . as $rs | .[0].metrics | with_entries(.key as $m |
	.value = {unit: .value.unit, median: ([$rs[].metrics[$m].value] | q(0.5)),
		q1: ([$rs[].metrics[$m].value] | q(0.25)), q3: ([$rs[].metrics[$m].value] | q(0.75))});
def rows: group_by(.name) | map({key: .[0].name, value: (group_by(.unit) |
	map({key: .[0].unit, value: ([.[].value] | q(0.5))}) | from_entries)}) | from_entries;
def counts: ["msgs_per_event", "frames_per_event", "err_vs_mle_mean"];'

record() {
	local out=BENCH_$1.json
	[ -n "$1" ] && [ ! -e "$out" ] || { echo "ledger: $out exists or no N given; the ledger is append-only" >&2; exit 2; }
	fresh
	runs "${SEEDS[@]}"
	for seed in "${SEEDS[@]}"; do
		bench "$seed" -workload "${workloads%%$'\n'*}" -trace 1 >>"$work/probes.jsonl"
	done
	micro 5
	jq -n --slurpfile runs "$work/runs.jsonl" --slurpfile probes "$work/probes.jsonl" \
		--slurpfile micro "$work/micro.jsonl" --arg commit "$(git describe --always --dirty --abbrev=40)" --arg tree "$(tree)" --arg cpu "$cpu" \
		--arg go "$(go version)" --argjson seeds "[$(IFS=,; echo "${SEEDS[*]}")]" --argjson hw "$(hardware)" "$stats"'
	{commit: $commit, tree: $tree, cpu: $cpu} + $hw + {go: $go, seeds: $seeds,
	 workloads: ($runs | group_by(.workload) | map({key: .[0].workload, value: {
		metrics: summary,
		per_seed: (sort_by(.seed) | . as $rs | (counts | map({key: ., value: (. as $c | [$rs[].metrics[$c].value])}) | from_entries)
			+ {failed: [$rs[].failed]})}}) | from_entries),
	 probes: ($probes | {metrics: summary, failed: [sort_by(.seed)[].failed]}),
	 micro: ($micro | rows)}' >"$out"
	echo "ledger: wrote $out"
}

check() {
	local ledger
	ledger=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1)
	[ -n "$ledger" ] || { echo "ledger: no BENCH_*.json; run scripts/ledger.sh record N first" >&2; exit 2; }
	fresh
	runs "${SEEDS[0]}"
	micro 1
	local gate=1 now was
	now=$(jq -c --arg cpu "$cpu" '{cpu: $cpu} + .' <<<"$(hardware)")
	was=$(jq -c '{cpu, nproc, cpu_model, cpu_model_name}' "$ledger")
	if [ "$now" != "$was" ]; then
		gate=0
		echo "ledger: this machine, $now, is not $ledger's $was: rate drops are advice only" >&2
	fi
	jq -n -r --slurpfile l "$ledger" --slurpfile runs "$work/runs.jsonl" --slurpfile micro "$work/micro.jsonl" \
		--argjson gate "$gate" --argjson drop "$DROP" "$stats"'
	$l[0] as $l | ($micro | rows) as $now |
	def rate($name; $was; $is): (100 * ($is - $was) / $was) as $pct |
		"\(if $pct >= -$drop then "ok" elif $gate == 1 then "FAIL" else "warn" end)\t\($name)\t\($was) -> \($is) (\($pct * 10 | round / 10)%)";
	($runs[] | . as $r | $l.workloads[$r.workload] as $w |
		(if $r.failed > 0 then "FAIL\t\($r.workload) failed operations\t\($r.failed)" else empty end),
		(counts[] as $c | if $r.metrics[$c].value == $w.per_seed[$c][0] then "ok\t\($r.workload) \($c)\t\($r.metrics[$c].value)"
			else "FAIL\t\($r.workload) \($c)\t\($w.per_seed[$c][0]) != \($r.metrics[$c].value)" end),
		($r.metrics | to_entries[] | select(.value.unit == "1/s") | rate("\($r.workload) \(.key)"; $w.metrics[.key].median; .value.value))),
	($l.micro | to_entries[] | .key as $n | .value | to_entries[] | select(.key == "events/sec" or .key == "queries/sec") |
		if $now[$n][.key] == null then "FAIL\t\($n) \(.key)\tin the ledger, not in this run" else rate("\($n) \(.key)"; .value; $now[$n][.key]) end)' |
		tee "$work/check.txt" | awk -F'\t' '{ printf "%-5s %-52s %s\n", $1, $2, $3 }'
	! grep -q '^FAIL' "$work/check.txt" || { echo "ledger: check against $ledger failed" >&2; exit 1; }
	echo "ledger: check against $ledger passed"
}

case "${1:-}" in
record) record "${2:-}" ;;
check) check ;;
tree) tree ;;
*) echo "usage: scripts/ledger.sh record N | check | tree" >&2; exit 2 ;;
esac
