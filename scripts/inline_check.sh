#!/usr/bin/env bash
# Fails unless the per-increment draws and decisions compile to inline code:
# bn's (*RNG).Uint64 and (*RNG).Float64, counter.OneWayReports (a gap
# proposal's acceptance) and counter's (*OneWayGap).Due (the compare an
# increment between gap proposals costs) must be inlinable; a site's
# increment (siteCounters.inc, layout.go) must inline Due and event must
# inline inc; and the hot call sites must inline the RNG — the sampling-mode
# coins of counter.Bank.Inc/IncBatch (bank.go), every draw of a gap's
# decision (oneway.go, which must also inline OneWayReports there) and every
# forward-sampling draw (Sampler.draw, model.go). One more branch in the RNG
# step pushes it past the inliner's budget and turns each of those draws
# back into a call; this script is what notices. The gap draw itself
# (oneWayNext, two logs) is paid once per proposal and is not checked.
# Run from anywhere: scripts/inline_check.sh (prints each check and exits 1
# if any failed).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go build -gcflags=-m ./internal/bn ./internal/counter ./internal/cluster 2>&1)
fail=0

# inlinable NAME: the compiler reports "can inline NAME".
inlinable() {
	if awk -v want=": can inline $1" 'substr($0, length($0) - length(want) + 1) == want { found = 1 } END { exit !found }' <<<"$out"; then
		echo "ok    can inline $1"
	else
		echo "FAIL  $1 does not inline" >&2
		fail=1
	fi
}

# inlined FILE PATTERN CALLEE: every line of FILE matching PATTERN (a fixed
# string) shows "inlining call to CALLEE" in the compiler's report.
inlined() {
	local file=$1 pattern=$2 callee=$3 lines line
	lines=$(grep -nF "$pattern" "$file" | cut -d: -f1)
	if [ -z "$lines" ]; then
		echo "FAIL  no line of $file holds $pattern" >&2
		fail=1
		return
	fi
	for line in $lines; do
		if awk -v at="$file:$line:" -v want=": inlining call to $callee" 'index($0, at) == 1 && index($0, want) { found = 1 } END { exit !found }' <<<"$out"; then
			echo "ok    $file:$line inlines $callee"
		else
			echo "FAIL  $file:$line does not inline $callee" >&2
			fail=1
		fi
	done
}

inlinable '(*RNG).Uint64'
inlinable '(*RNG).Float64'
inlinable 'OneWayReports'
inlinable '(*OneWayGap).Due'
inlinable '(*siteCounters).inc'
inlined internal/counter/bank.go 'b.rng.Uint64()' 'bn.(*RNG).Uint64'
inlined internal/counter/oneway.go 'rng.Float64()' 'bn.(*RNG).Uint64'
inlined internal/counter/oneway.go 'OneWayReports(rng.Float64()' 'OneWayReports'
inlined internal/counter/oneway.go '.gap.Due(' '(*OneWayGap).Due'
inlined internal/cluster/layout.go 'c.gap.Due(' 'counter.(*OneWayGap).Due'
inlined internal/cluster/layout.go 's.inc(id)' '(*siteCounters).inc'
inlined internal/bn/model.go 's.rng.Float64()' '(*RNG).Uint64'
exit $fail
