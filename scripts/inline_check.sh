#!/usr/bin/env bash
# Fails unless the per-increment draws and decisions compile to inline code:
# bn's (*RNG).Uint64 and (*RNG).Float64 and counter.OneWayReports must be
# inlinable, and the hot call sites must inline the RNG — the sampling-mode
# coins of counter.Bank.Inc/IncBatch (bank.go) and of the one-way bank
# (oneway.go), a site's one-way coin (siteCounters.count, layout.go) and every
# forward-sampling draw (Sampler.draw, model.go). One more branch in the RNG
# step pushes it past the inliner's budget and turns each of those draws back
# into a call; this script is what notices.
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
inlined internal/counter/bank.go 'b.rng.Uint64()' 'bn.(*RNG).Uint64'
inlined internal/counter/oneway.go 'b.rng.Float64()' 'bn.(*RNG).Uint64'
inlined internal/cluster/layout.go 'rng.Float64()' 'bn.(*RNG).Uint64'
inlined internal/bn/model.go 's.rng.Float64()' '(*RNG).Uint64'
exit $fail
