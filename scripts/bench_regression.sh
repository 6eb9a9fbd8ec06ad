#!/usr/bin/env bash
# bench_regression.sh — run the ingestion + query benchmarks and gate on
# throughput regressions against the committed BENCH_BASELINE.txt.
#
# The gate is intentionally narrow: it fails only when a throughput
# benchmark (BenchmarkParallelIngest, BenchmarkClusterThroughput, BenchmarkFederationThroughput,
# BenchmarkServeQueries,
# BenchmarkServeOverload — anything reporting events/sec or queries/sec;
# for the overload benchmark queries/sec is the admitted-request
# throughput under shedding) loses more than BENCH_REGRESSION_PCT
# (default 30) percent of its baseline rate, and only when the runner
# reports the same `cpu:` line as the machine that recorded the baseline —
# absolute throughput is not comparable across hardware, so on a different
# CPU the comparison is printed as an advisory and the gate passes. ns/op
# and allocs of the query benchmarks are reported (via benchstat when
# installed) but never gated, and so is B/op of the BenchmarkNewTracker rows
# (what a tracker of cold counters costs). Set BENCH_GATE=force to gate
# regardless of the CPU match (e.g. on a dedicated baseline runner with an
# unstable cpu string).
#
# Refresh the baseline on a quiet machine with:
#   scripts/bench_regression.sh --update-baseline
#
# Environment:
#   BENCH_BASELINE        baseline file (default BENCH_BASELINE.txt)
#   BENCH_REGRESSION_PCT  allowed events/sec drop in percent (default 30)
#   BENCH_TIME            go test -benchtime (default 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${BENCH_BASELINE:-BENCH_BASELINE.txt}
THRESHOLD=${BENCH_REGRESSION_PCT:-30}
BENCH_TIME=${BENCH_TIME:-1s}
PATTERN='BenchmarkParallelIngest|BenchmarkQueryProb|BenchmarkClassify$|BenchmarkEstimatedModel|BenchmarkNewTracker|BenchmarkClusterThroughput|BenchmarkStructLearnOverhead|BenchmarkPairAccumulate|BenchmarkStructFrame|BenchmarkSiteEvent|BenchmarkSample$|BenchmarkRNG|BenchmarkBankIncBatch|BenchmarkFederationThroughput|BenchmarkServeQueries|BenchmarkServeOverload|BenchmarkDecodeRequest|BenchmarkServeHandler'

# BenchmarkPairAccumulate, BenchmarkStructFrame, BenchmarkSiteEvent,
# BenchmarkSample, BenchmarkRNG, BenchmarkBankIncBatch, BenchmarkDecodeRequest
# and BenchmarkServeHandler live beside the kernels they measure, in
# internal/cluster, internal/bn, internal/counter and internal/serve
# (ns/event, ns/draw, ns/cell, B/frame, ns/increment, ns/request and allocs:
# reported, not gated).
run_benchmarks() {
  go test -count=1 -run '^$' -bench "$PATTERN" -benchtime "$BENCH_TIME" . ./internal/bn ./internal/cluster ./internal/counter ./internal/serve
}

if [[ "${1:-}" == "--update-baseline" ]]; then
  run_benchmarks | tee "$BASELINE"
  echo "wrote $BASELINE"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "no $BASELINE found; run scripts/bench_regression.sh --update-baseline first" >&2
  exit 1
fi

CURRENT=$(mktemp)
trap 'rm -f "$CURRENT"' EXIT
run_benchmarks | tee "$CURRENT"

if command -v benchstat >/dev/null 2>&1; then
  echo
  echo "=== benchstat: $BASELINE vs current ==="
  benchstat "$BASELINE" "$CURRENT" || true
else
  echo "(benchstat not installed; skipping delta report)" >&2
fi

base_cpu=$(grep -m1 '^cpu:' "$BASELINE" || true)
cur_cpu=$(grep -m1 '^cpu:' "$CURRENT" || true)
gate=1
if [[ "${BENCH_GATE:-}" != "force" && "$base_cpu" != "$cur_cpu" ]]; then
  gate=0
  echo
  echo "baseline ${base_cpu:-<none>} != current ${cur_cpu:-<none>}:" \
       "different hardware, comparison is advisory only" >&2
fi

echo
echo "=== NewTracker memory: B/op (reported, not gated) ==="
awk '
  FNR == 1 { file++ }
  /^BenchmarkNewTracker/ {
    k = $1; sub(/-[0-9]+$/, "", k)
    for (i = 2; i <= NF; i++) if ($i == "B/op") { if (file == 1) base[k] = $(i - 1); else cur[k] = $(i - 1) }
  }
  END { for (k in cur) printf "%-45s %12s -> %12s B/op\n", k, (k in base ? base[k] : "n/a"), cur[k] }
' "$BASELINE" "$CURRENT"

echo
echo "=== throughput gate: events/sec + queries/sec (threshold: -${THRESHOLD}%) ==="
awk -v thr="$THRESHOLD" -v gate="$gate" '
  function key() {
    k = $1
    sub(/-[0-9]+$/, "", k)  # strip the GOMAXPROCS suffix, varies per runner
    return k
  }
  function rate() {
    for (i = 2; i <= NF; i++)
      if ($i == "events/sec" || $i == "queries/sec") return $(i - 1)
    return ""
  }
  FNR == 1 { file++ }
  /events\/sec|queries\/sec/ {
    r = rate()
    if (r == "") next
    if (file == 1) base[key()] = r
    else cur[key()] = r
  }
  END {
    bad = 0
    for (k in base) {
      if (!(k in cur)) {
        printf "MISSING  %-45s baseline %.0f ev/s, not in current run\n", k, base[k]
        bad = 1
        continue
      }
      pct = (cur[k] - base[k]) / base[k] * 100
      status = "ok"
      if (pct < -thr) { status = (gate ? "FAIL" : "warn"); bad = 1 }
      printf "%-8s %-45s %.0f -> %.0f ev/s (%+.1f%%)\n", status, k, base[k], cur[k], pct
    }
    if (bad && gate) {
      # On failure, print the full old/new delta table benchstat-style so
      # the CI log carries the comparison even when benchstat is absent.
      print ""
      print "=== regression detail (old = baseline, new = this run) ==="
      printf "%-52s %14s %14s %9s\n", "name", "old rate/s", "new rate/s", "delta"
      n = 0
      for (k in base) keys[++n] = k
      for (i = 2; i <= n; i++) {         # insertion sort: asorti is gawk-only
        k = keys[i]
        for (j = i - 1; j >= 1 && keys[j] > k; j--) keys[j + 1] = keys[j]
        keys[j + 1] = k
      }
      for (i = 1; i <= n; i++) {
        k = keys[i]
        if (!(k in cur)) {
          printf "%-52s %14.0f %14s %9s\n", k, base[k], "missing", "n/a"
          continue
        }
        pct = (cur[k] - base[k]) / base[k] * 100
        printf "%-52s %14.0f %14.0f %+8.1f%%\n", k, base[k], cur[k], pct
      }
    }
    exit (gate ? bad : 0)
  }
' "$BASELINE" "$CURRENT"
