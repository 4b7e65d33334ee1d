#!/usr/bin/env bash
# Runs the self-checking smoke benches serially — they measure
# wall-clock throughput and gate on it, so running them in parallel
# would corrupt each other's numbers. Replaces the historical one-step-
# per-bench CI blocks with one scripted step that keeps per-bench logs.
#
#   usage: scripts/run_smoke_benches.sh [bench-dir]   (default build/bench)
#
# Environment:
#   LFBT_SMOKE_BENCHES     space-separated subset to run (default: all
#                          smoke benches, E9, E10 and E13..E17) — the
#                          TRIE_STATS=OFF CI job uses this to run only
#                          the benches whose gates don't need counters;
#   LFBT_BENCH_MAX_THREADS thread cap passed through (default 2, the CI
#                          smoke convention);
#   BENCH_LOG_DIR          where per-bench logs go (default
#                          <bench-dir>/smoke-logs).
#
# Each bench runs at LFBT_BENCH_SCALE=0.05 except bench_e13_memory,
# which needs 0.1: its churn-soak windows must hold enough ops for the
# leak gate (soak_tail_is_flat) to be meaningful. A failing bench names
# itself and prints its log tail; the script runs everything before
# exiting non-zero, so one red bench doesn't hide another.
set -u

BENCH_DIR="${1:-build/bench}"
LOG_DIR="${BENCH_LOG_DIR:-$BENCH_DIR/smoke-logs}"
DEFAULT_BENCHES="bench_e9_sharded bench_e10_range bench_e13_memory \
bench_e14_resharding bench_e15_atomic_scan bench_e16_service bench_e17_keys"
BENCHES="${LFBT_SMOKE_BENCHES:-$DEFAULT_BENCHES}"
export LFBT_BENCH_MAX_THREADS="${LFBT_BENCH_MAX_THREADS:-2}"

if [ ! -d "$BENCH_DIR" ]; then
  echo "run_smoke_benches: no such bench dir: $BENCH_DIR" >&2
  exit 2
fi
mkdir -p "$LOG_DIR"

fail=0
for b in $BENCHES; do
  scale=0.05
  [ "$b" = bench_e13_memory ] && scale=0.1
  log="$LOG_DIR/$b.log"
  echo "=== $b (scale $scale, <= $LFBT_BENCH_MAX_THREADS threads) ==="
  if (cd "$BENCH_DIR" && LFBT_BENCH_SCALE="$scale" "./$b") >"$log" 2>&1; then
    tail -n 3 "$log"
  else
    echo "FAILED: $b — last 40 log lines ($log):"
    tail -n 40 "$log"
    fail=1
  fi
done
exit $fail
