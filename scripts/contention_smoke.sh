#!/usr/bin/env bash
# CI smoke for the lock-free read path: run the contention experiment at
# smoke scale — one paced writer plus four dedup workers live the whole
# time — and assert the concurrency claims:
#
#   * 8 reader threads deliver >= 2x the single-thread read throughput
#     (device latency runs in blocking mode, so injected device time
#     overlaps across threads and the ladder resolves software-side
#     serialization even on a small host);
#   * >= 95% of steady-state reads complete on the optimistic seqlock
#     path, i.e. without ever taking the inode lock, despite the live
#     writer;
#   * the background threads did real work.
#
# Also refreshes BENCH_concurrency.json with the machine-readable results.
#
# Usage: scripts/contention_smoke.sh
# (`make contention-smoke` builds the release binary first)

. "$(dirname "$0")/lib.sh"

OUT=$(run_figures contention --json BENCH_concurrency.json)
echo "$OUT"

# contention-summary: read_speedup_max=X threads=N
# contention-summary: optimistic_rate=R hits=H retries=T
# contention-summary: writer_writes=C worker_ops=D
SPEEDUP=$(echo "$OUT" | sed -n 's/^contention-summary: read_speedup_max=\([0-9.]*\).*/\1/p')
THREADS=$(echo "$OUT" | sed -n 's/^contention-summary: read_speedup_max=[0-9.]* threads=\([0-9]*\)$/\1/p')
OPT_RATE=$(echo "$OUT" | sed -n 's/^contention-summary: optimistic_rate=\([0-9.]*\).*/\1/p')
WRITES=$(echo "$OUT" | sed -n 's/.*writer_writes=\([0-9]*\).*/\1/p')
OPS=$(echo "$OUT" | sed -n 's/.*worker_ops=\([0-9]*\)$/\1/p')

[ -n "$SPEEDUP" ] && [ -n "$OPT_RATE" ] && [ -n "$WRITES" ] ||
    fail "contention-summary lines missing from output"
if [ "${THREADS:-0}" -ne 8 ]; then
    fail "widest ladder step ran $THREADS threads (want 8)"
fi
if ! awk "BEGIN { exit !($SPEEDUP >= 2.0) }"; then
    fail "8-thread read speedup is ${SPEEDUP}x (want >= 2.0x)"
fi
if ! awk "BEGIN { exit !($OPT_RATE >= 0.95) }"; then
    fail "optimistic read rate is $OPT_RATE (want >= 0.95 lock-free)"
fi
if [ "${WRITES:-0}" -eq 0 ] || [ "${OPS:-0}" -eq 0 ]; then
    fail "background load idle (writer_writes=$WRITES worker_ops=$OPS)"
fi
echo "contention-smoke OK (${SPEEDUP}x at $THREADS readers, optimistic rate $OPT_RATE, BENCH_concurrency.json refreshed)"
