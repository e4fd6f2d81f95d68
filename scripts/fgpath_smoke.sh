#!/usr/bin/env bash
# CI smoke for the foreground I/O fast path: run the fgpath experiment at
# smoke scale and assert the structural claims that must hold on any host,
# regardless of timing noise:
#
#   * a steady-state single-extent zero-copy write issues at most 2 fences
#     (one covering data + log entry, one for the atomic tail commit);
#   * aligned writes bounce zero bytes through staging scratch.
#
# The latency claim (aligned 4 KiB p50 ≥ 15% faster than the staged
# reference path) is what a release-build `figures -- fgpath` records in
# BENCH_fgpath.json; no test or smoke gates on it, because a shared
# runner's (or a debug build's) timing is too noisy to.
#
# Usage: scripts/fgpath_smoke.sh
# (`make fgpath-smoke` builds the release binary first)

. "$(dirname "$0")/lib.sh"

OUT=$(run_figures fgpath)
echo "$OUT"

# fgpath-summary: aligned-4k fences_per_write=N speedup_pct=X staged_bytes=B
FENCES=$(echo "$OUT" | sed -n 's/^fgpath-summary: aligned-4k fences_per_write=\([0-9]*\).*/\1/p')
STAGED_BYTES=$(echo "$OUT" | sed -n 's/.*aligned-4k.*staged_bytes=\([0-9]*\)$/\1/p')

[ -n "$FENCES" ] || fail "fgpath-summary line missing from output"
if [ "$FENCES" -gt 2 ]; then
    fail "$FENCES fences per aligned 4 KiB write (want <= 2)"
fi
if [ "${STAGED_BYTES:-0}" -ne 0 ]; then
    fail "aligned write staged $STAGED_BYTES bytes (want 0)"
fi
echo "fgpath-smoke OK ($FENCES fences/write, $STAGED_BYTES bytes staged)"
