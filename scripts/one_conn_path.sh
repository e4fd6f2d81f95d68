#!/usr/bin/env bash
# Source check: the server has one connection state machine, the reactor's.
#
#   * nothing under crates/ defines the thread-per-connection server again
#     (`handle_conn`, its `Inflight` accounting, the `PipeEnd` it served);
#   * crates/svc spawns threads in exactly two places outside its tests: the
#     pool workers and the replication handover. A connection costs no
#     thread, so any other spawn site is one too many.
#
# Usage: scripts/one_conn_path.sh   (`make one-conn-path`)

set -euo pipefail
cd "$(dirname "$0")/.."

if grep -rnw "fn handle_conn\|struct PipeEnd\|struct Inflight" crates/; then
    echo "error: the thread-per-connection server is back (see above)" >&2
    exit 1
fi

# Spawn sites per file, test modules (which end each file) left out.
SPAWNS=$(for f in crates/svc/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /thread::(Builder|spawn|scope)/ { n++ }
        END { if (n) print f ":" n }' "$f"
done | tr '\n' ' ')
WANT="crates/svc/src/pool.rs:1 crates/svc/src/server.rs:1 "
if [ "$SPAWNS" != "$WANT" ]; then
    echo "error: crates/svc spawns threads at [ $SPAWNS]; want [ $WANT]" >&2
    echo "       (pool workers and the replication handover only)" >&2
    exit 1
fi
echo "one-conn-path: ok"
