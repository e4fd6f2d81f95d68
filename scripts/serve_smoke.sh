#!/usr/bin/env bash
# End-to-end smoke test of the service layer: start `denova-cli serve` on an
# ephemeral TCP port, drive a put/get/stat/rm round-trip through `--remote`
# (tagged with a --tenant so the hello/accounting path is exercised over
# real TCP), shut the server down cleanly over the wire, and fsck the image
# afterwards.
#
# Usage: scripts/serve_smoke.sh [path-to-denova-cli]
# (defaults to target/release/denova-cli; `make serve-smoke` builds it first)

set -euo pipefail

CLI=${1:-target/release/denova-cli}
SRV=

fail() {
    echo "error: $*" >&2
    exit 1
}

[ -x "$CLI" ] || fail "$CLI not built (run: cargo build --release)"
WORK=$(mktemp -d)
# A failing assertion never leaks the server into the CI runner.
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

IMG="$WORK/fs.img"
LOG="$WORK/serve.log"
"$CLI" "$IMG" mkfs --size 64M >/dev/null

# Start the server on an ephemeral port and scrape the bound address from
# its "listening on <addr>" banner.
"$CLI" "$IMG" serve --listen 127.0.0.1:0 >"$LOG" 2>&1 &
SRV=$!
ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$LOG")
    [ -n "$ADDR" ] && break
    kill -0 "$SRV" 2>/dev/null || fail "server exited before listening: $(cat "$LOG")"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "server never printed its address"
echo "server up at $ADDR (pid $SRV)"

# Round-trip a payload through the wire protocol, as a named tenant.
head -c 200000 /dev/urandom >"$WORK/payload"
"$CLI" --remote "$ADDR" --tenant smoke put smoke.bin "$WORK/payload"
"$CLI" --remote "$ADDR" --tenant smoke stat smoke.bin
"$CLI" --remote "$ADDR" --tenant smoke get smoke.bin "$WORK/back"
cmp "$WORK/payload" "$WORK/back" || fail "payload corrupted over the wire"
"$CLI" --remote "$ADDR" ls | grep -q smoke.bin
"$CLI" --remote "$ADDR" stats >/dev/null
"$CLI" --remote "$ADDR" rm smoke.bin

# Clean shutdown over the wire; the server must exit on its own.
"$CLI" --remote "$ADDR" shutdown
for _ in $(seq 1 100); do
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$SRV" 2>/dev/null && fail "server still running after shutdown"
SRV=
grep -q "shutting down" "$LOG" || fail "server did not log a clean shutdown: $(cat "$LOG")"

# The image the server unmounted must be consistent.
"$CLI" "$IMG" fsck

echo "serve-smoke OK"
