# Shared helpers for scripts/*_smoke.sh: server spawn/teardown, log
# scraping, and fsck boilerplate that used to be copy-pasted per script.
#
# Source this first (it sets the strict shell options), then:
#
#   smoke_init [cli-path]     resolve $CLI, make $WORK, install cleanup trap
#   start_server <log> <a..>  background "$CLI <a..>" -> $SERVER_PID, tracked
#   wait_addr <log> <pid>     scrape "listening on <addr>" (echoes the addr)
#   wait_log <pat> <log> <pid> <what>   wait until <log> matches <pat>
#   wait_exit <pid> <what>    wait for a clean self-exit (e.g. after shutdown)
#   kill_hard <pid>           SIGKILL + reap (crash-injection step)
#   fsck_image <img>          "$CLI <img> fsck"
#   fail <msg..>              print "error: ..." and exit 1
#
# Every background pid started through start_server is killed by the EXIT
# trap, so a failing assertion never leaks servers into the CI runner.

set -euo pipefail

CLI=${CLI:-target/release/denova-cli}
WORK=
SMOKE_PIDS=""
SERVER_PID=

fail() {
    echo "error: $*" >&2
    exit 1
}

require_cli() {
    [ -n "${1:-}" ] && CLI=$1
    [ -x "$CLI" ] || fail "$CLI not built (run: cargo build --release)"
}

smoke_cleanup() {
    local pid
    for pid in $SMOKE_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    [ -n "$WORK" ] && rm -rf "$WORK"
}

smoke_init() { # [cli-path]
    require_cli "${1:-}"
    WORK=$(mktemp -d)
    trap smoke_cleanup EXIT
}

track_pid() {
    SMOKE_PIDS="$SMOKE_PIDS $1"
}

untrack_pid() {
    SMOKE_PIDS=$(echo "$SMOKE_PIDS" | sed "s/\\<$1\\>//")
}

start_server() { # <log> <cli-args...>; sets SERVER_PID
    local log=$1
    shift
    "$CLI" "$@" >"$log" 2>&1 &
    SERVER_PID=$!
    track_pid "$SERVER_PID"
}

wait_addr() { # <log> <pid>: echo the address from "listening on <addr>"
    local addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$1")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        if ! kill -0 "$2" 2>/dev/null; then
            echo "error: server exited before listening:" >&2
            cat "$1" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "error: server never printed its address" >&2
    return 1
}

wait_log() { # <pattern> <log> <pid> <what>
    for _ in $(seq 1 100); do
        grep -q "$1" "$2" && return 0
        if ! kill -0 "$3" 2>/dev/null; then
            echo "error: $4 exited early:" >&2
            cat "$2" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "error: $4 never logged '$1':" >&2
    cat "$2" >&2
    return 1
}

wait_exit() { # <pid> <what>: the process must exit on its own
    for _ in $(seq 1 100); do
        if ! kill -0 "$1" 2>/dev/null; then
            untrack_pid "$1"
            return 0
        fi
        sleep 0.1
    done
    echo "error: $2 still running after shutdown" >&2
    return 1
}

kill_hard() { # <pid>: SIGKILL, reap, stop tracking
    kill -9 "$1"
    wait "$1" 2>/dev/null || true
    untrack_pid "$1"
}

fsck_image() { # <img>
    "$CLI" "$1" fsck
}
