# Shared by the smoke scripts; source it after `cargo build -p
# adcache-cli`. The scripts drive `$BIN`: the caller's, if it set one (say,
# `BIN=target/release/adcache bash scripts/serve_smoke.sh`), else this
# checkout's debug build.
BIN=${BIN:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/target/debug/adcache}

# start_server LOG [serve flags...]
#
# Starts `adcache serve` on a port the kernel picks (`--addr 127.0.0.1:0`),
# stdout and stderr to LOG, and waits for its `serving on HOST:PORT` banner.
# Sets SERVER_PID and ADDR. If the child exits first, or 30 s pass, prints
# LOG and fails the script: no probe loop that falls through in silence.
start_server() {
    local log=$1
    shift
    "$BIN" serve --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    SERVER_PID=$!
    local _
    for _ in $(seq 1 300); do
        ADDR=$(sed -n 's/^serving on \([^ ]*\) .*/\1/p' "$log")
        if [ -n "$ADDR" ]; then
            return 0
        fi
        if ! kill -0 "$SERVER_PID" 2> /dev/null; then
            break
        fi
        sleep 0.1
    done
    echo "FAIL: the server exited, or did not start serving within 30 s; its log:" >&2
    cat "$log" >&2
    kill "$SERVER_PID" 2> /dev/null || true
    exit 1
}

# expect_clean_drain LOG LABEL
#
# Waits for the server started last to exit on its own, prints LOG, and
# fails unless it exited 0 having drained: zero protocol errors and every
# accepted connection closed ("N/N connections closed").
expect_clean_drain() {
    local log=$1 label=$2 status=0
    wait "$SERVER_PID" || status=$?
    echo "---- server log ($label) ----"
    cat "$log"
    if [ "$status" -ne 0 ]; then
        echo "FAIL($label): server exited with status $status" >&2
        exit 1
    fi
    if ! grep -q "drained: .* (0 protocol errors)" "$log"; then
        echo "FAIL($label): server reported protocol errors or no drain line" >&2
        exit 1
    fi
    if ! grep -qE "drained: .* ([0-9]+)/\1 connections closed" "$log"; then
        echo "FAIL($label): not every accepted connection was closed on drain" >&2
        exit 1
    fi
}
