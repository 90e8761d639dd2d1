#!/usr/bin/env bash
# CI smoke test for the serving layer: start a server on loopback, hammer
# it with the network load generator — one singleton pass and one batched
# high-connection pass (256 conns, --batch 16) — require zero protocol
# errors on both, and verify the Shutdown opcode drains the server
# cleanly (exit 0, every accepted connection closed, trace summarizable).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-$((42000 + RANDOM % 20000))}"
OPS="${OPS:-20000}"
CONNS="${CONNS:-8}"
BATCH_CONNS="${BATCH_CONNS:-256}"
BATCH_OPS="${BATCH_OPS:-40000}"
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

cargo build -p adcache-cli

./target/debug/adcache serve \
    --addr "127.0.0.1:$PORT" --fill 5000 --trace "$TRACE_DIR" \
    --max-conns $((BATCH_CONNS + 16)) \
    > "$TRACE_DIR/serve.log" 2>&1 &
SERVER_PID=$!

# Wait for the listener to come up.
for _ in $(seq 1 50); do
    if ./target/debug/adcache loadgen --addr "127.0.0.1:$PORT" --ops 0 \
        > /dev/null 2>&1; then
        break
    fi
    sleep 0.2
done

# Singleton pass: loadgen exits nonzero on any lost / misordered /
# undecodable reply.
./target/debug/adcache loadgen \
    --addr "127.0.0.1:$PORT" --ops "$OPS" --connections "$CONNS" \
    --keys 5000 --mix mixed

# Batched high-connection pass: every frame carries 16 sub-requests and
# the reply verification covers per-sub count, opcode echoes, and FIFO
# order. --shutdown then drives the graceful drain over the wire, which
# must still be clean after the connection spike.
./target/debug/adcache loadgen \
    --addr "127.0.0.1:$PORT" --ops "$BATCH_OPS" --connections "$BATCH_CONNS" \
    --batch 16 --keys 5000 --mix mixed --shutdown

# The server must now drain and exit 0 on its own.
SERVER_STATUS=0
wait "$SERVER_PID" || SERVER_STATUS=$?
echo "---- server log ----"
cat "$TRACE_DIR/serve.log"
if [ "$SERVER_STATUS" -ne 0 ]; then
    echo "FAIL: server exited with status $SERVER_STATUS" >&2
    exit 1
fi
if ! grep -q "drained: .* (0 protocol errors)" "$TRACE_DIR/serve.log"; then
    echo "FAIL: server reported protocol errors or no drain line" >&2
    exit 1
fi
# The banner names the tree: an in-memory server runs the served preset
# (the 4 MiB write buffer over the stripes, 256 KiB at least), never the
# unit-test preset's 16 KiB memtables.
if ! grep -qE "^tree per stripe: block 512 B, memtable (256|512|1024|2048|4096) KiB" "$TRACE_DIR/serve.log"; then
    echo "FAIL: server is not running on the served in-memory tree" >&2
    exit 1
fi
# Clean drain: the accepted and closed connection counts must agree
# ("N/N connections closed").
if ! grep -qE "drained: .* ([0-9]+)/\1 connections closed" "$TRACE_DIR/serve.log"; then
    echo "FAIL: not every accepted connection was closed on drain" >&2
    exit 1
fi

# The recorded trace must summarize, including the serving section.
./target/debug/adcache trace "$TRACE_DIR" | tee "$TRACE_DIR/summary.txt"
grep -q "serving: " "$TRACE_DIR/summary.txt"

echo "serve-smoke OK: $OPS ops over $CONNS connections + $BATCH_OPS batched ops over $BATCH_CONNS connections, zero protocol errors, clean drain"
