#!/usr/bin/env bash
# CI smoke test for the serving layer: start a server on loopback, hammer
# it with the network load generator — one singleton pass and one batched
# high-connection pass (256 conns, --batch 16) — require zero protocol
# errors on both, and verify the Shutdown opcode drains the server
# cleanly (exit 0, every accepted connection closed, trace summarizable).
# A second, durable server (`--dir`) must answer STATS with a whole memory
# ledger.
set -euo pipefail
cd "$(dirname "$0")/.."

OPS="${OPS:-20000}"
CONNS="${CONNS:-8}"
BATCH_CONNS="${BATCH_CONNS:-256}"
BATCH_OPS="${BATCH_OPS:-40000}"
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

cargo build -p adcache-cli
source scripts/lib.sh

start_server "$TRACE_DIR/serve.log" --fill 5000 --trace "$TRACE_DIR" \
    --max-conns $((BATCH_CONNS + 16))

# Singleton pass: loadgen exits nonzero on any lost / misordered /
# undecodable reply.
"$BIN" loadgen \
    --addr "$ADDR" --ops "$OPS" --connections "$CONNS" \
    --keys 5000 --mix mixed

# Batched high-connection pass: every frame carries 16 sub-requests and
# the reply verification covers per-sub count, opcode echoes, and FIFO
# order. --shutdown then drives the graceful drain over the wire, which
# must still be clean after the connection spike.
"$BIN" loadgen \
    --addr "$ADDR" --ops "$BATCH_OPS" --connections "$BATCH_CONNS" \
    --batch 16 --keys 5000 --mix mixed --shutdown

# The server must now drain and exit 0 on its own.
expect_clean_drain "$TRACE_DIR/serve.log" serve
# The banner names the tree: both stores run the served preset at the
# paper's 4 KiB blocks, never the unit-test preset's 512 B blocks and
# 16 KiB memtables. In memory the 4 MiB write buffer is divided over the
# stripes (256 KiB at least); on disk each stripe has 4 MiB.
if ! grep -qE "^tree per stripe: block 4096 B, memtable (256|512|1024|2048|4096) KiB" "$TRACE_DIR/serve.log"; then
    echo "FAIL: server is not running on the served in-memory tree" >&2
    exit 1
fi
start_server "$TRACE_DIR/durable.log" --dir "$TRACE_DIR/store"
# The memory ledger on a durable store: a short write-heavy pass (512 B
# values, as the benchmark's write-durable), a mixed pass that fills the
# result caches, then `top` prints STATS.memory. Every row must
# be there and non-negative (glibc's free heap, `malloc.free`, included),
# and the rows' real bytes may not add up to more than the resident set
# the same report read.
"$BIN" loadgen --addr "$ADDR" --ops 20000 --connections 4 --keys 5000 \
    --value-size 512 --mix write
"$BIN" loadgen --addr "$ADDR" --ops 10000 --connections 4 --keys 5000 \
    --value-size 512 --mix mixed
"$BIN" top --addr "$ADDR" --iterations 1 --interval-ms 50 > "$TRACE_DIR/top.txt"
grep -E "^mem(ory)? " "$TRACE_DIR/top.txt"
awk -v want="range.keys.in_place range.keys.shared range.values range.slab range.hash_index range.segment_slots \
range.segments range.policy block.blocks block.table kv.values kv.keys_and_table \
admission.sketch memtable.0 memtable.0.stranded sst.index sst.bloom store.tables malloc.free" '
    /^mem / {
        seen[$2] = 1
        if ($4 < 0 || $6 < 0 || $8 < 0) bad = bad " " $2
        real += $6
    }
    /^memory / { rss = $3 }
    END {
        n = split(want, rows, " ")
        for (i = 1; i <= n; i++) if (!(rows[i] in seen)) bad = bad " missing:" rows[i]
        if (bad != "") { print "FAIL: memory ledger rows:" bad > "/dev/stderr"; exit 1 }
        if (rss == 0 || real > rss) {
            print "FAIL: ledger rows hold " real " B against VmRSS " rss > "/dev/stderr"
            exit 1
        }
        printf "memory ledger: %d B of %d B resident attributed\n", real, rss
    }' "$TRACE_DIR/top.txt"
"$BIN" loadgen --addr "$ADDR" --ops 0 --shutdown
expect_clean_drain "$TRACE_DIR/durable.log" durable
if ! grep -q "^tree per stripe: block 4096 B, memtable 4096 KiB, sstable 4096 KiB, L1 40960 KiB$" "$TRACE_DIR/durable.log"; then
    echo "FAIL: the durable server is not running on the served tree" >&2
    exit 1
fi
# The recorded trace must summarize, including the serving section.
"$BIN" trace "$TRACE_DIR" | tee "$TRACE_DIR/summary.txt"
grep -q "serving: " "$TRACE_DIR/summary.txt"

echo "serve-smoke OK: $OPS ops over $CONNS connections + $BATCH_OPS batched ops over $BATCH_CONNS connections, zero protocol errors, clean drain"
