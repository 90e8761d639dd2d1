#!/usr/bin/env bash
# CI smoke test for the telemetry plane: serve with stage tracing, lock
# accounting, and periodic snapshots on; drive load; then validate every
# export surface against its golden shape —
#
#   - METRICS opcode, Prometheus format: every line must match the text
#     exposition grammar, and the stage/requests series must be present;
#   - `adcache metrics --summary`: greppable stage breakdown plus the
#     engine lock-wait share;
#   - `adcache top`: two polled frames render over the wire;
#   - timeseries.jsonl: at least two snapshot lines, zero malformed
#     (each line must match the snapshot schema exactly);
#   - `adcache trace`: renders the stage-breakdown, lock-accounting, and
#     timeseries sections.
set -euo pipefail
cd "$(dirname "$0")/.."

OPS="${OPS:-20000}"
CONNS="${CONNS:-8}"
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

cargo build -p adcache-cli
source scripts/lib.sh

start_server "$TRACE_DIR/serve.log" --fill 5000 --trace "$TRACE_DIR" \
    --snapshot-ms 200 --slow-us 5000

"$BIN" loadgen \
    --addr "$ADDR" --ops "$OPS" --connections "$CONNS" \
    --keys 5000 --mix mixed

# --- METRICS opcode: Prometheus text exposition -------------------------
"$BIN" metrics --addr "$ADDR" --format prom \
    > "$TRACE_DIR/metrics.prom"
# Golden grammar: only `# TYPE` comments and `name value` samples, all
# under the adcache_ prefix (summaries may carry a quantile label).
if grep -vqE '^(# TYPE adcache_[a-zA-Z0-9_]+ (counter|gauge|summary)|adcache_[a-zA-Z0-9_]+(\{quantile="0\.[0-9]+"\})? [0-9]+(\.[0-9]+)?)$' \
    "$TRACE_DIR/metrics.prom"; then
    echo "FAIL: malformed Prometheus exposition lines:" >&2
    grep -vE '^(# TYPE adcache_[a-zA-Z0-9_]+ (counter|gauge|summary)|adcache_[a-zA-Z0-9_]+(\{quantile="0\.[0-9]+"\})? [0-9]+(\.[0-9]+)?)$' \
        "$TRACE_DIR/metrics.prom" | head >&2
    exit 1
fi
grep -q '^adcache_server_requests ' "$TRACE_DIR/metrics.prom"
grep -q '^# TYPE adcache_server_stage_total summary$' "$TRACE_DIR/metrics.prom"
grep -q '^# TYPE adcache_engine_lock_write_wait_ns counter$' "$TRACE_DIR/metrics.prom"

# --- stage summary over the wire ----------------------------------------
"$BIN" metrics --addr "$ADDR" --summary \
    | tee "$TRACE_DIR/summary_live.txt"
grep -qE '^stage engine_exec count [0-9]+ mean_us' "$TRACE_DIR/summary_live.txt"
grep -qE '^lock_wait_share_pct [0-9.]+$' "$TRACE_DIR/summary_live.txt"

# --- adcache top: two polled frames -------------------------------------
"$BIN" top --addr "$ADDR" \
    --interval-ms 300 --iterations 2 | tee "$TRACE_DIR/top.txt"
grep -q '^tree per stripe: block 4096 B, memtable ' "$TRACE_DIR/top.txt"
grep -q 'stage breakdown (interval)' "$TRACE_DIR/top.txt"
grep -qE 'tick 2' "$TRACE_DIR/top.txt"

"$BIN" loadgen --addr "$ADDR" --ops 0 --shutdown
expect_clean_drain "$TRACE_DIR/serve.log" telemetry

# --- timeseries.jsonl: golden snapshot schema, zero malformed lines -----
TS="$TRACE_DIR/timeseries.jsonl"
LINES=$(wc -l < "$TS")
if [ "$LINES" -lt 2 ]; then
    echo "FAIL: expected >= 2 timeseries snapshots, got $LINES" >&2
    exit 1
fi
if grep -vqE '^\{"seq":[0-9]+,"uptime_ms":[0-9]+,"interval_ms":[0-9]+,"counters":\{.*\},"gauges":\{.*\},"histograms":\{.*\}\}$' "$TS"; then
    echo "FAIL: malformed timeseries lines:" >&2
    grep -vE '^\{"seq":[0-9]+,"uptime_ms":[0-9]+,"interval_ms":[0-9]+,"counters":\{.*\},"gauges":\{.*\},"histograms":\{.*\}\}$' "$TS" | head >&2
    exit 1
fi

# --- trace rendering ----------------------------------------------------
"$BIN" trace "$TRACE_DIR" | tee "$TRACE_DIR/trace.txt"
grep -q 'stage breakdown (' "$TRACE_DIR/trace.txt"
grep -q 'engine lock accounting:' "$TRACE_DIR/trace.txt"
grep -q "timeseries: $LINES snapshots" "$TRACE_DIR/trace.txt"

echo "telemetry-smoke OK: $LINES snapshots, Prometheus grammar clean, top/summary/trace render"
