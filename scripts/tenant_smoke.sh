#!/usr/bin/env bash
# CI smoke test for multi-tenant serving: one hot tenant and three cold
# tenants share a live quota-enforcing server over loopback. The hot
# tenant's connections replay a scan-flood; the cold tenants run the
# normal mixed workload. Pass requires the wire to stay frame-clean
# (zero protocol errors, clean drain), the aggregated per-tenant quota
# to visibly engage (>= 1 TenantThrottled journal event), and the cold
# tenants' cache hit rate under attack to stay within BOUND_PP
# percentage points of the same load run with nobody attacking.
# Degradation *bounds* are measured by `adcache tenantcheck`; this
# script proves the machinery engages end-to-end over the wire.
set -euo pipefail
cd "$(dirname "$0")/.."

OPS="${OPS:-12000}"
KEYS="${KEYS:-4000}"
CONNS="${CONNS:-8}"
TENANTS="${TENANTS:-4}"
BOUND_PP="${BOUND_PP:-10}"

cargo build -p adcache-cli
source scripts/lib.sh

# Prints the value of one flat metric key from a metrics.json.
metric() {
    local v
    v=$(grep -o "\"$1\": *[0-9-]*" "$2" | head -1 | sed 's/.*: *//')
    echo "${v:-0}"
}

# Aggregated cold-tenant (ids >= 2) hit rate in whole percent.
cold_hit_pct() {
    local hits=0 misses=0 t
    for t in $(seq 2 "$TENANTS"); do
        hits=$((hits + $(metric "cache.tenant.$t.hits" "$1")))
        misses=$((misses + $(metric "cache.tenant.$t.misses" "$1")))
    done
    if [ $((hits + misses)) -eq 0 ]; then
        echo "FAIL: no cold-tenant cache traffic recorded in $1" >&2
        exit 1
    fi
    echo $((hits * 100 / (hits + misses)))
}

# One serve+loadgen round. $1 = trace dir; extra args go to loadgen
# (the hot tenant's attack). Tenant quota sized so the paced mixed load
# fits and a scan flood (257 tokens/op) overruns immediately.
run_round() {
    local trace_dir=$1
    shift
    start_server "$trace_dir/serve.log" --fill "$KEYS" --trace "$trace_dir" \
        --tenant-quota-ops 6000 --tenant-quota-burst 400
    "$BIN" loadgen \
        --addr "$ADDR" --ops "$OPS" --connections "$CONNS" \
        --keys "$KEYS" --mix mixed --tenants "$TENANTS" --skew 1:1 \
        "$@" --shutdown
    expect_clean_drain "$trace_dir/serve.log" "$trace_dir"
}

# Round 1 — solo baseline: every tenant runs the legit mixed workload.
SOLO_DIR="$(mktemp -d)"
run_round "$SOLO_DIR"
SOLO_COLD=$(cold_hit_pct "$SOLO_DIR/metrics.json")

# Round 2 — noisy neighbor: with equal skew over $CONNS connections,
# tenant 1 owns exactly the first CONNS/TENANTS connections — the same
# prefix the adversary fraction claims, so the attack and the hot
# tenant coincide.
NOISY_DIR="$(mktemp -d)"
run_round "$NOISY_DIR" \
    --adversary scan-flood --adversary-frac "$(awk "BEGIN{print 1/$TENANTS}")"
NOISY_COLD=$(cold_hit_pct "$NOISY_DIR/metrics.json")

if ! grep -q "TenantThrottled" "$NOISY_DIR/trace.jsonl"; then
    echo "FAIL: no TenantThrottled event — the aggregated quota never fired" >&2
    exit 1
fi
if ! grep -q "TenantBound" "$NOISY_DIR/trace.jsonl"; then
    echo "FAIL: no TenantBound event — connections never authenticated" >&2
    exit 1
fi

DROP=$((SOLO_COLD - NOISY_COLD))
echo "cold-tenant hit rate: solo ${SOLO_COLD}%, under attack ${NOISY_COLD}% (drop ${DROP}pp, bound ${BOUND_PP}pp)"
if [ "$DROP" -gt "$BOUND_PP" ]; then
    echo "FAIL: cold-tenant hit rate dropped ${DROP}pp under the noisy neighbor (bound ${BOUND_PP}pp)" >&2
    exit 1
fi

rm -rf "$SOLO_DIR" "$NOISY_DIR"
echo "tenant-smoke OK: $TENANTS tenants, 0 protocol errors, quota fired, cold hit rate within ${BOUND_PP}pp"
