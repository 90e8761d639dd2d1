#!/usr/bin/env bash
# CI smoke test for adversarial robustness: for every attack generator,
# run a blended hostile/legit load against a live quota-enforcing server
# and require that the server survives it like any other traffic — zero
# panics, zero protocol errors, a clean graceful drain — and that at
# least one defense (quota throttle or sketch-guard re-salt) visibly
# activated in the journal. Degradation *bounds* are measured by
# `adcache advcheck`; this script only proves the machinery engages
# end-to-end over the wire.
set -euo pipefail
cd "$(dirname "$0")/.."

OPS="${OPS:-10000}"
CONNS="${CONNS:-4}"
KEYS="${KEYS:-4000}"
KINDS="${KINDS:-scan-flood one-hit-wonder key-churn sketch-collision}"

cargo build -p adcache-cli
source scripts/lib.sh

for KIND in $KINDS; do
    TRACE_DIR="$(mktemp -d)"

    start_server "$TRACE_DIR/serve.log" --fill "$KEYS" --trace "$TRACE_DIR" \
        --quota-ops 2000 --quota-burst 100

    # Half the connections replay the attack, half stay legit. The
    # loadgen exits nonzero on any lost / misordered / undecodable
    # reply, so hostile traffic must never corrupt the protocol stream —
    # quota rejections come back as ordinary Err replies and land in the
    # per-cause error accounting instead of aborting the run.
    "$BIN" loadgen \
        --addr "$ADDR" --ops "$OPS" --connections "$CONNS" \
        --keys "$KEYS" --mix mixed \
        --adversary "$KIND" --adversary-frac 0.5 --shutdown

    expect_clean_drain "$TRACE_DIR/serve.log" "$KIND"
    # A defense must have engaged: quota throttling, a sketch-guard
    # re-salt, or an explicit adversary detection in the journal.
    if ! grep -qE "QuotaThrottled|SketchReset|AdversaryDetected" \
        "$TRACE_DIR/trace.jsonl"; then
        echo "FAIL($KIND): no defense activation event in the journal" >&2
        exit 1
    fi

    rm -rf "$TRACE_DIR"
    echo "adversary-smoke OK: $KIND ($OPS ops, 0 protocol errors, clean drain, defenses engaged)"
done

echo "adversary-smoke OK: all kinds survived"
