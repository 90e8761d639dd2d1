#!/usr/bin/env bash
# Benchmark smoke: unit tests, then all four workloads at 1/50 scale, end to
# end and traced. Checks correctness (every reply verified, durability
# read-back) and that every metric named in BENCHMARK.json is still emitted
# — not speed. One CI job can run this file as it is.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --smoke --out benchmark/out/smoke.json
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --smoke --trace 1 --out benchmark/out/smoke-trace.json
echo "benchmark smoke: ok"
