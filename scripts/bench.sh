#!/usr/bin/env bash
# Regenerates the two committed BENCH-v2 documents at the repo root, the
# ones that measure what the staircase benchmark (crates/e2e,
# BENCHMARK.json) has no probe for yet:
#
#   BENCH_hot.txt    perf_trajectory — ratios of the kernel hot path
#                     (reference fold vs compiled lane tree: single row,
#                     batched) and of the training hot path (blocked Gram
#                     build vs direct fold, SMO solve and one plan-level
#                     training with linalg's AVX2 twins on vs off, arena
#                     vs boxed featurization)
#   BENCH_drift.txt  drift_loop — drift detection / shadow-retrain /
#                     promotion lifecycle
#
# Throughput, latency, training time and memory are measured by
# `cargo run --release -p qpp-e2e -- --workload <name>`; its README holds
# the reference readings.
#
# Both documents are validated against the BENCH-v2 schema afterwards.
# Diff a fresh run against the committed baseline with:
#
#   ./target/release/bench_compare BENCH_hot.txt FRESH.txt --filter kernel/
#
# Usage: scripts/bench.sh [--profile-stages]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p qpp-bench"
cargo build --release -p qpp-bench

echo "==> perf_trajectory BENCH_hot.txt $*"
./target/release/perf_trajectory BENCH_hot.txt "$@"

echo "==> drift_loop BENCH_drift.txt"
timeout 600 ./target/release/drift_loop BENCH_drift.txt

echo "==> bench_compare --check-schema"
./target/release/bench_compare --check-schema BENCH_hot.txt BENCH_drift.txt
