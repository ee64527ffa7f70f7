#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from anywhere; operates on the
# workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# One dependency graph: every dependency of every manifest is a path crate
# of this workspace. No session has a registry, so a version requirement
# would stop `cargo build` at resolution. (crates/e2e/stubs is the frozen
# benchmark's patch set; nothing it patches is depended on any more.)
echo "==> dependency gate: path crates only"
foreign="$(git ls-files '*Cargo.toml' | grep -v '^crates/e2e/stubs/' | xargs awk '
    /^\[/ { deps = ($0 ~ /dependencies/); next }
    deps && NF && $0 !~ /^#/ && $0 !~ /^qpp-[a-z]+(\.workspace = true| = \{ path = "[^"]+" \})$/ {
        print FILENAME ": " $0
    }')"
if [ -n "$foreign" ]; then
    echo "$foreign"
    echo "FAIL: a dependency that is not a path crate of this workspace"
    exit 1
fi

# `unsafe` is allowed where it buys something measured: the pool's
# lifetime erasure (ml::par) and the AVX2 twins of the three SMO scans
# (ml::linalg; DESIGN.md §7 has the numbers). A new file on this list is a
# decision, not a side effect.
echo "==> unsafe gate: ml::linalg and ml::par only"
unsafe_files="$(grep -rl unsafe crates/*/src src | sort)"
if [ "$unsafe_files" != "crates/ml/src/linalg.rs
crates/ml/src/par.rs" ]; then
    echo "$unsafe_files"
    echo "FAIL: the files containing 'unsafe' are not exactly ml::linalg and ml::par"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> kernel + arena identity gates"
cargo test -q -p qpp-ml --test simd_props
cargo test -q -p qpp-ml --test compiled_props
cargo test -q -p qpp-ml --test gram_blocked_props
cargo test -q -p qpp-ml --test smo_vector_props
cargo test -q -p qpp-ml --test wss2_props
cargo test -q -p qpp-ml --test zero_alloc
cargo test -q -p qpp-ml --test train_memory
# A process of its own: a fit, and a serve-sized batch, start no pool worker.
cargo test -q -p qpp-core --test stays_on_its_thread
cargo test -q -p qpp-core --test arena_props

# The scalar loops of linalg's three SMO primitives must keep passing with
# their AVX2 twins compiled out entirely (the non-x86 / no-AVX2
# configuration). Nothing else in the tree has a second side: the suites
# that still compare two are the scan properties, and the unit tests keep
# the portable build compiling.
echo "==> force-scalar matrix line"
cargo test -q -p qpp-ml --features force-scalar --test smo_vector_props
cargo test -q -p qpp-ml --features force-scalar --test wss2_props
cargo test -q -p qpp-ml --features force-scalar --lib

# ml::par's workers park on a condition variable between fan-outs, so a
# lost wake-up or a miscounted worker shows up as a hang, not a failure.
# A hard timeout turns that hang into a CI failure.
echo "==> ml::par pool tests (bounded time)"
timeout 60 cargo test -q -p qpp-ml --lib par::

echo "==> cargo test -q --test parallel_determinism"
cargo test -q --test parallel_determinism

echo "==> cargo test -q --test batch_determinism"
cargo test -q --test batch_determinism

echo "==> cargo test -q --test drift_recovery"
cargo test -q --test drift_recovery

echo "==> cargo test -q -p qpp-core registry materialize monitor"
cargo test -q -p qpp-core registry
cargo test -q -p qpp-core materialize
cargo test -q -p qpp-core monitor

# Serving-layer stress gate: the overload and hot-swap suites exercise
# blocking queues and worker pools, so a deadlock shows up as a hang, not
# a failure. A hard timeout turns that hang into a CI failure.
echo "==> serve stress gate (bounded time)"
timeout 300 cargo test -q --test serve_overload
timeout 300 cargo test -q --test swap_under_load
timeout 300 cargo test -q -p qpp-serve

# Noisy-neighbor stress gate: a seeded one-hot tenant burst must shed at
# the hot tenant's bulkhead while the quiet tenant keeps its deadline
# budget, and the SLO -> drift healing loop must promote per tenant. The
# suite is seeded and bounded: a hang (worker deadlock, starved lane) is a
# failure, not a stall.
echo "==> tenant noisy-neighbor stress gate (bounded time)"
timeout 60 cargo test -q --test tenant_isolation

# Network-chaos gate: seeded wire faults (partial writes, mid-frame
# disconnects, corrupted frames, slowloris stalls) against the TCP front
# door must leave the quiet tenant bit-identical, kill no worker, and
# reconcile the drain ledger exactly. Seeded and bounded: a hang (stuck
# acceptor, un-evicted slow client, lost drain count) is a CI failure.
echo "==> network chaos gate (bounded time)"
timeout 60 cargo test -q --test net_chaos
timeout 60 cargo test -q --test healer_supervision
timeout 60 cargo test -q -p qpp-serve --test codec_props

# The staircase benchmark's own smoke suite (< 2 s of tests): a change to
# ml::par or tpch that breaks the benchmark harness fails here and not in
# the benchmark driver.
echo "==> e2e smoke suite"
cargo test -q -p qpp-e2e

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links rot silently when public items are deleted or made
# private; a stale link is a warning here and therefore a failure.
echo "==> rustdoc gate"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p qpp-tpch -p qpp-engine -p qpp-ml -p qpp-core -p qpp-serve

# Hot-path contract: both committed bench documents must parse as
# BENCH-v2, and a fresh kernel run must stay inside the noise band of the
# committed baseline. The gate diffs the speedup ratios (compiled vs
# in-binary unblocked baseline), which self-normalize across host speeds;
# absolute rows/s stay informational. Throughput, latency and training
# time are the staircase benchmark's (crates/e2e), not gated here.
echo "==> BENCH-v2 schema check"
cargo build --release -p qpp-bench
./target/release/bench_compare --check-schema BENCH_hot.txt BENCH_drift.txt

# One fresh hot-path run feeds two self-normalizing ratio gates: the
# inference kernel against the reference fold, and the end-to-end
# scalar-vs-vectorized training speedup (bench_compare takes one filter
# prefix per invocation).
echo "==> hot-path perf regression gates"
fresh_bench="$(mktemp /tmp/bench_hot.XXXXXX.txt)"
trap 'rm -f "$fresh_bench"' EXIT
./target/release/perf_trajectory "$fresh_bench"
./target/release/bench_compare BENCH_hot.txt "$fresh_bench" --noise 0.4 --filter kernel/speedup
./target/release/bench_compare BENCH_hot.txt "$fresh_bench" --noise 0.4 --filter train/vectorized_speedup

echo "==> OK"
