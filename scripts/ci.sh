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

# An option exists when two callers set it differently (DESIGN.md §12 has
# the census). The environment is the one place an option can appear
# without a field or a signature changing, so reading it is gated like
# `unsafe`: `QPP_THREADS` in ml::par is the only variable the product
# reads. (crates/e2e is the frozen benchmark harness, not the product.)
echo "==> environment gate: ml::par only"
env_files="$(grep -rl 'env::var' crates/*/src src | grep -v '^crates/e2e/' | sort)"
if [ "$env_files" != "crates/ml/src/par.rs" ]; then
    echo "$env_files"
    echo "FAIL: the files reading the environment are not exactly ml::par"
    exit 1
fi

# Every product thread is one of four kinds, each named (`qpp-par-*`,
# `qpp-healer`, `qpp-net-*`, `qpp-serve-*`) so per-thread counters under
# /proc/self/task can attribute it. A fifth spawn site is a decision.
echo "==> thread gate: ml::par and serve's healer, net and tenant only"
thread_files="$(grep -rlE 'thread::(spawn|Builder|scope)' crates/*/src src | grep -v '^crates/e2e/' | sort)"
if [ "$thread_files" != "crates/ml/src/par.rs
crates/serve/src/healer.rs
crates/serve/src/net.rs
crates/serve/src/tenant.rs" ]; then
    echo "$thread_files"
    echo "FAIL: the files spawning threads are not exactly ml::par and serve::{healer, net, tenant}"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# Every test binary of every crate but qpp-bench, once: the root suites
# (tier-1), the kernel, arena and allocation identity suites of qpp-ml and
# qpp-core, the serve properties and the benchmark harness's own smoke
# suite. The pool, the worker queues, the TCP front door and the healer
# block on condition variables and sockets, so a lost wake-up or a
# deadlock shows up as a hang, not a failure; the one hard timeout
# (compiling is kept outside it; the run takes about a minute) turns a
# hang into a CI failure.
echo "==> cargo test -q --workspace --exclude qpp-bench (bounded time)"
cargo test -q --workspace --exclude qpp-bench --no-run
timeout 300 cargo test -q --workspace --exclude qpp-bench

# The paper gate: every Section 5 experiment on seeds 0-5 at the paper's
# scale, asserting who wins and where behaviour flips
# (crates/bench/tests/paper_shapes.rs), plus qpp-bench's unit tests.
# Release only: it takes about 40 s here, minutes in debug.
echo "==> paper gate: cargo test --release -q -p qpp-bench (bounded time)"
cargo test --release -q -p qpp-bench --no-run
timeout 300 cargo test --release -q -p qpp-bench

# The paper's numbers at seed 0 are committed (experiments_raw.txt, which
# EXPERIMENTS.md quotes), so a change that moves one shows it in its diff.
# `repro` is deterministic; regenerate the file with
# `cargo run --release -p qpp-bench --bin repro > experiments_raw.txt`.
echo "==> paper numbers: a fresh repro equals experiments_raw.txt"
cargo run --release -q -p qpp-bench --bin repro | diff experiments_raw.txt -

# The scalar loops of linalg's three SMO primitives must keep passing with
# their AVX2 twins compiled out entirely (the non-x86 / no-AVX2
# configuration). Nothing else in the tree has a second side: the suites
# that still compare two are the scan properties, and the unit tests keep
# the portable build compiling.
echo "==> force-scalar matrix line"
cargo test -q -p qpp-ml --features force-scalar --test smo_vector_props
cargo test -q -p qpp-ml --features force-scalar --test wss2_props
cargo test -q -p qpp-ml --features force-scalar --lib

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links rot silently when public items are deleted or made
# private; a stale link is a warning here and therefore a failure.
echo "==> rustdoc gate"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p qpp-rng -p qpp-tpch -p qpp-engine -p qpp-ml -p qpp-core -p qpp-serve -p qpp-bench

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
