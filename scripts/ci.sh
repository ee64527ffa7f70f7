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
# (ml::linalg; DESIGN.md §7's table has the numbers, and linalg's
# `force_scalar_toggle_routes_and_restores` fails if the twins stop
# dispatching on an AVX2 host). A new file on this list is a decision, not
# a side effect.
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

# A plan is what the optimizer's EXPLAIN prints; the ground truth the
# simulator runs on travels beside it (`Planned::truth`,
# `ExecutedQuery::truth`, one `NodeTruth` per node in pre-order). Who reads
# it is a decision: the planner that derives it, the simulator and the
# re-costing that run on it, EXPLAIN ANALYZE, the executed query and its
# actual-valued features, and the wire codec that carries it, plus the
# tests that check the truth model and the layout pins. A model that
# reads the truth would learn from what is unknown before a query runs.
# A file names it when it names `NodeTruth`, reads a `.truth` field or
# takes a `Planned` apart into its truth.
echo "==> truth gate: engine::{plan, planner, sim, recost, explain}, qpp::{dataset, features}, serve::codec and their tests only"
truth_files="$(grep -rlE 'NodeTruth|\.truth\b|Planned *\{[^}]*\btruth\b' crates src tests examples --include='*.rs' | grep -v '^crates/e2e/' | sort)"
if [ "$truth_files" != "crates/core/src/dataset.rs
crates/core/src/features.rs
crates/core/tests/feature_semantics.rs
crates/engine/src/explain.rs
crates/engine/src/plan.rs
crates/engine/src/planner.rs
crates/engine/src/recost.rs
crates/engine/src/sim.rs
crates/engine/tests/planner_behavior.rs
crates/serve/src/codec.rs
crates/serve/tests/codec_props.rs
examples/explain_analyze.rs
tests/column_ref.rs
tests/truth_validation.rs" ]; then
    echo "$truth_files"
    echo "FAIL: the files reading the ground truth are not exactly the agreed list"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# Every test binary of every crate but qpp-bench, once: tier-1's packages
# (the root's `default-members`, which a plain `cargo test -q` at the root
# runs too: every crate but qpp-bench and qpp-e2e) and the benchmark
# harness's own smoke suite. The pool, the worker queues, the TCP front
# door and the healer block on condition variables and sockets, so a lost
# wake-up or a deadlock shows up as a hang, not a failure; the one hard
# timeout (compiling is kept outside it; the run takes about a minute)
# turns a hang into a CI failure.
echo "==> cargo test -q --workspace --exclude qpp-bench (bounded time)"
cargo test -q --workspace --exclude qpp-bench --no-run
timeout 300 cargo test -q --workspace --exclude qpp-bench

# The examples are the README's walk-throughs. Clippy compiles them; this
# runs each once (under a second together), so an example whose library
# calls panic or hang fails here. Building is kept outside the timeout.
echo "==> examples: each runs once (bounded time)"
cargo build --release -q --examples
examples="$(git ls-files 'examples/*.rs' | xargs -n1 basename | sed 's/\.rs$//')"
timeout 300 bash -c 'set -e; for name; do
    echo "  $name"
    cargo run --release -q --example "$name" > /dev/null
done' _ $examples

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

# The frozen fuzz corpus (tests/data/codec_corpus.bin, replayed in tier-1
# by tests/codec_corpus.rs) is mutated request frames of the current wire
# format. Refreezing it is deterministic, so a codec change that did not
# refreeze it shows here as a diff instead of as a corpus of frames that
# all fail at the magic.
echo "==> fuzz corpus: a fresh freeze equals tests/data/codec_corpus.bin"
cargo test --release -q -p qpp-serve --test codec_props -- --ignored freeze_corpus
git diff --exit-code tests/data/codec_corpus.bin

# The scalar loops of linalg's three SMO primitives must keep passing with
# their AVX2 twins compiled out entirely (the non-x86 / no-AVX2
# configuration). Nothing else in the tree has a second side: the suites
# that still compare two are the scan properties, and the unit tests keep
# the portable build compiling; there the dispatch test asserts the twins
# are off. Whether they pay is DESIGN.md §7's table, not a gate.
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

echo "==> OK"
