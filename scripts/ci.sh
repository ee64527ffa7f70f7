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
# lifetime erasure (ml::par), and in ml::linalg the three calls into the
# `#[target_feature(enable = "avx2")]` wrappers of the SMO primitives,
# each made after `is_x86_feature_detected!("avx2")` (DESIGN.md §7 has
# what the AVX2 compilation buys; the codegen check below fails if a
# wrapper stops compiling to AVX2). A new file on this list is a decision,
# not a side effect.
echo "==> unsafe gate: ml::linalg and ml::par only"
unsafe_files="$(grep -rl unsafe crates/*/src src | sort)"
if [ "$unsafe_files" != "crates/ml/src/linalg.rs
crates/ml/src/par.rs" ]; then
    echo "$unsafe_files"
    echo "FAIL: the files containing 'unsafe' are not exactly ml::linalg and ml::par"
    exit 1
fi

# A SIMD path is one safe source compiled for a target feature, never a
# hand-written restatement in intrinsics: no product file names the
# `std::arch` vendor intrinsics, and only ml::linalg (the wrappers of its
# three SMO primitives) enables a target feature.
echo "==> intrinsics gate: no vendor intrinsics; #[target_feature] in ml::linalg only"
intrinsic_files="$(grep -rlE 'arch::x86_64|_mm256_|_mm_' crates/*/src src || true)"
if [ -n "$intrinsic_files" ]; then
    echo "$intrinsic_files"
    echo "FAIL: a file names vendor intrinsics"
    exit 1
fi
feature_files="$(grep -rl 'target_feature' crates/*/src src | sort)"
if [ "$feature_files" != "crates/ml/src/linalg.rs" ]; then
    echo "$feature_files"
    echo "FAIL: the files enabling a target feature are not exactly ml::linalg"
    exit 1
fi

# An RBF term is evaluated in one place: `ml::compiled::rbf_lanes`, the
# kernel of one row against one lane-packed block, which the Gram matrix's
# tiles and the serving lane tree both call (DESIGN.md §7, "Compiled
# inference path"). Nothing else in ml's product code takes an
# exponential, so its one `.exp()` outside `#[cfg(test)]` items and the
# test-only modules is that kernel's; a second copy of the kernel (or a
# second `exp` to keep in step with it) comes back only by editing this.
echo "==> RBF gate: one .exp() in ml's product code, in ml::compiled"
ml_test_mods="$(awk '/^#\[cfg\(test\)\]$/ { t = 1; next }
    t && /^mod [a-z_0-9]+;$/ { sub(/^mod /, ""); sub(/;$/, ""); print "crates/ml/src/" $0 ".rs" } { t = 0 }' crates/ml/src/lib.rs)"
rbf_sites="$(for file in crates/ml/src/*.rs; do
        grep -qxF "$file" <<< "$ml_test_mods" || echo "$file"
    done | xargs awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
        line = $0
        o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
        next
    }
    /\.exp\(\)|f64::exp\b/ { print FILENAME ":" FNR ":" $0 }')"
if [ "$(grep -c . <<< "$rbf_sites")" != 1 ] || ! grep -q '^crates/ml/src/compiled\.rs:' <<< "$rbf_sites"; then
    echo "$rbf_sites"
    echo "FAIL: ml's product code does not hold exactly one .exp(), the RBF kernel in ml::compiled"
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

# A fan-out is a decision with a cost: waking a parked worker, and the
# worker's own malloc arena (DESIGN.md §7, "Threading model" and "Memory:
# what the `ml::par` worker costs"). The `par_map` / `par_map_n` / `join2`
# call sites in each file outside ml::par are the ones §7's site table
# lists, counted here; a site that comes or goes edits both.
echo "==> fan-out gate: ml::par call sites per file, as DESIGN.md §7 lists them"
fanout_sites="$(grep -roE '\b(par_map|par_map_n|join2)\(' crates/*/src src \
    | cut -d: -f1 | grep -v -e '^crates/e2e/' -e '^crates/ml/src/par.rs$' \
    | LC_ALL=C sort | uniq -c | awk '{ print $2, $1 }')"
if [ "$fanout_sites" != "crates/bench/src/lib.rs 1
crates/core/src/dataset.rs 1
crates/core/src/hybrid.rs 1
crates/core/src/online.rs 1
crates/core/src/op_model.rs 1
crates/core/src/plan_model.rs 1
crates/core/src/predictor.rs 1
crates/ml/src/cv.rs 1" ]; then
    echo "$fanout_sites"
    echo "FAIL: the ml::par call sites per file are not the list DESIGN.md §7 agrees"
    exit 1
fi

# What a process keeps between calls is a decision: every `static` and
# `thread_local!` under crates/*/src and src outside the frozen
# crates/e2e, listed per file by name as DESIGN.md §7 ("What a process
# keeps") lists them. Training scratch is owned by the fit that uses it
# (ml::gram), so a buffer parked in a global for the next fit comes back
# only by editing both lists.
echo "==> process-state gate: statics and thread-locals per file, as DESIGN.md §7 lists them"
state_decls="$(grep -roE '^ *(pub(\([a-z]+\))? +)?(thread_local! *[({] *)?static +(mut +)?[A-Z_][A-Z0-9_]* *:' crates/*/src src \
    | grep -v '^crates/e2e/' \
    | sed -E 's/^([^:]*):.*static +(mut +)?([A-Z_][A-Z0-9_]*) *:$/\1 \3/' \
    | LC_ALL=C sort \
    | awk '$1 != file { if (file != "") print line; file = $1; line = $1 } { line = line " " $2 }
        END { if (file != "") print line }')"
if [ "$state_decls" != "crates/core/src/plan_model.rs BUFFERS
crates/ml/src/gram.rs GLOBAL
crates/ml/src/par.rs DEFAULT ON_WORKER POOL THREADS_LOCK THREAD_OVERRIDE
crates/serve/src/codec.rs PLAN
crates/tpch/src/distributions.rs BY_START P" ]; then
    echo "$state_decls"
    echo "FAIL: the statics and thread-locals per file are not the list DESIGN.md §7 agrees"
    exit 1
fi

# The hybrid's prediction memo is read and written in one place: the
# whole-plan lookup of `HybridModel::predict_memo_with`, in front of the
# one composition walk (DESIGN.md §7, "The prediction memo"). A second
# memoized walk beside the first would be a second copy of the
# composition; it comes back only by editing this list and §7's.
echo "==> memo gate: PredictionCache get/insert in qpp::hybrid only, one site each"
memo_sites="$(grep -roE '\bcache\.(get|insert)\(' crates/*/src src \
    | grep -v -e '^crates/e2e/' -e '^crates/core/src/pred_cache.rs:' \
    | LC_ALL=C sort | uniq -c | awk '{ print $2, $1 }')"
if [ "$memo_sites" != "crates/core/src/hybrid.rs:cache.get( 1
crates/core/src/hybrid.rs:cache.insert( 1" ]; then
    echo "$memo_sites"
    echo "FAIL: the prediction memo's call sites are not exactly one get and one insert in qpp::hybrid"
    exit 1
fi

# A batch is served in two places: the tenant worker loop, and the thread
# that asked (a blocking `predict` on an idle server, a removed tenant's
# drained lane), which applies the same stall, snapshot and ledger
# (DESIGN.md §10, "The caller serves when it can"). A third server of
# batches would be a second copy of that contract. A queued request's
# answer travels through a one-slot hand-off, one allocation, not a
# `mpsc` channel (two allocations, 1.76 KiB, for a 32-byte answer).
echo "==> serving gate: serve_batch called by the worker loop and the caller path only; no mpsc reply"
serve_sites="$(grep -rnE '\bserve_batch\(' crates/*/src src | grep -v -e '^crates/e2e/' -e 'fn serve_batch(' \
    | cut -d: -f1,2 | while IFS=: read -r file line; do
        enclosing="$(head -n "$line" "$file" | grep -oE '\bfn [a-z_0-9]+' | tail -n 1)"
        echo "$file $enclosing"
    done | LC_ALL=C sort)"
if [ "$serve_sites" != "crates/serve/src/tenant.rs fn serve_on_caller
crates/serve/src/tenant.rs fn tenant_worker_loop" ]; then
    echo "$serve_sites"
    echo "FAIL: serve_batch's call sites are not exactly the worker loop and the caller path"
    exit 1
fi
if grep -nE 'mpsc' crates/serve/src/server.rs crates/serve/src/tenant.rs; then
    echo "FAIL: serve's reply path uses an mpsc channel"
    exit 1
fi

# An error message crosses the wire as a string and is interned on decode
# against the codec's tables (serve::codec's INTERNAL_MESSAGES and
# INVALID_PARAM_MESSAGES); one the tables lack decodes as "unrecognized …
# from peer". So the tables list exactly the `QppError::Internal("…")` and
# `MlError::InvalidParameter("…")` literals the product raises: every
# product file under crates/*/src outside the frozen crates/e2e, skipping
# `#[cfg(test)]` items and the test-only modules a lib.rs declares.
echo "==> message gate: the codec's message tables are the Internal and InvalidParameter messages raised"
test_mods="$(for lib in crates/*/src/lib.rs; do
        awk -v dir="${lib%lib.rs}" '/^#\[cfg\(test\)\]$/ { t = 1; next }
            t && /^mod [a-z_0-9]+;$/ { sub(/^mod /, ""); sub(/;$/, ""); print dir $0 ".rs" } { t = 0 }' "$lib"
    done)"
raised="$(git ls-files 'crates/*/src/*.rs' | grep -v '^crates/e2e/' | grep -vxF "$test_mods" | xargs awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
        line = $0
        o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
        next
    }
    { print }' | perl -0777 -ne 'print "$1 $2\n" while /\b(Internal|InvalidParameter)\(\s*"([^"]*)"/g' \
    | LC_ALL=C sort -u)"
tables="$(perl -0777 -ne 'for my $t (["INTERNAL_MESSAGES", "Internal"], ["INVALID_PARAM_MESSAGES", "InvalidParameter"]) {
        next unless /const $t->[0]: \[&str; \d+\] = \[(.*?)\];/s;
        my $list = $1;
        print "$t->[1] $1\n" while $list =~ /"([^"]*)"/g;
    }' crates/serve/src/codec.rs | LC_ALL=C sort -u)"
if [ -z "$tables" ] || [ "$raised" != "$tables" ]; then
    diff <(echo "$tables") <(echo "$raised") | sed -e 's/^>/  raised but not in a table:/' -e 's/^</  in a table but never raised:/' | grep '^  '
    echo "FAIL: the codec's message tables are not exactly the messages the product raises"
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
tests/all/column_ref.rs
tests/all/plan_equivalence.rs
tests/all/truth_validation.rs" ]; then
    echo "$truth_files"
    echo "FAIL: the files reading the ground truth are not exactly the agreed list"
    exit 1
fi

# A plan is one pre-order slice whose nodes carry their subtree lengths
# (engine::plan). Only engine::plan writes a `PlanNode { … }` literal: the
# planner, the codec and the tests build plans through its `PlanBuilder`,
# which sets the lengths, so a hand-built node cannot break the layout.
# (The length field is private, so such a literal would not compile
# either; this names the rule where it is broken.)
echo "==> plan gate: PlanNode literals in engine::plan only"
plan_literals="$(grep -rnE '\bPlanNode *\{' crates src tests examples --include='*.rs' \
    | grep -v -e '^crates/e2e/' -e '^crates/engine/src/plan.rs:' \
    | grep -vE '(->|impl|struct) *PlanNode *\{' || true)"
if [ -n "$plan_literals" ]; then
    echo "$plan_literals"
    echo "FAIL: a PlanNode literal outside engine::plan; build plans with PlanBuilder"
    exit 1
fi

# The public surface is what callers call (DESIGN.md §12, "The public
# surface"). A `pub` item hides dead code from rustc's dead_code lint, so
# every `pub` fn, method, const, static and type of the five product
# crates has a use outside its crate (another product crate, qpp-bench,
# the frozen crates/e2e, or the root src, tests and examples), or it is a
# row of §12's exception table, which says who needs it. A crate's own
# integration tests do not count: what only they reach is a unit test's.
# scripts/census.sh asks the compiler, so a method counts by its path, not
# by a name another item shares. (`#![warn(unreachable_pub)]` in each
# lib.rs keeps the private modules honest; this keeps the public ones.)
echo "==> census gate: every pub item of ml, engine, core, serve and tpch has a use outside its crate, or a DESIGN.md §12 row"
scripts/census.sh

# Each integration-test binary links the whole workspace once, so a new
# test binary is a decision, like a new `unsafe` file. A suite gets a
# binary of its own when it needs the whole process (a counting global
# allocator, or a count of the process's threads by name); core's and
# serve's two suites each share no helper and stay apart too. The root's
# other suites are modules of `tests/all`, and only its four process-wide
# suites include `tests/all/support.rs` with `#[path]`. crates/e2e, the
# frozen benchmark harness, is not counted.
echo "==> test-target gate: the integration-test binaries are the agreed list"
test_targets="$(for file in tests/*.rs tests/*/main.rs crates/*/tests/*.rs crates/*/tests/*/main.rs; do
        if [ -e "$file" ]; then echo "$file"; fi
    done | grep -v '^crates/e2e/' | LC_ALL=C sort)"
if [ "$test_targets" != "crates/bench/tests/paper_shapes.rs
crates/core/tests/feature_semantics.rs
crates/core/tests/model_behavior.rs
crates/core/tests/stays_on_its_thread.rs
crates/engine/tests/planner_behavior.rs
crates/ml/tests/gram_blocked_props.rs
crates/ml/tests/train_memory.rs
crates/ml/tests/zero_alloc.rs
crates/serve/tests/codec_props.rs
crates/serve/tests/tenant_props.rs
crates/tpch/tests/template_properties.rs
tests/all/main.rs
tests/model_storage.rs
tests/prediction_allocations.rs
tests/serve_threads.rs
tests/training_allocations.rs" ]; then
    echo "$test_targets"
    echo "FAIL: the integration-test binaries are not exactly the agreed list; a suite that can share a process joins its crate's binary"
    exit 1
fi
support_includes="$(grep -rlF '#[path = "all/support.rs"]' tests crates src examples --include='*.rs' \
    | grep -v '^crates/e2e/' | LC_ALL=C sort || true)"
if [ "$support_includes" != "tests/model_storage.rs
tests/prediction_allocations.rs
tests/serve_threads.rs
tests/training_allocations.rs" ]; then
    echo "$support_includes"
    echo "FAIL: only the four process-wide root suites include tests/all/support.rs with #[path]"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# Every test binary of every crate but qpp-bench, once: tier-1's packages
# (the root's `default-members`, which a plain `cargo test -q` at the root
# runs too: every crate but qpp-bench and qpp-e2e) and the benchmark
# harness's own smoke suite. The root's merged suite (tests/all) includes
# the paper at seed 0: its `paper_repro` module runs a release `repro`,
# which checks the paper's orderings, and compares the output with the
# committed experiments_raw.txt. The pool, the worker queues, the TCP front
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

# The frozen fuzz corpus (tests/data/codec_corpus.bin, replayed in tier-1
# by tests/all/codec_corpus.rs) is mutated request frames of the current wire
# format. Refreezing it is deterministic, so a codec change that did not
# refreeze it shows here as a diff instead of as a corpus of frames that
# all fail at the magic.
echo "==> fuzz corpus: a fresh freeze equals tests/data/codec_corpus.bin"
cargo test --release -q -p qpp-serve --test codec_props -- --ignored freeze_corpus
git diff --exit-code tests/data/codec_corpus.bin

# Each of linalg's three SMO primitives is one `#[inline(always)]` lane
# body, compiled for the baseline target and again inside a
# `#[target_feature(enable = "avx2")]` wrapper that runs on AVX2 hosts.
# Nothing in the language makes the body inline into its wrapper; if it
# stays out of line, the wrapper calls the baseline compilation and AVX2
# buys nothing without any test noticing (both compilations give the same
# bits, which the `ml::linalg` unit tests check). So every wrapper in the
# release build of `qpp-ml`'s unit tests must contain ymm instructions,
# and that build's linalg tests run too: the debug suites above compare
# the two compilations unvectorized.
if [ "$(uname -m)" = x86_64 ]; then
    echo "==> AVX2 codegen: linalg's three wrappers use ymm registers"
    cargo test --release -q -p qpp-ml --lib --no-run
    ml_tests="$(cargo test --release -p qpp-ml --lib --no-run --message-format=json 2>/dev/null \
        | grep -o '"executable":"[^"]*"' | cut -d'"' -f4)"
    ymm_counts="$(objdump -d --no-show-raw-insn -C "$ml_tests" | awk '
        /^[0-9a-f]+ <.*>:$/ {
            sym = ""
            if (match($0, /<ml::linalg::[a-z_]+_avx2/)) {
                sym = substr($0, RSTART + 1, RLENGTH - 1)
                n++
                name[n] = sym
                ymm[n] = 0
            }
            next
        }
        sym != "" && /%ymm/ { ymm[n]++ }
        END { for (i = 1; i <= n; i++) print name[i], ymm[i] }')"
    echo "$ymm_counts"
    for primitive in grad_pair_update scan_violating scan_second_order; do
        if ! grep -q "^ml::linalg::${primitive}_avx2 " <<< "$ymm_counts" \
            || grep -q "^ml::linalg::${primitive}_avx2 0$" <<< "$ymm_counts"; then
            echo "FAIL: ml::linalg::${primitive}_avx2 is missing or has no ymm instruction"
            exit 1
        fi
    done
    "$ml_tests" -q linalg::
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links rot silently when public items are deleted or made
# private; a stale link is a warning here and therefore a failure.
echo "==> rustdoc gate"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p qpp-rng -p qpp-tpch -p qpp-engine -p qpp-ml -p qpp-core -p qpp-serve -p qpp-bench

echo "==> OK"
