//! What a workload holds, what a training allocates and what it leaves.
//!
//! Operator-level training pushes each plan node's feature row straight
//! into its operator type's matrix, allocated once at its size, and
//! forward selection scores a linear candidate from normal equations
//! built once per fold, so the blocks `OpLevelModel::train` allocates do
//! not grow with the number of queries. A whole `QppPredictor::train` on
//! the benchmark fixture's log stays under a ceiling set from its
//! measurement, and once its predictor is dropped it leaves the heap
//! where it found it: no Gram matrix or other training scratch stays. A
//! workload holds its instances' parameter draws, not their plans, and a
//! logged query holds its plan in one block, not one per node. The
//! counting `#[global_allocator]` (`counting_alloc`) counts each thread's
//! blocks, the blocks and bytes it has live (allocated less freed), and
//! the bytes the whole process has live; every test holds one lock, so no
//! other test's heap is counted, and the training tests pin their thread
//! count.

#[allow(dead_code)]
mod counting_alloc;
#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use counting_alloc::{ALLOCS, LIVE, LIVE_BLOCKS, PROCESS_LIVE};
use engine::Catalog;
use qpp::{ExecutedQuery, OpLevelModel, OpModelConfig, QppConfig, QppPredictor, QueryDataset};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use support::quiet_sim;
use tpch::Workload;

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the lock every test of this binary runs under.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Blocks `f` allocates with one thread, all of them on this one.
fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let _guard = serial();
    ml::par::set_threads(1);
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    let blocks = ALLOCS.with(Cell::get) - before;
    ml::par::set_threads(0);
    blocks
}

/// The benchmark fixture's templates (`crates/e2e`, and
/// `tests/all/golden_snapshot.rs`), at sf 0.1.
const TEMPLATES: [u8; 7] = [1, 3, 5, 6, 10, 12, 14];

/// The benchmark fixture's training log: `per_template` queries of each
/// of its templates.
fn fixture_log(per_template: usize) -> QueryDataset {
    let workload = Workload::generate(&TEMPLATES, per_template, 0.1, 42);
    QueryDataset::execute(
        &Catalog::new(0.1, 1),
        &workload,
        &quiet_sim(),
        42,
        f64::INFINITY,
    )
}

#[test]
fn op_level_training_allocates_no_more_for_twice_the_queries() {
    let log = fixture_log(20);
    let all: Vec<&ExecutedQuery> = log.queries.iter().collect();
    // The log is template-major, 20 queries a template: its first half is
    // the first 10 of each.
    let half: Vec<&ExecutedQuery> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 20 < 10)
        .map(|(_, q)| *q)
        .collect();
    let train = |queries: &[&ExecutedQuery]| {
        allocations_of(|| OpLevelModel::train(queries, &OpModelConfig::default()).expect("trains"))
    };
    let (once, doubled) = (train(&half), train(&all));
    // Rows cost no blocks of their own. What a training allocates
    // follows the candidates its selections score: 5.7-6.0 k blocks on 35
    // to 280 queries of this log, where copying every candidate's columns
    // and each fold's rows grew by about 18 blocks a query (11.8 k on the
    // half, 13.0 k here). The slack is what one more doubling of each
    // type's rows, start and run times would cost.
    const SLACK: usize = 3 * engine::ALL_OP_TYPES.len();
    assert!(
        doubled <= once + SLACK,
        "{} queries: {once} blocks; {}: {doubled}",
        half.len(),
        all.len()
    );
}

#[test]
fn a_fixture_training_stays_under_its_ceiling() {
    let log = fixture_log(20);
    let refs: Vec<&ExecutedQuery> = log.queries.iter().collect();
    let blocks =
        allocations_of(|| QppPredictor::train(&refs, QppConfig::default()).expect("trains"));
    // Measured 10.7 k blocks (plan level 3.6 k, operator level 5.9 k,
    // hybrid 1.2 k). Copying every candidate's columns and each fold's
    // rows made 18.3 k, of which operator level 13.0 k.
    const CEILING: usize = 11_000;
    assert!(blocks <= CEILING, "{blocks} blocks, ceiling {CEILING}");
}

/// The fixture pool's workload: 100 instances of each template.
fn fixture_pool_workload() -> Workload {
    Workload::generate(&TEMPLATES, 100, 0.1, 42 ^ 0x9001)
}

#[test]
fn a_workload_holds_its_draws() {
    let _guard = serial();
    // Anything a template computes once and keeps is not the workload's.
    drop(fixture_pool_workload());
    let before = LIVE.with(Cell::get);
    let workload = fixture_pool_workload();
    let held = LIVE.with(Cell::get) - before;
    let per_instance = held as f64 / workload.queries.len() as f64;
    // A draw is 48 B. An instance that kept its parameter strings and
    // logical plan held 924 B.
    assert!(per_instance <= 64.0, "{per_instance:.1} B per instance");
}

#[test]
fn a_logged_query_is_a_few_blocks() {
    let _guard = serial();
    ml::par::set_threads(1);
    // Anything collection computes once and keeps is not the log's.
    drop(fixture_log(20));
    let (blocks, bytes) = (LIVE_BLOCKS.with(Cell::get), LIVE.with(Cell::get));
    let log = fixture_log(20);
    let blocks = (LIVE_BLOCKS.with(Cell::get) - blocks) as f64 / log.queries.len() as f64;
    let bytes = (LIVE.with(Cell::get) - bytes) as f64 / log.queries.len() as f64;
    ml::par::set_threads(0);
    // Measured 5.72 blocks and 1 218 B a query: one block each for the
    // plan, its truth and the trace's two per-node records, and 1.72 for
    // the scans' filters. A plan boxed node by node read 10.15 blocks and
    // 1 348 B.
    assert!(blocks <= 6.0, "{blocks:.2} blocks a query");
    assert!(bytes <= 1250.0, "{bytes:.0} B a query");
}

/// Live bytes, process-wide, that a fixture training leaves once its
/// predictor is dropped, at `threads`. A warm-up training on the log's
/// first half comes first: it starts the pool's workers and builds what
/// a process builds once, and every matrix it needs is smaller than the
/// full log's, so a buffer it kept could not hold the second training's.
fn heap_left_by_a_training(threads: usize) -> isize {
    let _guard = serial();
    ml::par::set_threads(threads);
    let log = fixture_log(20);
    let all: Vec<&ExecutedQuery> = log.queries.iter().collect();
    // Template-major, 20 a template: the first 10 of each.
    let half: Vec<&ExecutedQuery> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 20 < 10)
        .map(|(_, q)| *q)
        .collect();
    drop(QppPredictor::train(&half, QppConfig::default()).expect("trains"));
    let before = PROCESS_LIVE.load(Ordering::Relaxed);
    drop(QppPredictor::train(&all, QppConfig::default()).expect("trains"));
    let left = PROCESS_LIVE.load(Ordering::Relaxed) - before;
    ml::par::set_threads(0);
    left
}

#[test]
fn a_dropped_training_leaves_the_heap_where_it_was() {
    // Measured: 0 B at one thread, 0-576 B at two. Keeping each
    // thread's last Gram buffer and the rows it was built from left
    // 154 112 B at one thread.
    const SLACK: isize = 4 << 10;
    for threads in [1, 2] {
        let left = heap_left_by_a_training(threads);
        assert!(
            left <= SLACK,
            "{threads} thread(s): {left} bytes left live, slack {SLACK}"
        );
    }
}
