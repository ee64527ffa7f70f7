//! What a prediction allocates does not grow with the number of
//! predictions.
//!
//! `QppPredictor::predict_checked_batch_cached` walks every plan where it
//! stands: views and structure hashes live in the thread's
//! reusable `PredictBuffers`, and feature rows are arrays. So once the
//! buffers have grown to the largest plan, a batch allocates a fixed number
//! of blocks (its result vectors) whether it holds 16 queries or 256, on
//! either feature source. The hybrid tier's model-set signature is computed
//! where the predictor is built, so a hybrid batch allocates no more than a
//! plan-level one. Progressive prediction is the same walk with
//! observations overlaid. A counting `#[global_allocator]` counts each
//! thread's blocks; the tests hold one lock, so the thread count the first
//! pins does not move under the second.

use engine::{Catalog, PlanNode, Simulator};
use qpp::progressive::Observations;
use qpp::{
    observations_at, predict_progressive, ExecutedQuery, FeatureSource, HybridModel, Method,
    NodeView, OpModelConfig, PlanModelConfig, PlanOrdering, PredictionCache, QppConfig,
    QppPredictor, QueryDataset,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use tpch::Workload;

struct CountingAlloc;

thread_local! {
    /// Blocks this thread allocated.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Blocks `f` allocates on the calling thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// The training log both tests predict.
fn log() -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 5, 6, 10, 14], 6, 0.1, 7);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
}

#[test]
fn a_checked_batch_allocates_the_same_for_16_queries_as_for_256() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // One thread: the batch runs on the caller, and no pool worker
    // allocates on the side.
    ml::par::set_threads(1);
    let ds = log();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let large: Vec<&ExecutedQuery> = refs.iter().cycle().take(256).copied().collect();
    let small = &large[..16];
    let actual = QppConfig {
        plan: PlanModelConfig {
            source: FeatureSource::Actual,
            ..PlanModelConfig::default()
        },
        op: OpModelConfig {
            source: FeatureSource::Actual,
            ..OpModelConfig::default()
        },
        ..QppConfig::default()
    };
    for config in [QppConfig::default(), actual] {
        let source = config.plan.source;
        let qpp = QppPredictor::train(&refs, config).expect("training");
        // A one-entry cache evicts on every new plan, so the hybrid tier
        // walks each plan instead of answering it from the cache, and the
        // map never grows past its first allocation.
        let cache = PredictionCache::new(1);
        let mut blocks = Vec::new();
        for method in [
            Method::PlanLevel,
            Method::OperatorLevel,
            Method::Hybrid(PlanOrdering::ErrorBased),
        ] {
            // Warm-up: grows the buffers.
            let warm = qpp.predict_checked_batch_cached(&large, method, &cache);
            assert!(
                warm.iter().all(|p| !p.degraded),
                "{source:?} {method:?}: clean inputs"
            );
            let for_small =
                allocations_of(|| qpp.predict_checked_batch_cached(small, method, &cache));
            let for_large =
                allocations_of(|| qpp.predict_checked_batch_cached(&large, method, &cache));
            assert_eq!(
                for_small, for_large,
                "{source:?} {method:?}: 16 queries allocated {for_small} blocks, 256 allocated {for_large}"
            );
            blocks.push(for_large);
        }
        let (plan, hybrid) = (blocks[0], blocks[2]);
        assert!(
            hybrid <= plan,
            "{source:?}: a hybrid batch allocated {hybrid} blocks, a plan-level one {plan}"
        );
    }
    ml::par::set_threads(0);
}

#[test]
fn progressive_prediction_allocates_the_same_for_16_inputs_as_for_256() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let ds = log();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    let source = qpp.hybrid.op_model.source();
    // Each input is a plan, its views and what was observed at half its
    // latency, built before anything is counted.
    let half_run = |q: &ExecutedQuery| observations_at(&q.trace, q.latency() * 0.5);
    let inputs: Vec<(&[PlanNode], Vec<NodeView>, Observations)> = (refs.iter().cycle().take(256))
        .map(|&q| (&q.plan[..], q.views(source), half_run(q)))
        .collect();
    // The trained hybrid, and the operator-level models alone: no sub-plan
    // model covers a node, so every unobserved node is walked.
    let operator_only = HybridModel::operator_only(Arc::clone(&qpp.op_level));
    for (name, model) in [("hybrid", &qpp.hybrid), ("operator-only", &operator_only)] {
        let predict_all = |inputs: &[(&[PlanNode], Vec<NodeView>, Observations)]| -> f64 {
            (inputs.iter())
                .map(|(plan, views, observed)| predict_progressive(model, plan, views, observed))
                .sum()
        };
        // Warm-up: grows the buffers.
        assert!(predict_all(&inputs).is_finite());
        let for_small = allocations_of(|| predict_all(&inputs[..16]));
        let for_large = allocations_of(|| predict_all(&inputs));
        assert_eq!(
            for_small, for_large,
            "{name}: 16 progressive predictions allocated {for_small} blocks, 256 allocated {for_large}"
        );
    }
}
