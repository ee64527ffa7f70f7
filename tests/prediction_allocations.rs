//! What a guarded batch prediction allocates does not grow with the batch.
//!
//! `QppPredictor::predict_checked_batch_cached` walks every plan where it
//! stands: views, subtree sizes, structure hashes and node times live in
//! the thread's reusable `PredictBuffers`, and feature rows are arrays. So
//! once the buffers have grown to the largest plan, a batch allocates a
//! fixed number of blocks (its result vectors) whether it holds 16 queries
//! or 256. That holds on both feature sources: actual-valued costs are
//! derived in the walk that writes the views, not read from the logged
//! query. The hybrid tier's model-set signature is computed where the
//! predictor is built, so a hybrid batch allocates no more than a
//! plan-level one. A counting `#[global_allocator]` makes both assertions;
//! the whole check lives in one `#[test]`, pinned to one thread, so
//! nothing else moves the counter.

use engine::{Catalog, Simulator};
use qpp::{
    ExecutedQuery, FeatureSource, Method, OpModelConfig, PlanModelConfig, PlanOrdering,
    PredictionCache, QppConfig, QppPredictor, QueryDataset,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpch::Workload;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Blocks `f` allocates.
fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_checked_batch_allocates_the_same_for_16_queries_as_for_256() {
    // One thread: the batch runs on the caller, and no pool worker
    // allocates on the side.
    ml::par::set_threads(1);
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 5, 6, 10, 14], 6, 0.1, 7);
    let ds = QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY);
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
        // A one-entry cache evicts on every new fragment, so the hybrid
        // tier walks each plan instead of answering its root from the
        // cache, and the map never grows past its first allocation.
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
