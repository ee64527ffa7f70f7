//! The batched inference path must be *bit-identical* to the single-row
//! one: batching (and its sub-plan memo cache) changes only how much work
//! is done, never the values produced.
//!
//! Each comparison runs the serial single-row loop and the batched call
//! pinned to one worker thread and fanned out across eight. A global lock
//! serializes the tests because the thread override in `ml::par` is
//! process-wide.

use engine::{Catalog, Simulator};
use qpp::{
    ExecutedQuery, HybridConfig, HybridModel, Method, OnlinePredictor, PlanOrdering,
    PredictionCache, QppConfig, QppPredictor, QueryDataset,
};
use std::sync::Mutex;
use tpch::Workload;

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the worker-thread count pinned to `n`, restoring the
/// default afterwards. Callers must hold `THREADS_LOCK`.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    ml::par::set_threads(n);
    let out = f();
    ml::par::set_threads(0);
    out
}

fn dataset() -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 8, 0.1, 7);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
}

const METHODS: [Method; 3] = [
    Method::PlanLevel,
    Method::OperatorLevel,
    Method::Hybrid(PlanOrdering::ErrorBased),
];

#[test]
fn predict_batch_matches_single_row_loop_at_any_thread_count() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ds = dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = with_threads(1, || {
        ml::gram::GramCache::global().clear();
        QppPredictor::train(&refs, QppConfig::default()).expect("training")
    });
    // Repeat the workload so the hybrid memo cache sees shared sub-plans
    // and the batch clears the parallel fan-out threshold.
    let batch: Vec<&ExecutedQuery> = refs
        .iter()
        .cycle()
        .take(refs.len() * 3)
        .copied()
        .collect();
    for method in METHODS {
        let serial: Vec<u64> = with_threads(1, || {
            batch
                .iter()
                .map(|q| qpp.predict(q, method).to_bits())
                .collect()
        });
        for threads in [1usize, 8] {
            let batched: Vec<u64> = with_threads(threads, || {
                qpp.predict_batch(&batch, method)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            });
            assert_eq!(serial, batched, "{method:?} with {threads} thread(s)");
        }
    }
}

#[test]
fn warm_prediction_cache_does_not_change_bits() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ds = dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = with_threads(1, || {
        ml::gram::GramCache::global().clear();
        QppPredictor::train(&refs, QppConfig::default()).expect("training")
    });
    let cache = PredictionCache::default();
    let cold: Vec<u64> = with_threads(1, || {
        qpp.hybrid
            .predict_batch_cached(&refs, &cache)
            .into_iter()
            .map(f64::to_bits)
            .collect()
    });
    // Every root fragment is now memoized; the warm pass must reproduce
    // the same bits entirely from hits.
    let before = cache.stats();
    let warm: Vec<u64> = with_threads(1, || {
        qpp.hybrid
            .predict_batch_cached(&refs, &cache)
            .into_iter()
            .map(f64::to_bits)
            .collect()
    });
    let after = cache.stats();
    assert_eq!(cold, warm);
    assert!(
        after.hits >= before.hits + refs.len() as u64,
        "warm pass must hit at least once per query: {before:?} -> {after:?}"
    );
}

#[test]
fn online_batch_matches_query_loop() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ds = dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = with_threads(1, || {
        ml::gram::GramCache::global().clear();
        qpp::OpLevelModel::train(&refs, &qpp::OpModelConfig::default()).expect("op training")
    });
    let config = HybridConfig {
        min_frequency: 3,
        ..HybridConfig::default()
    };
    let looped: Vec<u64> = with_threads(1, || {
        let mut online =
            OnlinePredictor::new(refs.clone(), HybridModel::operator_only(op.clone()), config.clone());
        refs.iter()
            .map(|q| online.predict_query(q).to_bits())
            .collect()
    });
    let batched: Vec<u64> = with_threads(1, || {
        let mut online =
            OnlinePredictor::new(refs.clone(), HybridModel::operator_only(op.clone()), config.clone());
        online
            .predict_batch(&refs)
            .into_iter()
            .map(f64::to_bits)
            .collect()
    });
    assert_eq!(looped, batched);
}
