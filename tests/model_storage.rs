//! Each trained model is stored once, in the form that serves it.
//!
//! A predictor's operator level and its hybrid's are one model (the hybrid
//! *adds* plan-level models to it, Algorithm 1), so `op_level` and
//! `hybrid.op_model` are one `Arc`, through training, a snapshot and the
//! registry's promote and rollback. An SVR model is its lane-padded
//! serving layout, so nothing is built on first prediction: a predictor's
//! heap is the same before and after it predicts. The counting
//! `#[global_allocator]` (`counting_alloc`) keeps the process's live
//! bytes; what dropping a value frees
//! is the heap it held. The tests share one lock, so no other test thread
//! moves the counter while one measures.

#[allow(dead_code)]
mod counting_alloc;
#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use counting_alloc::PROCESS_LIVE;
use engine::{Catalog, Simulator};
use qpp::{
    decode_snapshot, ExecutedQuery, ModelRegistry, PredictionCache, QppConfig, QppPredictor,
    QueryDataset,
};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use support::{quiet_sim, TempDir, METHODS};
use tpch::Workload;

static MEASURING: Mutex<()> = Mutex::new(());

/// The heap `value` holds: the bytes dropping it frees.
fn heap_of<T>(value: T) -> usize {
    let before = PROCESS_LIVE.load(Ordering::Relaxed);
    drop(value);
    usize::try_from(before - PROCESS_LIVE.load(Ordering::Relaxed)).expect("a drop frees")
}

fn dataset(per_template: usize, seed: u64) -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], per_template, 0.1, seed);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), seed, f64::INFINITY)
}

fn shares_its_operator_level(p: &QppPredictor) -> bool {
    Arc::ptr_eq(&p.op_level, &p.hybrid.op_model)
}

#[test]
fn the_operator_level_is_one_model_through_training_promote_and_rollback() {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset(6, 7);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let v1 = QppPredictor::train(&refs, QppConfig::default()).expect("v1 trains");
    assert!(shares_its_operator_level(&v1), "a trained predictor");
    let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
    let v2 = QppPredictor::train(&half, QppConfig::default()).expect("v2 trains");

    let dir = TempDir::new("storage-promote");
    let registry = ModelRegistry::create(dir.path(), v1, QppConfig::default()).expect("registry");
    assert!(shares_its_operator_level(&registry.current()), "version 1");
    registry.promote(v2).expect("promotes");
    assert!(
        shares_its_operator_level(&registry.current()),
        "after promote"
    );
    registry.rollback().expect("rolls back");
    assert!(
        shares_its_operator_level(&registry.current()),
        "after rollback"
    );
    let reopened = ModelRegistry::open(dir.path(), QppConfig::default()).expect("reopens");
    assert!(shares_its_operator_level(&reopened.current()), "reopened");
}

/// The snapshot of a default-config predictor trained on the benchmark
/// fixture's log (see `tests/all/golden_snapshot.rs`).
fn fixture_predictor() -> QppPredictor {
    let bytes = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/fixture_seed42.qppsnap"),
    )
    .expect("the golden snapshot");
    let models = decode_snapshot(&bytes).expect("decodes");
    QppPredictor::from_materialized(&models)
}

#[test]
fn a_fixture_predictor_is_small_and_does_not_grow_when_it_predicts() {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // One thread: every prediction runs here, on this thread's buffers.
    ml::par::set_threads(1);
    let catalog = Catalog::new(0.1, 1);
    let sim = quiet_sim();
    let workload = Workload::generate(&[1, 3, 5, 6, 10, 12, 14], 3, 0.1, 5);
    let pool = QueryDataset::execute(&catalog, &workload, &sim, 5, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = pool.queries.iter().collect();
    let cache = PredictionCache::default();

    let untouched = fixture_predictor();
    let used = fixture_predictor();
    for method in METHODS {
        let served = used.predict_checked_batch_cached(&refs, method, &cache);
        assert!(served.iter().all(|p| !p.degraded), "{method:?}");
        for q in &refs {
            assert!(used.predict(q, method).is_finite());
        }
    }
    let before = heap_of(untouched);
    let after = heap_of(used);
    assert_eq!(
        after, before,
        "predicting grew the predictor's heap from {before} to {after} bytes"
    );
    assert!(
        before <= 12 * 1024,
        "a fixture-log predictor holds {before} bytes"
    );
    ml::par::set_threads(0);
}
