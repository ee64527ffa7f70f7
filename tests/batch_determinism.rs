//! The batched inference path must be *bit-identical* to the single-row
//! one: batching (and its plan memo cache) changes only how much work
//! is done, never the values produced.
//!
//! Each comparison runs the serial single-row loop and the batched call
//! pinned to one worker thread and fanned out across eight. A global lock
//! serializes the tests because the thread override in `ml::par` is
//! process-wide.

use engine::{Catalog, PlanNode, Simulator};
use qpp::{
    online, ExecutedQuery, HybridConfig, HybridModel, Method, PlanOrdering, PredictionCache,
    QppConfig, QppPredictor, QueryDataset,
};
use std::sync::{Arc, Mutex};
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
        QppPredictor::train(&refs, QppConfig::default()).expect("training")
    });
    // Repeat the workload so the hybrid memo cache sees repeated plans
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

/// A cold cache, a warm one and the serial walk give the same bits, at one
/// thread and fanned out over eight, for the predictor's hybrid and for one
/// that holds sub-plan models (a miss then runs both kinds of model). The
/// warm pass answers every query from the memo.
#[test]
fn warm_prediction_cache_does_not_change_bits() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ds = dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = with_threads(1, || {
        QppPredictor::train(&refs, QppConfig::default()).expect("training")
    });
    // The forcing settings of `hybrid`'s own tests.
    let config = HybridConfig {
        max_iterations: 8,
        min_frequency: 3,
        ..HybridConfig::default()
    };
    let (with_models, _) = with_threads(1, || {
        qpp::train_hybrid(&refs, Arc::clone(&qpp.hybrid.op_model), &config)
            .expect("hybrid training")
    });
    assert!(
        !with_models.plan_models.is_empty(),
        "no sub-plan model to compare"
    );
    // Repeated so the batch clears the parallel fan-out threshold.
    let batch: Vec<&ExecutedQuery> = refs
        .iter()
        .cycle()
        .take(refs.len() * 3)
        .copied()
        .collect();
    for (name, hybrid) in [("predictor's", &qpp.hybrid), ("with sub-plan models", &with_models)] {
        let serial: Vec<u64> = with_threads(1, || {
            batch.iter().map(|q| hybrid.predict(q).to_bits()).collect()
        });
        for threads in [1usize, 8] {
            let cache = PredictionCache::default();
            let cached = || -> Vec<u64> {
                with_threads(threads, || {
                    hybrid
                        .predict_batch_cached(&batch, &cache)
                        .into_iter()
                        .map(f64::to_bits)
                        .collect()
                })
            };
            let cold = cached();
            let before = cache.stats();
            let warm = cached();
            let after = cache.stats();
            assert_eq!(serial, cold, "{name} hybrid, cold, {threads} thread(s)");
            assert_eq!(serial, warm, "{name} hybrid, warm, {threads} thread(s)");
            assert_eq!(
                (after.hits - before.hits, after.misses),
                (batch.len() as u64, before.misses),
                "{name} hybrid, {threads} thread(s): the warm pass hits once per query"
            );
        }
    }
}

/// Online building judges its candidates in parallel, each against the
/// base model alone: the models it keeps, and so every prediction, do not
/// depend on the thread count or on the order the incoming plans arrive in.
#[test]
fn online_building_is_bit_identical_at_any_thread_count_and_plan_order() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ds = dataset();
    // The log's own plans arrive: on this log no template left out gets a
    // model kept, and the property needs at least one.
    let train: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = with_threads(1, || {
        qpp::OpLevelModel::train(&train, &qpp::OpModelConfig::default()).expect("op training")
    });
    let base = HybridModel::operator_only(op);
    let config = HybridConfig {
        min_frequency: 3,
        ..HybridConfig::default()
    };
    let predict_online = |threads: usize, incoming: &[&[PlanNode]]| -> (usize, Vec<u64>) {
        with_threads(threads, || {
            let built = online::build_models(&base, &train, &config, incoming);
            let preds = train
                .iter()
                .map(|q| {
                    let views = q.views(base.op_model.source());
                    let model = online::extend(&base, &built, &q.plan, &views);
                    model.predict_plan(&q.plan, &views).latency.to_bits()
                })
                .collect();
            (built.len(), preds)
        })
    };
    let incoming: Vec<&[PlanNode]> = train.iter().map(|q| &q.plan[..]).collect();
    let reversed: Vec<&[PlanNode]> = incoming.iter().rev().copied().collect();
    let serial = predict_online(1, &incoming);
    assert!(serial.0 > 0, "online building kept no model to compare");
    assert_eq!(serial, predict_online(8, &incoming), "8 threads");
    assert_eq!(serial, predict_online(1, &reversed), "reverse order");
    assert_eq!(serial, predict_online(8, &reversed), "8 threads, reverse");
}
