//! Hot-swapping the model registry while the serving layer is under load.
//!
//! Two properties from ISSUE acceptance:
//! 1. A promote/rollback mid-flight never tears a batch and never panics a
//!    worker — every in-flight request is answered by exactly one model
//!    version.
//! 2. The shared plan-prediction cache never serves entries computed
//!    by a retired model: after a swap, served values are bit-identical to
//!    what the *new* model computes from scratch.

use crate::support::{arcs, log, TempDir};
use qpp::{
    ExecutedQuery, MaterializedModels, Method, ModelRegistry, PlanOrdering, QppConfig, QppPredictor,
};
use serve::{PredictionServer, ServeConfig};
use std::sync::Arc;

/// Cheap structural copy through the snapshot format, the same round-trip
/// `promote` itself performs.
fn replicate(p: &QppPredictor) -> QppPredictor {
    QppPredictor::from_materialized(&MaterializedModels::from_predictor(p))
}

const HYBRID: Method = Method::Hybrid(PlanOrdering::ErrorBased);

#[test]
fn swap_invalidates_prediction_cache_with_no_stale_hits() {
    let ds = log(6);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let v1 = QppPredictor::train(&refs, QppConfig::default()).expect("v1 training");
    // v2 trains on half the data, so the two versions genuinely disagree.
    let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
    let v2 = QppPredictor::train(&half, QppConfig::default()).expect("v2 training");

    let dir = TempDir::new("swap-cache");
    let registry =
        Arc::new(ModelRegistry::create(dir.path(), v1, QppConfig::default()).expect("registry"));
    let queries = arcs(&ds);
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );

    // Warm the shared sub-plan cache with v1's entries.
    let v1_values: Vec<u64> = queries
        .iter()
        .map(|q| {
            server
                .predict(Arc::clone(q), HYBRID, None)
                .expect("warming predict")
                .value
                .to_bits()
        })
        .collect();
    assert!(
        registry.pred_cache().stats().entries > 0,
        "warm-up populated the cache"
    );

    let gen_before = registry.generation();
    registry.promote(v2).expect("promote v2");
    assert_eq!(registry.generation(), gen_before + 1);
    assert_eq!(
        registry.pred_cache().stats().entries,
        0,
        "promote must clear the shared prediction cache"
    );

    // Every post-swap answer must be bit-identical to the new serving
    // model computing from scratch; a stale cache hit would surface here.
    let current = registry.current();
    let mut disagreements = 0;
    for (q, v1_bits) in queries.iter().zip(&v1_values) {
        let got = server
            .predict(Arc::clone(q), HYBRID, None)
            .expect("post-swap predict");
        let want = current.predict_checked(q, HYBRID);
        assert_eq!(
            got.value.to_bits(),
            want.value.to_bits(),
            "served value diverged from the promoted model"
        );
        if got.value.to_bits() != *v1_bits {
            disagreements += 1;
        }
    }
    assert!(
        disagreements > 0,
        "v1 and v2 agree on every query; the stale-cache check has no power"
    );
    drop(server);
}

#[test]
fn concurrent_swaps_under_load_never_panic_and_land_on_final_model() {
    let ds = log(6);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let v1 = QppPredictor::train(&refs, QppConfig::default()).expect("v1 training");
    let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
    let v2 = QppPredictor::train(&half, QppConfig::default()).expect("v2 training");

    let dir = TempDir::new("swap-stress");
    let registry =
        Arc::new(ModelRegistry::create(dir.path(), v1, QppConfig::default()).expect("registry"));
    let queries = arcs(&ds);
    let server = Arc::new(PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(2),
            max_batch: 8,
            ..ServeConfig::default()
        },
    ));

    let gen_start = registry.generation();
    let swaps = 4;
    std::thread::scope(|s| {
        // Swapper: promote a replica of v2, roll back to v1, repeatedly,
        // while clients hammer the server.
        let swap_registry = Arc::clone(&registry);
        let swapper = s.spawn(move || {
            let mut ok = 0u64;
            for _ in 0..swaps {
                swap_registry
                    .promote(replicate(&v2))
                    .expect("promote replica");
                ok += 1;
                swap_registry.rollback().expect("rollback to v1");
                ok += 1;
            }
            ok
        });
        for c in 0..3usize {
            let server = Arc::clone(&server);
            let queries = &queries;
            s.spawn(move || {
                for i in 0..40 {
                    let q = &queries[(c + i) % queries.len()];
                    let p = server
                        .predict(Arc::clone(q), HYBRID, None)
                        .expect("predict during swaps");
                    // Whatever version answered, the value is a real
                    // prediction, never a torn or poisoned one.
                    assert!(p.value.is_finite() && p.value >= 0.0, "torn prediction");
                }
            });
        }
        let ok_swaps = swapper.join().expect("swapper panicked");
        assert_eq!(ok_swaps, 2 * swaps);
    });

    // Generation advanced once per successful promote or rollback.
    assert_eq!(registry.generation(), gen_start + 2 * swaps);

    // Quiesced: serving answers are bit-identical to the final model.
    let current = registry.current();
    for q in &queries {
        let got = server
            .predict(Arc::clone(q), HYBRID, None)
            .expect("post-stress predict");
        let want = current.predict_checked(q, HYBRID);
        assert_eq!(got.value.to_bits(), want.value.to_bits());
    }

    let snap = server.stats();
    assert_eq!(snap.served, snap.submitted, "nothing lost during swaps");
    assert_eq!(snap.shed(), 0);
    // Dropping the server joins the pool; a panicked worker resurfaces.
    drop(server);
}
