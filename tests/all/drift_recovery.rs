//! End-to-end self-healing lifecycle: a workload drifts, the feedback
//! loop quarantines the stale tier and trips its circuit breaker, shadow
//! retraining produces a candidate that the registry validates and
//! promotes, and serving recovers to within 10% of a from-scratch
//! retrain. Also proves the prediction cache cannot serve stale entries
//! across a model swap.

use crate::support::{collect, quiet_sim, TempDir};
use engine::faults::{DriftKind, DriftPlan};
use ml::mean_relative_error;
use qpp::{
    DriftMonitor, ExecutedQuery, Method, ModelHealth, ModelRegistry, PlanOrdering, PredictionTier,
    QppConfig, QppPredictor,
};
use tpch::Workload;

fn hybrid_mre(pred: &QppPredictor, queries: &[&ExecutedQuery]) -> f64 {
    let actual: Vec<f64> = queries.iter().map(|q| q.latency()).collect();
    let est: Vec<f64> = queries
        .iter()
        .map(|q| {
            pred.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased))
                .value
        })
        .collect();
    mean_relative_error(&actual, &est)
}

#[test]
fn drift_quarantines_breaks_and_recovers_via_shadow_retrain() {
    let sim = quiet_sim();
    let templates = [1u8, 3, 6];

    // Phase 1: train the incumbent on the pre-drift regime and persist it
    // as registry version 1.
    let clean = collect(&Workload::generate(&templates, 8, 0.1, 7), &sim, &DriftPlan::none());
    let clean_refs: Vec<&ExecutedQuery> = clean.queries.iter().collect();
    let incumbent = QppPredictor::train(&clean_refs, QppConfig::default()).unwrap();
    let dir = TempDir::new("drift-e2e");
    let registry = ModelRegistry::create(dir.path(), incumbent, QppConfig::default()).unwrap();
    assert_eq!(registry.version(), 1);

    // Phase 2: the data grows 3x overnight. Observed latencies triple
    // while the logged estimates (the model's inputs) stay stale.
    let drift = DriftPlan {
        kind: DriftKind::DataGrowth,
        onset: 0,
        ramp: 0,
        magnitude: 3.0,
        seed: 1,
    };
    let drifted = collect(&Workload::generate(&templates, 8, 0.1, 21), &sim, &drift);
    let drifted_refs: Vec<&ExecutedQuery> = drifted.queries.iter().collect();
    assert!(drifted_refs.len() >= 12, "drifted window too small");

    // Phase 3: the feedback loop replays the drifted stream through the
    // serving model. Every prediction undershoots ~3x, the CUSUM
    // statistic accumulates against the error the serving model recorded
    // at training, and the hybrid tier must end quarantined with its
    // circuit breaker tripped, within the first 8 drifted observations (6
    // at one, two and four threads).
    let mut monitor = DriftMonitor::default();
    let serving = registry.current();
    let mut observed = 0;
    for q in &drifted_refs {
        let p = serving.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased));
        monitor.observe(&serving, p.method_used, p.value, q.latency());
        observed += 1;
        if monitor.any_quarantined() {
            break;
        }
    }
    assert!(monitor.any_quarantined(), "drift was not detected");
    assert!(
        observed <= 8,
        "quarantined after {observed} of {} drifted observations",
        drifted_refs.len()
    );
    assert_eq!(
        monitor.health(PredictionTier::Hybrid),
        ModelHealth::Quarantined
    );
    // The tripped breaker degrades serving off the quarantined tier.
    let p = serving.predict_checked(drifted_refs[0], Method::Hybrid(PlanOrdering::ErrorBased));
    assert!(p.degraded, "breaker did not trip");
    assert_ne!(p.method_used, PredictionTier::Hybrid);

    // Phase 4: shadow retrain on the recent (drifted) window. The
    // candidate is fit to the new regime and must beat the stale
    // incumbent on the held-out slice by far more than the margin.
    let report = registry.shadow_retrain(&drifted_refs).unwrap();
    assert!(report.promoted, "expected promotion: {}", report.reason);
    assert!(report.candidate_error < report.incumbent_error);
    assert_eq!(registry.version(), 2);
    assert_eq!(report.version, 2);

    // Phase 5: recovery quality. The promoted model (trained on the
    // retrain split, round-tripped through the validated snapshot) must
    // land within 10% MRE of a from-scratch retrain on the full window.
    let scratch = QppPredictor::train(&drifted_refs, QppConfig::default()).unwrap();
    let scratch_mre = hybrid_mre(&scratch, &drifted_refs);
    let promoted = registry.current();
    let promoted_mre = hybrid_mre(&promoted, &drifted_refs);
    assert!(
        promoted_mre <= scratch_mre * 1.10 + 0.02,
        "promoted MRE {promoted_mre:.4} not within 10% of from-scratch {scratch_mre:.4}"
    );
    assert!(
        promoted_mre < report.incumbent_error,
        "promotion did not improve serving"
    );

    // Phase 6: the monitor resets for the new model, judges it against
    // the new model's own record, and stays calm on the drifted regime the
    // new model was trained for.
    monitor.reset_all();
    assert_eq!(monitor.health(PredictionTier::Hybrid), ModelHealth::Healthy);
    for q in &drifted_refs {
        let p = promoted.predict_checked(q, Method::Hybrid(PlanOrdering::ErrorBased));
        monitor.observe(&promoted, p.method_used, p.value, q.latency());
    }
    assert!(!monitor.any_quarantined(), "healthy model was quarantined");
}

#[test]
fn model_swap_changes_cache_signature_so_stale_entries_cannot_hit() {
    let sim = quiet_sim();
    let ds = collect(
        &Workload::generate(&[1, 3, 6], 8, 0.1, 7),
        &sim,
        &DriftPlan::none(),
    );
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let incumbent = QppPredictor::train(&refs, QppConfig::default()).unwrap();
    let dir = TempDir::new("drift-sig");
    let registry = ModelRegistry::create(dir.path(), incumbent, QppConfig::default()).unwrap();

    // Warm the shared cache through the serving model.
    let before = registry.current();
    let sig_before = before.hybrid.plan_model_signature();
    let warm = before.hybrid.predict_batch_cached(&refs, registry.pred_cache());
    assert_eq!(warm.len(), refs.len());
    assert!(registry.pred_cache().stats().entries > 0);

    // Promote a model set trained on different data: its cache-key
    // signature must differ (entries can never collide with the old
    // model's), and the registry clears the cache anyway.
    let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
    let candidate = QppPredictor::train(&half, QppConfig::default()).unwrap();
    registry.promote(candidate).unwrap();
    let after = registry.current();
    let sig_after = after.hybrid.plan_model_signature();
    assert_ne!(
        sig_before, sig_after,
        "swapped model sets share a cache-key signature"
    );
    assert_eq!(registry.pred_cache().stats().entries, 0);

    // Fresh predictions through the new model repopulate under new keys
    // and match the uncached path exactly.
    let cached = after.hybrid.predict_batch_cached(&refs, registry.pred_cache());
    for (q, c) in refs.iter().zip(&cached) {
        assert_eq!(after.hybrid.predict(q), *c);
    }
}
