//! End-to-end fault tolerance: flaky collection → training → guarded
//! prediction. The pipeline must absorb aborts, stragglers, timeout
//! budgets, and corrupted optimizer estimates without panicking and
//! without ever emitting a NaN/infinite/negative prediction.

use crate::support::METHODS;
use engine::faults::{DriftPlan, ExecError, FaultPlan};
use engine::{Catalog, Planner, Simulator};
use qpp::{CollectionConfig, ExecutedQuery, PredictionTier, QppConfig, QppPredictor, QueryDataset};
use rng::StdRng;
use tpch::Workload;

#[test]
fn end_to_end_with_ten_percent_aborts_and_five_percent_stragglers() {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 12, 14], 8, 0.1, 7);
    let faults = FaultPlan {
        abort_prob: 0.10,
        straggler_prob: 0.05,
        seed: 17,
        ..FaultPlan::none()
    };
    let (ds, report) = QueryDataset::execute_drifted(
        &catalog,
        &workload,
        &Simulator::new(),
        11,
        f64::INFINITY,
        &faults,
        &CollectionConfig::default(),
        &DriftPlan::none(),
    );
    // Collection completes and accounts for every query; retries keep the
    // bulk of the workload despite the fault rate.
    assert!(report.reconciles(), "{report:?}");
    assert!(
        ds.len() >= workload.queries.len() * 2 / 3,
        "too few survivors: {report:?}"
    );

    // Training succeeds on the fault-collected data.
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default())
        .expect("training on fault-collected data");

    // No prediction is ever NaN, infinite, or negative — for any method.
    for q in &ds.queries {
        for method in METHODS {
            let p = qpp.predict_checked(q, method);
            assert!(
                p.value.is_finite() && p.value >= 0.0,
                "{method:?}: {p:?}"
            );
            assert!(!p.degraded, "clean survivor should not degrade: {p:?}");
        }
    }

    // A query whose logged estimates are NaN-poisoned degrades to an
    // analytical tier — still finite and non-negative.
    let mut poisoned = ds.queries[0].clone();
    poisoned.plan[0].est.rows = f64::NAN;
    poisoned.plan[0].est.total_cost = f64::NAN;
    for method in METHODS {
        let p = qpp.predict_checked(&poisoned, method);
        assert!(p.value.is_finite() && p.value >= 0.0, "{method:?}: {p:?}");
        assert!(p.degraded);
        assert!(
            matches!(
                p.method_used,
                PredictionTier::CostScaling | PredictionTier::TrainingPrior
            ),
            "{method:?}: {p:?}"
        );
    }
}

#[test]
fn timeout_budget_misses_are_dropped_and_accounted() {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 6], 4, 0.1, 7);
    let faults = FaultPlan {
        timeout_secs: 0.5,
        seed: 1,
        ..FaultPlan::none()
    };
    let (ds, report) = QueryDataset::execute_drifted(
        &catalog,
        &workload,
        &Simulator::new(),
        11,
        f64::INFINITY,
        &faults,
        &CollectionConfig::trusting(),
        &DriftPlan::none(),
    );
    assert!(report.reconciles(), "{report:?}");
    // Template 1 at SF 0.1 exceeds half a second, so the budget must
    // drop something, and every survivor fits inside it.
    assert!(report.dropped_timeout > 0);
    for q in &ds.queries {
        assert!(q.latency() <= 0.5);
    }
}

#[test]
fn corrupted_collections_still_train_and_predict_sanely() {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 8, 0.1, 7);
    let faults = FaultPlan {
        corrupt_prob: 0.3,
        seed: 29,
        ..FaultPlan::none()
    };
    let (ds, report) = QueryDataset::execute_drifted(
        &catalog,
        &workload,
        &Simulator::new(),
        11,
        f64::INFINITY,
        &faults,
        &CollectionConfig::default(),
        &DriftPlan::none(),
    );
    assert!(report.reconciles(), "{report:?}");
    assert!(!ds.is_empty());
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default())
        .expect("training on corruption-filtered data");
    for q in &ds.queries {
        for method in METHODS {
            let p = qpp.predict_checked(q, method);
            assert!(p.value.is_finite() && p.value >= 0.0, "{method:?}: {p:?}");
        }
    }
}

#[test]
fn try_execute_reports_aborts_deterministically() {
    let catalog = Catalog::new(0.1, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(7);
    let plan = planner.plan(&tpch::instantiate(6, 0.1, &mut rng));
    let sim = Simulator::new();
    let faults = FaultPlan {
        abort_prob: 1.0,
        seed: 5,
        ..FaultPlan::none()
    };
    let no_drift = DriftPlan::none();
    let e = sim
        .try_execute(&plan, 0.1, 3, &faults, &no_drift, 0)
        .unwrap_err();
    match e {
        ExecError::Aborted { progress } => assert!((0.0..=1.0).contains(&progress)),
        other => panic!("expected an abort, got {other:?}"),
    }
    // Same seed, same fault plan: identical failure.
    let again = sim.try_execute(&plan, 0.1, 3, &faults, &no_drift, 0);
    assert_eq!(again.unwrap_err(), e);
}
