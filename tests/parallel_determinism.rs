//! The parallelized pipeline must be *bit-identical* to the serial one:
//! thread count changes only who computes each value, never the value.
//!
//! Each test runs the same computation pinned to one worker thread and
//! fanned out across eight, and compares outputs at the `f64::to_bits`
//! level. A global lock serializes the tests because the thread override
//! in `ml::par` is process-wide.

use engine::faults::{DriftPlan, FaultPlan};
use engine::{Catalog, Simulator};
use qpp::{
    CollectionConfig, ExecutedQuery, FeatureSource, Method, PlanOrdering, QppConfig,
    QppPredictor, QueryDataset,
};
use rng::StdRng;
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

#[test]
fn parallel_collection_is_bit_identical_to_serial() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let catalog = Catalog::new(0.2, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 6, 0.2, 7);
    let sim = Simulator::new();
    let faults = FaultPlan {
        abort_prob: 0.2,
        straggler_prob: 0.1,
        seed: 5,
        ..FaultPlan::none()
    };
    let cfg = CollectionConfig::default();
    let collect = || {
        QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &faults,
            &cfg,
            &DriftPlan::none(),
        )
    };
    let (ds1, report1) = with_threads(1, collect);
    let (ds8, report8) = with_threads(8, collect);

    assert_eq!(report1, report8);
    assert_eq!(ds1.timed_out, ds8.timed_out);
    assert_eq!(ds1.queries.len(), ds8.queries.len());
    for (a, b) in ds1.queries.iter().zip(&ds8.queries) {
        assert_eq!(a.template, b.template);
        assert_eq!(a.trace.total_secs.to_bits(), b.trace.total_secs.to_bits());
        assert_eq!(a.trace.timings.len(), b.trace.timings.len());
        for (ta, tb) in a.trace.timings.iter().zip(&b.trace.timings) {
            assert_eq!(ta.start.to_bits(), tb.start.to_bits());
            assert_eq!(ta.run.to_bits(), tb.run.to_bits());
        }
        for (pa, pb) in a.trace.io_pages.iter().zip(&b.trace.io_pages) {
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        let fa = qpp::plan_features(&a.plan, &a.views(FeatureSource::Estimated));
        let fb = qpp::plan_features(&b.plan, &b.views(FeatureSource::Estimated));
        assert_eq!(fa.len(), fb.len());
        for (va, vb) in fa.iter().zip(&fb) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}

#[test]
fn parallel_cv_is_identical() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..12).map(|_| rng.gen_range(0.0..5.0)).collect())
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r.iter().sum::<f64>() * 1.5 + 2.0)
        .collect();
    let x = ml::Dataset::from_rows(rows);
    let folds = ml::cv::kfold(300, 5, 3);
    let learner = ml::LearnerKind::Svr(ml::SvrParams::default());
    let run = || ml::cv::cross_validate(&learner, &x, &y, &folds).expect("cv");
    let serial = with_threads(1, run);
    let parallel = with_threads(8, run);
    assert_eq!(serial.fold_errors.len(), parallel.fold_errors.len());
    for (a, b) in serial.fold_errors.iter().zip(&parallel.fold_errors) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(serial.predictions.len(), parallel.predictions.len());
    for (a, b) in serial.predictions.iter().zip(&parallel.predictions) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The benchmark fixture's plan-level training log (see
/// `ml::solver_tests`): per row its test fold, the latency, 33 features.
const PLAN_LOG: &str = include_str!("../crates/ml/testdata/plan_log_seed42.csv");

/// Forward selection on the fixture log scores 112-row matrices of at most
/// seven columns — fits of ~100 µs, which stayed serial until Gram matrices
/// stopped outliving their fit. Folds and selection must not depend on
/// who ran them.
#[test]
fn small_fold_fan_out_is_identical_at_1_2_and_8_threads() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut x = ml::Dataset::new(33);
    let (mut y, mut fold_of) = (Vec::new(), Vec::new());
    for line in PLAN_LOG.lines().skip(1) {
        let mut cells = line.split(',').map(|c| c.parse::<f64>().expect("a number"));
        fold_of.push(cells.next().expect("fold") as usize);
        y.push(cells.next().expect("latency").max(0.0).ln_1p());
        x.push_row(&cells.collect::<Vec<f64>>());
    }
    let folds: Vec<ml::cv::Fold> = (0..5)
        .map(|f| ml::cv::Fold {
            train: (0..y.len()).filter(|&i| fold_of[i] != f).collect(),
            test: (0..y.len()).filter(|&i| fold_of[i] == f).collect(),
        })
        .collect();
    let learner = ml::LearnerKind::Svr(ml::SvrParams::default());
    let run = || {
        let sel = ml::forward_select(&ml::ForwardSelection::default(), &learner, &x, &y, &folds)
            .expect("selection");
        let cv = ml::cv::cross_validate(&learner, &x.select_columns(&sel.selected), &y, &folds)
            .expect("cv");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        (
            sel.selected,
            sel.cv_error.to_bits(),
            bits(&cv.fold_errors),
            bits(&cv.predictions),
        )
    };
    let serial = with_threads(1, run);
    assert_eq!(serial.0.len(), 4, "the fixture log selects four features");
    assert_eq!(serial.2.len(), 5);
    assert_eq!(serial, with_threads(2, run));
    assert_eq!(serial, with_threads(8, run));
}

#[test]
fn parallel_full_training_matches_serial() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 8, 0.1, 7);
    let ds = with_threads(1, || {
        QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
    });
    const METHODS: [Method; 3] = [
        Method::PlanLevel,
        Method::OperatorLevel,
        Method::Hybrid(PlanOrdering::ErrorBased),
    ];
    let run = || {
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).expect("training");
        refs.iter()
            .flat_map(|q| METHODS.map(|m| qpp.predict(q, m).to_bits()))
            .collect::<Vec<u64>>()
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(8, run);
    assert_eq!(serial, parallel);
}
