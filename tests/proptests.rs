//! Property tests over the core invariants of every layer: each property
//! runs on seeded cases drawn through [`rng::cases`].

#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use engine::faults::{DriftPlan, FaultPlan};
use engine::{Catalog, Planner, SimConfig, Simulator};
use rng::StdRng;
use std::sync::OnceLock;
use support::{log, METHODS};
use tpch::schema::{col, TableId, ALL_TABLES};
use tpch::types::CmpOp;
use tpch::Workload;

/// One predictor trained on clean data, shared by the fault-injection
/// properties below (training is far too slow to repeat per case).
fn predictor() -> &'static qpp::QppPredictor {
    static PREDICTOR: OnceLock<qpp::QppPredictor> = OnceLock::new();
    PREDICTOR.get_or_init(|| {
        let ds = log(8);
        let refs: Vec<&qpp::ExecutedQuery> = ds.queries.iter().collect();
        qpp::QppPredictor::train(&refs, qpp::QppConfig::default()).expect("training")
    })
}

const CASES: u64 = 48;
const FAULT_CASES: u64 = 24;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

const ALL_CMP: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn selectivity_is_a_probability(table: TableId, col_pick: usize, op: CmpOp, value: f64, sf: f64) {
    let cols = table.columns();
    let c = col(table, cols[col_pick % cols.len()]);
    let s = tpch::distributions::selectivity(c, op, value, sf);
    assert!((0.0..=1.0).contains(&s), "{c} {op:?} {value}: {s}");
}

/// Every truth selectivity is a probability, for every column, any
/// operator, any value — including values far outside the domain.
#[test]
fn truth_selectivity_is_a_probability() {
    rng::cases(CASES, |rng| {
        selectivity_is_a_probability(
            pick(rng, &ALL_TABLES),
            rng.gen_range(0usize..16),
            pick(rng, &ALL_CMP),
            rng.gen_range(-1.0e7f64..1.0e7),
            rng.gen_range(0.01f64..10.0),
        )
    });
}

/// The one failure of that property on record, shrunk (it was the only
/// entry of the regressions file the case generator used to keep).
#[test]
fn truth_selectivity_at_lineitem_column_11_gt_zero() {
    selectivity_is_a_probability(TableId::Lineitem, 11, CmpOp::Gt, 0.0, 0.01);
}

/// Between-selectivity is monotone in the interval width.
#[test]
fn between_selectivity_is_monotone() {
    rng::cases(CASES, |rng| {
        let lo = rng.gen_range(0.0f64..2000.0);
        let width1 = rng.gen_range(0.0f64..500.0);
        let extra = rng.gen_range(0.0f64..500.0);
        let c = col(TableId::Lineitem, "l_shipdate");
        let narrow = tpch::distributions::between_selectivity(c, lo, lo + width1, 1.0);
        let wide = tpch::distributions::between_selectivity(c, lo, lo + width1 + extra, 1.0);
        assert!(wide + 1e-12 >= narrow);
    });
}

/// Histogram CDFs are monotone and bounded for every column.
#[test]
fn histogram_cdf_is_monotone() {
    rng::cases(CASES, |rng| {
        let table = pick(rng, &ALL_TABLES);
        let col_pick = rng.gen_range(0usize..16);
        let seed = rng.gen_range(0u64..50);
        let mut probes: Vec<f64> = (0..rng.gen_range(2usize..12))
            .map(|_| rng.gen_range(-100.0f64..5000.0))
            .collect();
        let cols = table.columns();
        let c = col(table, cols[col_pick % cols.len()]);
        let h = engine::histogram::Histogram::build(c, 1.0, seed);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = -1e-12;
        for v in probes {
            let p = h.cdf(v);
            assert!((0.0..=1.0).contains(&p));
            assert!(p + 1e-12 >= prev);
            prev = p;
        }
    });
}

/// Cardenas never exceeds either bound.
#[test]
fn cardenas_respects_bounds() {
    rng::cases(CASES, |rng| {
        let d = rng.gen_range(1.0f64..1e8);
        let n = rng.gen_range(0.0f64..1e9);
        let g = engine::estimator::cardenas(d, n);
        assert!(g <= d + 1e-6);
        assert!(g <= n + 1e-6 || n < 1.0);
        assert!(g >= 0.0);
    });
}

/// Planning and simulating any template at any seed yields finite,
/// ordered timings; the same seed reproduces the same trace.
#[test]
fn simulation_invariants() {
    rng::cases(CASES, |rng| {
        let template = pick(rng, &tpch::ALL_TEMPLATES);
        let seed = rng.gen_range(0u64..1000);
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = tpch::instantiate(template, 0.1, &mut rng);
        let plan = planner.plan(&spec);
        let sim = Simulator::new();
        let a = sim.execute(&plan, 0.1, seed);
        let b = sim.execute(&plan, 0.1, seed);
        assert_eq!(a.total_secs, b.total_secs);
        assert!(a.total_secs.is_finite() && a.total_secs > 0.0);
        for t in &a.timings {
            assert!(t.start.is_finite() && t.run.is_finite());
            assert!(t.start >= 0.0);
            assert!(t.run >= t.start * 0.999);
            assert!(t.run <= a.timings[0].run * 1.0001);
        }
    });
}

/// Plan-level features are finite and structurally consistent for
/// every template/seed/scale combination.
#[test]
fn plan_features_are_finite() {
    rng::cases(CASES, |rng| {
        let template = pick(rng, &tpch::ALL_TEMPLATES);
        let seed = rng.gen_range(0u64..200);
        let sf = pick(rng, &[0.05, 0.5, 2.0]);
        let catalog = Catalog::new(sf, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = planner.plan(&tpch::instantiate(template, sf, &mut rng)).plan;
        let views = qpp::features::node_views(&plan);
        let f = qpp::plan_features(&plan, &views);
        assert_eq!(f.len(), qpp::features::PLAN_FEATURES);
        for v in &f {
            assert!(v.is_finite());
        }
        // op_count equals the node count.
        assert_eq!(f[4] as usize, plan.len());
    });
}

/// Structure keys are stable across re-planning and distinct across
/// templates with different shapes.
#[test]
fn structure_keys_are_deterministic() {
    rng::cases(CASES, |rng| {
        let template = pick(rng, &tpch::ALL_TEMPLATES);
        let seed = rng.gen_range(0u64..100);
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let p1 = planner.plan(&tpch::instantiate(template, 0.1, &mut r1)).plan;
        let p2 = planner.plan(&tpch::instantiate(template, 0.1, &mut r2)).plan;
        assert_eq!(qpp::structure_key(&p1), qpp::structure_key(&p2));
    });
}

/// Linear regression recovers random linear functions (up to noise).
#[test]
fn linreg_recovers_linear_functions() {
    use ml::{Dataset, Learner, LearnerKind};
    rng::cases(CASES, |rng| {
        let w: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
        let b = rng.gen_range(-10.0f64..10.0);
        let seed = rng.gen_range(0u64..100);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..3).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| b + r.iter().zip(&w).map(|(x, wi)| x * wi).sum::<f64>())
            .collect();
        let x = Dataset::from_rows(rows.clone());
        let m = LearnerKind::Linear { ridge: 1e-10 }.fit(&x, &y).unwrap();
        for (r, target) in rows.iter().zip(&y).take(5) {
            assert!((m.predict(r) - target).abs() < 1e-5 + target.abs() * 1e-6);
        }
    });
}

/// K-fold and stratified K-fold partition all rows exactly once.
#[test]
fn folds_partition() {
    rng::cases(CASES, |rng| {
        let n = rng.gen_range(6usize..60);
        let k = rng.gen_range(2usize..6).min(n);
        let seed = rng.gen_range(0u64..50);
        let folds = ml::cv::kfold(n, k, seed);
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.test.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        let strata: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let sfolds = ml::cv::stratified_kfold(&strata, k, seed);
        let mut sseen: Vec<usize> = sfolds.iter().flat_map(|f| f.test.clone()).collect();
        sseen.sort_unstable();
        assert_eq!(sseen, (0..n).collect::<Vec<_>>());
    });
}

/// Reducing noise never makes a trace non-deterministic, and the
/// noiseless simulator is exactly repeatable across seeds.
#[test]
fn noiseless_simulation_is_seed_independent() {
    rng::cases(CASES, |rng| {
        let template = pick(rng, &[1u8, 3, 6, 14]);
        let s1 = rng.gen_range(0u64..50);
        let s2 = rng.gen_range(50u64..100);
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(7);
        let plan = planner.plan(&tpch::instantiate(template, 0.1, &mut rng));
        let sim = Simulator::with_config(SimConfig {
            node_noise_sigma: 0.0,
            query_noise_sigma: 0.0,
            additive_noise_secs: 0.0,
            ..SimConfig::default()
        });
        let a = sim.execute(&plan, 0.1, s1);
        let b = sim.execute(&plan, 0.1, s2);
        assert!((a.total_secs - b.total_secs).abs() < 1e-12);
    });
}

/// Under any fault rates up to 30%, collection accounts for every
/// query, and checked predictions on the survivors — and even on
/// deliberately corrupted copies — are always finite and
/// non-negative, with the producing tier recorded.
#[test]
fn checked_predictions_survive_arbitrary_faults() {
    rng::cases(FAULT_CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let abort = rng.gen_range(0.0f64..0.3);
        let straggle = rng.gen_range(0.0f64..0.3);
        let corrupt = rng.gen_range(0.0f64..0.3);
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 3, 0.1, seed.wrapping_add(1));
        let faults = FaultPlan {
            abort_prob: abort,
            straggler_prob: straggle,
            corrupt_prob: corrupt,
            seed,
            ..FaultPlan::none()
        };
        let (ds, report) = qpp::QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &Simulator::new(),
            seed ^ 0x9E,
            f64::INFINITY,
            &faults,
            &qpp::CollectionConfig::default(),
            &DriftPlan::none(),
        );
        assert!(report.reconciles(), "{report:?}");
        let p = predictor();
        for q in &ds.queries {
            for method in METHODS {
                let pred = p.predict_checked(q, method);
                assert!(
                    pred.value.is_finite() && pred.value >= 0.0,
                    "{method:?} on survivor: {pred:?}"
                );
            }
        }
        // Corrupt a survivor's logged estimates in place: predictions
        // must degrade, never go non-finite or negative.
        if let Some(q) = ds.queries.first() {
            let mut q = q.clone();
            let always = FaultPlan {
                corrupt_prob: 1.0,
                ..faults.clone()
            };
            always.corrupt_estimates(&mut q.plan, seed);
            for method in METHODS {
                let pred = p.predict_checked(&q, method);
                assert!(
                    pred.value.is_finite() && pred.value >= 0.0,
                    "{method:?} on corrupted: {pred:?}"
                );
            }
        }
    });
}

/// Fallible execution is deterministic: same plan, seed, and fault
/// plan yield the same trace or the same error.
#[test]
fn try_execute_is_deterministic_under_faults() {
    rng::cases(FAULT_CASES, |rng| {
        let template = pick(rng, &[1u8, 3, 6, 14]);
        let seed = rng.gen_range(0u64..300);
        let abort = rng.gen_range(0.0f64..0.3);
        let straggle = rng.gen_range(0.0f64..0.3);
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = planner.plan(&tpch::instantiate(template, 0.1, &mut rng));
        let sim = Simulator::new();
        let faults = FaultPlan {
            abort_prob: abort,
            straggler_prob: straggle,
            seed,
            ..FaultPlan::none()
        };
        let a = sim.try_execute(&plan, 0.1, seed, &faults, &DriftPlan::none(), 0);
        let b = sim.try_execute(&plan, 0.1, seed, &faults, &DriftPlan::none(), 0);
        match (a, b) {
            (Ok(ta), Ok(tb)) => {
                assert_eq!(ta.total_secs, tb.total_secs);
                assert!(ta.total_secs.is_finite() && ta.total_secs > 0.0);
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            (x, y) => panic!("outcome mismatch: {x:?} vs {y:?}"),
        }
    });
}
