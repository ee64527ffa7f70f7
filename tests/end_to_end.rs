//! Cross-crate integration tests: the paper's qualitative findings must
//! hold end-to-end on small-scale datasets.

#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use engine::{Catalog, PlanNode};
use ml::metrics::mean_relative_error;
use qpp::hybrid::{train_hybrid, HybridConfig, HybridModel, PlanOrdering};
use qpp::online;
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use qpp::{ExecutedQuery, QueryDataset};
use support::quiet_sim;
use tpch::Workload;

fn dataset(templates: &[u8], per_template: usize, seed: u64) -> QueryDataset {
    // SF 1 costs the same to simulate as SF 0.1 (the simulator is
    // analytic) but exhibits the operator interactions the paper's
    // findings rest on.
    let catalog = Catalog::new(1.0, 1);
    let workload = Workload::generate(templates, per_template, 1.0, seed);
    QueryDataset::execute(&catalog, &workload, &quiet_sim(), 31, f64::INFINITY)
}

fn errors(actual: &[f64], preds: &[f64]) -> f64 {
    mean_relative_error(actual, preds)
}

/// Static workload: plan-level models are highly accurate (Section 5.3.1)
/// and beat the operator-level composition (Section 3.3).
#[test]
fn static_workload_plan_level_beats_operator_level() {
    let ds = dataset(&[1, 3, 5, 6, 7, 12, 14], 14, 5);
    let folds = ml::cv::stratified_kfold(&ds.strata(), 4, 9);
    let mut plan_rows = Vec::new();
    let mut op_rows = Vec::new();
    for fold in &folds {
        let train: Vec<&ExecutedQuery> = ds.subset(&fold.train);
        let pm = PlanLevelModel::train(&train, &PlanModelConfig::default()).unwrap();
        let om = OpLevelModel::train(&train, &OpModelConfig::default()).unwrap();
        for &i in &fold.test {
            let q = &ds.queries[i];
            plan_rows.push((q.latency(), pm.predict(q)));
            op_rows.push((q.latency(), om.predict(q)));
        }
    }
    let (a, p): (Vec<f64>, Vec<f64>) = plan_rows.into_iter().unzip();
    let plan_err = errors(&a, &p);
    let (a2, o): (Vec<f64>, Vec<f64>) = op_rows.into_iter().unzip();
    let op_err = errors(&a2, &o);
    assert!(plan_err < 0.15, "plan-level static error = {plan_err}");
    assert!(
        plan_err < op_err,
        "plan-level ({plan_err}) must beat operator-level ({op_err}) on static workloads \
         with template diversity"
    );
}

/// Dynamic workload: the plan-level model degrades badly on an unseen
/// template while operator-level models generalize (Section 3.3 / Fig 9).
#[test]
fn dynamic_workload_plan_level_degrades() {
    let ds = dataset(&[1, 3, 5, 6, 9, 14], 12, 77);
    let (train, test) = ds.leave_template_out(9);
    let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();

    let pm = PlanLevelModel::train(&train, &PlanModelConfig::default()).unwrap();
    let plan_err = errors(&actual, &test.iter().map(|q| pm.predict(q)).collect::<Vec<_>>());

    // Static CV error on the training templates for contrast.
    let folds = ml::cv::kfold(train.len(), 4, 3);
    let mut static_rows = Vec::new();
    for fold in &folds {
        let sub: Vec<&ExecutedQuery> = fold.train.iter().map(|&i| train[i]).collect();
        let m = PlanLevelModel::train(&sub, &PlanModelConfig::default()).unwrap();
        for &i in &fold.test {
            static_rows.push((train[i].latency(), m.predict(train[i])));
        }
    }
    let (sa, sp): (Vec<f64>, Vec<f64>) = static_rows.into_iter().unzip();
    let static_err = errors(&sa, &sp);

    assert!(
        plan_err > 2.0 * static_err,
        "unseen-template error ({plan_err}) should dwarf static error ({static_err})"
    );
}

/// The hybrid method ends at or below the operator-level error and its
/// accepted iterations decrease the training error monotonically
/// (Algorithm 1).
#[test]
fn hybrid_improves_on_operator_level() {
    let ds = dataset(&[1, 3, 6, 10, 12, 14], 12, 13);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let actual: Vec<f64> = refs.iter().map(|q| q.latency()).collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let op_err = errors(&actual, &refs.iter().map(|q| op.predict(q)).collect::<Vec<_>>());
    let (hybrid, records) = train_hybrid(
        &refs,
        op,
        &HybridConfig {
            strategy: PlanOrdering::ErrorBased,
            max_iterations: 12,
            min_frequency: 4,
            ..HybridConfig::default()
        },
    )
    .unwrap();
    let hybrid_err = errors(
        &actual,
        &refs.iter().map(|q| hybrid.predict(q)).collect::<Vec<_>>(),
    );
    assert!(
        hybrid_err <= op_err + 1e-9,
        "hybrid ({hybrid_err}) worse than operator-level ({op_err})"
    );
    let mut prev = f64::INFINITY;
    for r in records.iter().filter(|r| r.accepted) {
        assert!(r.error <= prev + 1e-9, "non-monotone accepted iteration");
        prev = r.error;
    }
}

/// Online modeling on an unseen template is never wildly worse than the
/// operator-level baseline (its guards must prevent harmful models).
#[test]
fn online_modeling_is_guarded() {
    let ds = dataset(&[1, 3, 6, 10, 12, 14], 12, 21);
    for held in [3u8, 10, 12] {
        let (train, test) = ds.leave_template_out(held);
        let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();
        let op = OpLevelModel::train(&train, &OpModelConfig::default()).unwrap();
        let op_err = errors(&actual, &test.iter().map(|q| op.predict(q)).collect::<Vec<_>>());
        let source = op.source();
        let base = HybridModel::operator_only(op);
        let config = HybridConfig {
            min_frequency: 4,
            ..HybridConfig::default()
        };
        let incoming: Vec<&[PlanNode]> = test.iter().map(|q| &q.plan[..]).collect();
        let built = online::build_models(&base, &train, &config, &incoming);
        let online_err = errors(
            &actual,
            &test
                .iter()
                .map(|q| {
                    let views = q.views(source);
                    online::extend(&base, &built, &q.plan, &views)
                        .predict_plan(&q.plan, &views)
                        .latency
                })
                .collect::<Vec<_>>(),
        );
        assert!(
            online_err <= op_err * 1.3 + 0.05,
            "t{held}: online {online_err} vs op {op_err}"
        );
    }
}

/// The optimizer's cost estimate orders same-template plans but fails as a
/// latency predictor across templates (Section 5.2).
#[test]
fn optimizer_cost_is_a_poor_latency_predictor() {
    let ds = dataset(&[1, 3, 6, 9, 14], 10, 55);
    use ml::{Dataset, Learner, LearnerKind};
    let costs: Vec<f64> = ds.queries.iter().map(|q| q.plan[0].est.total_cost).collect();
    let lat = ds.latencies();
    let x = Dataset::from_rows(costs.iter().map(|&c| vec![c]).collect());
    let m = LearnerKind::Linear { ridge: 1e-9 }.fit(&x, &lat).unwrap();
    let preds: Vec<f64> = costs.iter().map(|&c| m.predict(&[c]).max(0.01)).collect();
    let err = errors(&lat, &preds);
    assert!(err > 0.4, "cost-based prediction error = {err} (too good)");
}

/// Queries over the time limit are dropped exactly like the paper's
/// dataset construction.
#[test]
fn time_limit_reproduces_dataset_construction() {
    let catalog = Catalog::new(1.0, 1);
    let workload = Workload::generate(&[6, 9], 6, 1.0, 3);
    let ds = QueryDataset::execute(&catalog, &workload, &quiet_sim(), 31, 60.0);
    // Template 9 at SF 1 has instances beyond 60 s; template 6 does not.
    assert!(ds.timed_out.iter().any(|(t, _)| *t == 9));
    assert!(ds.queries.iter().any(|q| q.template == 6));
    for q in &ds.queries {
        assert!(q.latency() <= 60.0);
    }
}
