//! The paper's Section 5 evaluation: one function per experiment, each
//! taking the protocol seed and returning a typed result.
//!
//! Seed `s` adds `s` to [`WORKLOAD_SEED`] and [`EXEC_SEED`]; seed 0 is the
//! published dataset, which the `repro` binary prints.
//! `tests/paper_shapes.rs` runs every experiment on seeds 0–5 and asserts
//! the orderings the paper reports ([`crate::shapes`]), never an absolute.
//! Scales, template sets and instance counts are the paper's, beside the
//! experiment that uses them.

use crate::{
    build_dataset_sized, cross_validate_method, op_level_cv, plan_level_cv, CvOutcome, EXEC_SEED,
    PLAN_CV_SEED, WORKLOAD_SEED,
};
use engine::{Catalog, PlanNode, Planner, SimConfig, Simulator};
use ml::metrics::{mean_relative_error, predictive_risk, relative_error};
use ml::{Dataset, Learner, LearnerKind};
use qpp::hybrid::{train_subplan_model, IterationRecord};
use qpp::subplan::{describe, SubplanInfo};
use qpp::{
    online, structure_key, train_hybrid, ExecutedQuery, FeatureSource, HybridConfig, HybridModel,
    OpLevelModel, OpModelConfig, PlanLevelModel, PlanModelConfig, PlanOrdering, QueryDataset,
    SubplanIndex, ONE_HOUR_SECS,
};
use tpch::Workload;

/// Instances per template (Section 5.1: "approximately 55 queries from
/// each template").
const PER_TEMPLATE: usize = 55;

/// Instances per template of Figure 4's plan-structure analysis.
const FIG4_PER_TEMPLATE: usize = 10;

/// Instances per template of the 1 GB ablations.
const ABLATION_PER_TEMPLATE: usize = 25;

const ESTIMATED: FeatureSource = FeatureSource::Estimated;

/// Figure 4: common sub-plans of the 14-template workload at 10 GB.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// (a) CDF of common-sub-plan sizes: (operators, F) at each size.
    pub cdf: Vec<(usize, f64)>,
    /// (b) The six most common sub-plans.
    pub most_common: Vec<SubplanInfo>,
    /// (c) Per template, the number of other templates it shares a
    /// sub-plan with.
    pub sharing: Vec<(u8, usize)>,
}

/// Figure 4, from plan structures alone: nothing is executed.
pub fn fig4(seed: u64) -> Fig4 {
    let catalog = Catalog::new(10.0, 1);
    let planner = Planner::new(&catalog);
    let workload =
        Workload::generate(&tpch::FOURTEEN, FIG4_PER_TEMPLATE, 10.0, WORKLOAD_SEED + seed);
    let plans: Vec<(u8, Box<[PlanNode]>)> =
        workload.queries.iter().map(|q| (q.template, planner.plan(q).plan)).collect();
    let refs: Vec<(u8, &[PlanNode])> = plans.iter().map(|(t, p)| (*t, &p[..])).collect();
    let index = SubplanIndex::build(&refs);
    let sizes = index.common_size_distribution();
    let sharing = index.template_sharing();
    Fig4 {
        cdf: (0..sizes.len())
            .filter(|&i| sizes.get(i + 1) != Some(&sizes[i]))
            .map(|i| (sizes[i], (i + 1) as f64 / sizes.len() as f64))
            .collect(),
        most_common: index.common(2).into_iter().take(6).cloned().collect(),
        sharing: (tpch::FOURTEEN.iter())
            .map(|&t| (t, sharing.iter().find(|s| s.0 == t).map_or(0, |s| s.1)))
            .collect(),
    }
}

/// Section 5.2 / Figure 5: a least-squares fit of latency on the
/// optimizer's cost estimate (18 templates, 10 GB).
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Queries in the dataset.
    pub queries: usize,
    /// Smallest relative error of the fit.
    pub min: f64,
    /// Mean relative error of the fit.
    pub mean: f64,
    /// Largest relative error of the fit.
    pub max: f64,
    /// Predictive risk of the fit.
    pub risk: f64,
    /// (cost estimate, latency) per query: the scatter.
    pub pairs: Vec<(f64, f64)>,
    /// Of eight queries adjacent in latency, those whose cost estimates
    /// spread widest: (lowest latency, highest latency, cost max / min).
    pub similar_latency: (f64, f64, f64),
}

/// Figure 5.
pub fn fig5(seed: u64) -> Fig5 {
    let ds = build_dataset_sized(10.0, &tpch::EIGHTEEN, PER_TEMPLATE, seed);
    let costs: Vec<f64> = ds.queries.iter().map(|q| q.plan[0].est.total_cost).collect();
    let latencies = ds.latencies();
    let x = Dataset::from_rows(costs.iter().map(|&c| vec![c]).collect());
    let model = LearnerKind::Linear { ridge: 1e-9 }.fit(&x, &latencies).expect("cost regression");
    let preds: Vec<f64> = costs.iter().map(|&c| model.predict(&[c]).max(0.01)).collect();
    let rels: Vec<f64> =
        latencies.iter().zip(&preds).map(|(a, e)| relative_error(*a, *e)).collect();
    let pairs: Vec<(f64, f64)> = costs.into_iter().zip(latencies.iter().copied()).collect();
    let mut by_latency = pairs.clone();
    by_latency.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut similar_latency = (f64::NAN, f64::NAN, 0.0);
    for w in by_latency.windows(8) {
        let (lo, hi) =
            (w.iter()).fold((f64::INFINITY, 0.0f64), |(lo, hi), (c, _)| (lo.min(*c), hi.max(*c)));
        let spread = hi / lo.max(1e-9);
        if spread > similar_latency.2 {
            similar_latency = (w[0].1, w[7].1, spread);
        }
    }
    Fig5 {
        queries: ds.len(),
        min: rels.iter().copied().fold(f64::INFINITY, f64::min),
        mean: mean_relative_error(&latencies, &preds),
        max: rels.iter().copied().fold(0.0, f64::max),
        risk: predictive_risk(&latencies, &preds),
        pairs,
        similar_latency,
    }
}

/// Figure 6: static workloads, 5-fold stratified CV on estimated features.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// (a)/(b) plan-level, 18 templates at 10 GB.
    pub plan_10: CvOutcome,
    /// (c) plan-level, 18 templates at 1 GB.
    pub plan_1: CvOutcome,
    /// (d)/(e) operator-level, 14 templates at 10 GB.
    pub op_10: CvOutcome,
    /// (f) operator-level, 14 templates at 1 GB.
    pub op_1: CvOutcome,
    /// Per template that lost queries to the one-hour limit at 10 GB:
    /// (template, dropped, kept).
    pub timed_out: Vec<(u8, usize, usize)>,
    /// The protocol seed, from which [`fig7`] rebuilds the 10 GB datasets.
    pub seed: u64,
}

/// Figure 6.
pub fn fig6(seed: u64) -> Fig6 {
    let plan = |ds: &QueryDataset| plan_level_cv(ds, &PlanModelConfig::default(), ESTIMATED);
    let op = |sf| {
        let ds = build_dataset_sized(sf, &tpch::FOURTEEN, PER_TEMPLATE, seed);
        op_level_cv(&ds, &OpModelConfig::default(), ESTIMATED)
    };
    let ds = build_dataset_sized(10.0, &tpch::EIGHTEEN, PER_TEMPLATE, seed);
    let kept = |t| ds.queries.iter().filter(|q| q.template == t).count();
    Fig6 {
        plan_10: plan(&ds),
        plan_1: plan(&build_dataset_sized(1.0, &tpch::EIGHTEEN, PER_TEMPLATE, seed)),
        op_10: op(10.0),
        op_1: op(1.0),
        timed_out: ds.timed_out.iter().map(|&(t, n)| (t, n, kept(t))).collect(),
        seed,
    }
}

/// Figure 7: the feature source of the training and of the test side, at
/// 10 GB. Rows are actual/actual, estimate/estimate and actual/estimate;
/// estimate/estimate *is* Figure 6's 10 GB outcome, and (b) is the
/// plan-level actual/actual row's errors per template.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Plan-level (18 templates), one outcome per row.
    pub plan: [CvOutcome; 3],
    /// Operator-level (14 templates), one outcome per row.
    pub op: [CvOutcome; 3],
}

/// Figure 7, reusing Figure 6's estimate/estimate outcomes.
pub fn fig7(fig6: &Fig6) -> Fig7 {
    let actual = FeatureSource::Actual;
    let plan_ds = build_dataset_sized(10.0, &tpch::EIGHTEEN, PER_TEMPLATE, fig6.seed);
    let op_ds = build_dataset_sized(10.0, &tpch::FOURTEEN, PER_TEMPLATE, fig6.seed);
    let plan = PlanModelConfig { source: actual, ..PlanModelConfig::default() };
    let op = OpModelConfig { source: actual, ..OpModelConfig::default() };
    Fig7 {
        plan: [
            plan_level_cv(&plan_ds, &plan, actual),
            fig6.plan_10.clone(),
            plan_level_cv(&plan_ds, &plan, ESTIMATED),
        ],
        op: [
            op_level_cv(&op_ds, &op, actual),
            fig6.op_10.clone(),
            op_level_cv(&op_ds, &op, ESTIMATED),
        ],
    }
}

/// Figure 8: Algorithm 1's training error per iteration under each plan
/// ordering (14 templates, 10 GB).
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Error-, size- and frequency-based, in that order, each with its
    /// iteration records.
    pub per_strategy: Vec<(PlanOrdering, Vec<IterationRecord>)>,
}

/// Figure 8; the 3 % target lies below every strategy's floor, so each
/// runs its 30 iterations.
pub fn fig8(seed: u64) -> Fig8 {
    let ds = build_dataset_sized(10.0, &tpch::FOURTEEN, PER_TEMPLATE, seed);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("op-level");
    let strategies =
        [PlanOrdering::ErrorBased, PlanOrdering::SizeBased, PlanOrdering::FrequencyBased];
    let per_strategy = (strategies.into_iter())
        .map(|strategy| {
            let config = HybridConfig { strategy, target_error: 0.03, ..HybridConfig::default() };
            (strategy, train_hybrid(&refs, op.clone(), &config).expect("hybrid").1)
        })
        .collect();
    Fig8 { per_strategy }
}

/// Figure 9: leave-one-template-out over 12 templates at 10 GB.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Per held-out template, the mean relative error on its queries of
    /// plan-level, operator-level, the error-based and the size-based
    /// hybrid, and online, in that order.
    pub rows: Vec<(u8, [f64; 5])>,
}

impl Fig9 {
    /// Each method's error averaged over the held-out templates.
    pub fn average(&self) -> [f64; 5] {
        std::array::from_fn(|m| {
            self.rows.iter().map(|r| r.1[m]).sum::<f64>() / self.rows.len() as f64
        })
    }
}

/// Figure 9.
pub fn fig9(seed: u64) -> Fig9 {
    let ds = build_dataset_sized(10.0, &tpch::TWELVE, PER_TEMPLATE, seed);
    let rows = (tpch::TWELVE.iter())
        .filter_map(|&held_out| {
            let (train, test) = ds.leave_template_out(held_out);
            if test.is_empty() {
                return None;
            }
            let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();
            let err = |predict: &mut dyn FnMut(&ExecutedQuery) -> f64| {
                mean_relative_error(&actual, &test.iter().map(|q| predict(q)).collect::<Vec<_>>())
            };
            let plan =
                PlanLevelModel::train(&train, &PlanModelConfig::default()).expect("plan-level");
            let op = OpLevelModel::train(&train, &OpModelConfig::default()).expect("op-level");
            let [error_based, size_based] = [PlanOrdering::ErrorBased, PlanOrdering::SizeBased]
                .map(|strategy| {
                    let config =
                        HybridConfig { strategy, max_iterations: 20, ..HybridConfig::default() };
                    train_hybrid(&train, op.clone(), &config).expect("hybrid").0
                });
            // Online builds on the size-based hybrid plus per-query
            // fragments of the incoming plans.
            let incoming: Vec<&[PlanNode]> = test.iter().map(|q| &q.plan[..]).collect();
            let built =
                online::build_models(&size_based, &train, &HybridConfig::default(), &incoming);
            let predict_online = |q: &ExecutedQuery| {
                let views = q.views(size_based.op_model.source());
                online::extend(&size_based, &built, &q.plan, &views)
                    .predict_plan(&q.plan, &views)
                    .latency
            };
            Some((
                held_out,
                [
                    err(&mut |q| plan.predict(q)),
                    err(&mut |q| op.predict(q)),
                    err(&mut |q| error_based.predict(q)),
                    err(&mut |q| size_based.predict(q)),
                    err(&mut |q| predict_online(q)),
                ],
            ))
        })
        .collect();
    Fig9 { rows }
}

/// Section 3.4's worked example on the worst-predicted template-13 query
/// (14 templates, 10 GB).
#[derive(Debug, Clone)]
pub struct Section34 {
    /// The query's latency.
    pub latency: f64,
    /// Operator-level relative error on the query.
    pub before: f64,
    /// Per operator with a prediction and a positive run time: (pre-order
    /// index, operator, actual run time, predicted run time, relative
    /// error).
    pub operators: Vec<(usize, &'static str, f64, f64, f64)>,
    /// The proper sub-plan whose root is predicted worst: (pre-order
    /// index, plan, relative error).
    pub root_cause: (usize, String, f64),
    /// Relative error once one plan-level model covers the root cause.
    pub after: f64,
}

/// Section 3.4's example.
pub fn section34(seed: u64) -> Section34 {
    let ds = build_dataset_sized(10.0, &tpch::FOURTEEN, PER_TEMPLATE, seed);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("op-level");
    let source = op.source();
    let base = HybridModel::operator_only(op);
    let (q, before) = (refs.iter().filter(|q| q.template == 13))
        .map(|q| (*q, relative_error(q.latency(), base.predict(q))))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("template 13 present");
    let views = q.views(source);
    let nodes = &q.plan[..];
    let operators: Vec<_> = (base.predict_plan(&q.plan, &views).nodes.iter().enumerate())
        .filter_map(|(i, node)| {
            let (_, run) = node.times()?;
            let actual = q.trace.timings[i].run;
            (actual > 0.0)
                .then(|| (i, nodes[i].op.name(), actual, run, relative_error(actual, run)))
        })
        .collect();
    // A candidate is a proper fragment: two operators or more, not the
    // whole plan. The first of equal errors wins.
    let &(root, _, _, _, root_error) = (operators.iter())
        .filter(|o| (2..nodes.len()).contains(&nodes[o.0].subtree_len()))
        .reduce(|worst, o| if o.4 > worst.4 { o } else { worst })
        .expect("at least one sub-plan");
    let sub = engine::plan::subplan(nodes, root);
    let key = structure_key(sub);
    let all_views: Vec<_> = refs.iter().map(|r| r.views(source)).collect();
    let plans: Vec<(u8, &[PlanNode])> = refs.iter().map(|r| (r.template, &r.plan[..])).collect();
    let index = SubplanIndex::build(&plans);
    let model = train_subplan_model(key, &refs, &all_views, &index).expect("sub-plan model");
    let mut hybrid = base;
    hybrid.plan_models.insert(key, model);
    Section34 {
        latency: q.latency(),
        before,
        root_cause: (root, describe(sub), root_error),
        after: relative_error(q.latency(), hybrid.predict_plan(&q.plan, &views).latency),
        operators,
    }
}

/// The design-choice ablations of DESIGN.md §6, all at 1 GB.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Plan-level CV error with forward selection and on the full feature
    /// set: (instances per template, selected, full).
    pub feature_selection: [(usize, f64, f64); 3],
    /// Plan-level CV error with SVR (the paper's) and with linear
    /// regression.
    pub svr_linear: (f64, f64),
    /// Operator-level CV error with and without the st1/st2 start-time
    /// features.
    pub start_time: (f64, f64),
    /// Algorithm 1's ε sweep: (ε, sub-plan models kept, final training
    /// error).
    pub epsilon: [(f64, usize, f64); 4],
    /// Plan-level CV error without noise, with multiplicative noise only,
    /// with the default noise and with heavy noise.
    pub noise: [f64; 4],
}

/// The ablations.
pub fn ablation(seed: u64) -> Ablation {
    let plan = PlanModelConfig::default();
    let feature_selection = [6, 12, ABLATION_PER_TEMPLATE].map(|n| {
        let ds = build_dataset_sized(1.0, &tpch::EIGHTEEN, n, seed);
        let full = cross_validate_method(
            &ds,
            PLAN_CV_SEED,
            ESTIMATED,
            |train| PlanLevelModel::train_without_selection(train, &plan).expect("training"),
            |m, plan, views| m.predict_plan(plan, views),
        );
        (n, plan_level_cv(&ds, &plan, ESTIMATED).overall_error(), full.overall_error())
    });
    let linear = PlanModelConfig {
        learner: LearnerKind::Linear { ridge: 1e-6 },
        ..PlanModelConfig::default()
    };
    let plan_ds = build_dataset_sized(1.0, &tpch::EIGHTEEN, ABLATION_PER_TEMPLATE, seed);
    let op_ds = build_dataset_sized(1.0, &tpch::FOURTEEN, ABLATION_PER_TEMPLATE, seed);
    let no_start = OpModelConfig { include_start_features: false, ..OpModelConfig::default() };
    let refs: Vec<&ExecutedQuery> = op_ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("op-level");
    let epsilon = [0.0, 1e-3, 1e-2, 5e-2].map(|epsilon| {
        let config = HybridConfig { epsilon, max_iterations: 20, ..HybridConfig::default() };
        let (hybrid, records) = train_hybrid(&refs, op.clone(), &config).expect("hybrid");
        (epsilon, hybrid.plan_models.len(), records.last().map_or(f64::NAN, |r| r.error))
    });
    let noise = [(0.0, 0.0), (0.05, 0.0), (0.05, 1.5), (0.10, 4.0)].map(|(sigma, additive)| {
        let sim = Simulator::with_config(SimConfig {
            query_noise_sigma: sigma,
            additive_noise_secs: additive,
            ..SimConfig::default()
        });
        let workload =
            Workload::generate(&tpch::EIGHTEEN, ABLATION_PER_TEMPLATE, 1.0, WORKLOAD_SEED + seed);
        let catalog = Catalog::new(1.0, 1);
        let ds = QueryDataset::execute(&catalog, &workload, &sim, EXEC_SEED + seed, ONE_HOUR_SECS);
        plan_level_cv(&ds, &plan, ESTIMATED).overall_error()
    });
    Ablation {
        // The SVR row is the feature-selection row at the same scale.
        svr_linear: (
            feature_selection[2].1,
            plan_level_cv(&plan_ds, &linear, ESTIMATED).overall_error(),
        ),
        feature_selection,
        start_time: (
            op_level_cv(&op_ds, &OpModelConfig::default(), ESTIMATED).overall_error(),
            op_level_cv(&op_ds, &no_start, ESTIMATED).overall_error(),
        ),
        epsilon,
        noise,
    }
}
