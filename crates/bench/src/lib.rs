//! Experiment harness: the paper's Section 5 evaluation as one protocol
//! ([`paper`]: one function per experiment, printed by the `repro` binary),
//! the orderings it reports ([`shapes`]: asserted on seeds 0–5 by
//! `tests/paper_shapes.rs` and on seed 0 by `repro`), and the shared
//! plumbing under them — the Section 5.1 dataset builder and the
//! stratified cross-validation driver every prediction method goes
//! through.

#![warn(missing_docs)]

pub mod paper;
pub mod shapes;

use engine::{Catalog, PlanNode, Simulator};
use ml::cv::{stratified_kfold, Fold};
use ml::metrics::mean_relative_error;
use qpp::dataset::{ExecutedQuery, QueryDataset, ONE_HOUR_SECS};
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use qpp::{FeatureSource, NodeView};
use std::collections::BTreeMap;
use tpch::Workload;

/// Number of cross-validation folds (Section 5.1).
const CV_FOLDS: usize = 5;

/// Fold seed of plan-level cross-validation.
pub(crate) const PLAN_CV_SEED: u64 = 42;

/// Fold seed of operator-level cross-validation.
const OP_CV_SEED: u64 = 17;

/// Workload seed of the published dataset; seed `s` of the protocol adds
/// `s`.
pub const WORKLOAD_SEED: u64 = 20120401;

/// Execution-noise seed of the published dataset; seed `s` adds `s`.
pub const EXEC_SEED: u64 = 777;

/// Builds the Section 5.1 dataset at `per_template` instances per template
/// under protocol seed `seed` (0 is the published dataset), executed cold
/// with the one-hour limit applied.
pub fn build_dataset_sized(
    sf: f64,
    templates: &[u8],
    per_template: usize,
    seed: u64,
) -> QueryDataset {
    let catalog = Catalog::new(sf, 1);
    let workload = Workload::generate(templates, per_template, sf, WORKLOAD_SEED + seed);
    let simulator = Simulator::new();
    QueryDataset::execute(&catalog, &workload, &simulator, EXEC_SEED + seed, ONE_HOUR_SECS)
}

/// Out-of-fold predictions: (template, actual, predicted) per query.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// One row per query of the dataset, original order.
    pub rows: Vec<(u8, f64, f64)>,
}

impl CvOutcome {
    /// Mean relative error over all queries (per-fold averaging matches
    /// pooled averaging for equal-size folds; we report the pooled value).
    pub fn overall_error(&self) -> f64 {
        let actual: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let est: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        mean_relative_error(&actual, &est)
    }

    /// Mean relative error per template, ascending template order.
    pub fn per_template_errors(&self) -> Vec<(u8, f64)> {
        let mut by_template: BTreeMap<u8, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for &(t, actual, predicted) in &self.rows {
            let (a, e) = by_template.entry(t).or_default();
            a.push(actual);
            e.push(predicted);
        }
        by_template.into_iter().map(|(t, (a, e))| (t, mean_relative_error(&a, &e))).collect()
    }
}

/// Generic stratified-CV driver: `fit` builds a model from training
/// queries, `predict` scores one held-out plan from its feature views
/// under `test` (which may differ from the source the model trained on:
/// Figure 7's actual/estimate row).
///
/// Folds train and score concurrently when more than one worker thread is
/// configured (see `ml::par`); each fold writes a disjoint set of row
/// indices, and results are merged in fold order, so the outcome is
/// identical to a serial run.
pub(crate) fn cross_validate_method<M: Send>(
    ds: &QueryDataset,
    seed: u64,
    test: FeatureSource,
    fit: impl Fn(&[&ExecutedQuery]) -> M + Sync,
    predict: impl Fn(&M, &[PlanNode], &[NodeView]) -> f64 + Sync,
) -> CvOutcome {
    let strata = ds.strata();
    let folds = stratified_kfold(&strata, CV_FOLDS.min(ds.len()).max(2), seed);
    // (query index, (template, actual latency, predicted latency)).
    type FoldRow = (usize, (u8, f64, f64));
    let run_fold = |fold: &Fold| -> Vec<FoldRow> {
        let train = ds.subset(&fold.train);
        let model = fit(&train);
        fold.test
            .iter()
            .map(|&i| {
                let q = &ds.queries[i];
                let predicted = predict(&model, &q.plan, &q.views(test));
                (i, (q.template, q.latency(), predicted))
            })
            .collect()
    };
    let fold_rows: Vec<Vec<FoldRow>> = ml::par::par_map(&folds, |_, fold| run_fold(fold));
    let mut rows = vec![(0u8, 0.0, 0.0); ds.len()];
    for per_fold in fold_rows {
        for (i, row) in per_fold {
            rows[i] = row;
        }
    }
    CvOutcome { rows }
}

/// Plan-level CV (Figure 6(a)-(c)), scored on `test` views.
pub(crate) fn plan_level_cv(
    ds: &QueryDataset,
    config: &PlanModelConfig,
    test: FeatureSource,
) -> CvOutcome {
    cross_validate_method(
        ds,
        PLAN_CV_SEED,
        test,
        |train| PlanLevelModel::train(train, config).expect("plan-level training"),
        |m, plan, views| m.predict_plan(plan, views),
    )
}

/// Operator-level CV (Figure 6(d)-(f)), scored on `test` views.
pub(crate) fn op_level_cv(
    ds: &QueryDataset,
    config: &OpModelConfig,
    test: FeatureSource,
) -> CvOutcome {
    cross_validate_method(
        ds,
        OP_CV_SEED,
        test,
        |train| OpLevelModel::train(train, config).expect("op-level training"),
        |m, plan, views| m.predict_plan(plan, views),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_builder_matches_protocol() {
        let ds = build_dataset_sized(0.05, &[1, 6], 4, 0);
        assert_eq!(ds.len(), 8);
        assert_eq!(ds.templates(), vec![1, 6]);
        let other = build_dataset_sized(0.05, &[1, 6], 4, 1);
        assert_ne!(ds.latencies(), other.latencies(), "the seed moves the dataset");
    }

    #[test]
    fn cv_outcome_aggregations() {
        let out = CvOutcome {
            rows: vec![(2, 100.0, 200.0), (1, 10.0, 11.0), (2, 100.0, 100.0), (1, 10.0, 9.0)],
        };
        let per = out.per_template_errors();
        assert_eq!(per.iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 2]);
        assert!((per[0].1 - 0.1).abs() < 1e-12);
        assert!((per[1].1 - 0.5).abs() < 1e-12);
        assert!((out.overall_error() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn plan_level_cv_runs_end_to_end_small() {
        let ds = build_dataset_sized(0.05, &[1, 3, 6], 8, 0);
        let out = plan_level_cv(&ds, &PlanModelConfig::default(), FeatureSource::Estimated);
        assert_eq!(out.rows.len(), ds.len());
        assert!(out.overall_error().is_finite());
    }
}
