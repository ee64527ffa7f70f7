//! Experiment harness: shared plumbing for the figure/table regeneration
//! binaries.
//!
//! Each binary in `src/bin/` regenerates one of the paper's figures or
//! tables (see DESIGN.md's experiment index); this library holds the
//! common protocol pieces — dataset construction matching Section 5.1,
//! stratified cross-validation drivers for every prediction method, and
//! per-template error reporting.

#![warn(missing_docs)]

pub mod report;
pub mod schema;

use engine::{Catalog, Simulator};
use ml::cv::{stratified_kfold, Fold};
use ml::metrics::mean_relative_error;
use qpp::dataset::{ExecutedQuery, QueryDataset, ONE_HOUR_SECS};
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use tpch::Workload;

/// Number of query instances per template (Section 5.1: "approximately 55
/// queries from each template").
pub const PER_TEMPLATE: usize = 55;

/// Number of cross-validation folds (Section 5.1).
pub const CV_FOLDS: usize = 5;

/// Workload seed shared by all experiments so datasets are identical
/// across binaries.
pub const WORKLOAD_SEED: u64 = 20120401;

/// Execution-noise seed.
pub const EXEC_SEED: u64 = 777;

/// Builds the Section 5.1 dataset at `per_template` instances per template
/// ([`PER_TEMPLATE`] in the paper's protocol), executed cold with the
/// one-hour limit applied.
pub fn build_dataset_sized(sf: f64, templates: &[u8], per_template: usize) -> QueryDataset {
    let catalog = Catalog::new(sf, 1);
    let workload = Workload::generate(templates, per_template, sf, WORKLOAD_SEED);
    let simulator = Simulator::new();
    QueryDataset::execute(&catalog, &workload, &simulator, EXEC_SEED, ONE_HOUR_SECS)
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
        let mut templates: Vec<u8> = self.rows.iter().map(|r| r.0).collect();
        templates.sort_unstable();
        templates.dedup();
        templates
            .into_iter()
            .map(|t| {
                let (a, e): (Vec<f64>, Vec<f64>) = self
                    .rows
                    .iter()
                    .filter(|r| r.0 == t)
                    .map(|r| (r.1, r.2))
                    .unzip();
                (t, mean_relative_error(&a, &e))
            })
            .collect()
    }

    /// Mean error over the subset of templates whose error is below the
    /// threshold, with the count (the paper's "11 of 14 templates below
    /// 20%" style of reporting).
    pub fn below_threshold(&self, threshold: f64) -> (usize, f64) {
        let per = self.per_template_errors();
        let good: Vec<f64> = per
            .iter()
            .filter(|(_, e)| *e < threshold)
            .map(|(_, e)| *e)
            .collect();
        if good.is_empty() {
            (0, f64::NAN)
        } else {
            (good.len(), good.iter().sum::<f64>() / good.len() as f64)
        }
    }
}

/// Generic stratified-CV driver: `fit` builds a model from training
/// queries, `predict` scores one query.
///
/// Folds train and score concurrently when more than one worker thread is
/// configured (see `ml::par`); each fold writes a disjoint set of row
/// indices, and results are merged in fold order, so the outcome is
/// identical to a serial run.
pub fn cross_validate_method<M: Send>(
    ds: &QueryDataset,
    seed: u64,
    fit: impl Fn(&[&ExecutedQuery]) -> M + Sync,
    predict: impl Fn(&M, &ExecutedQuery) -> f64 + Sync,
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
                (i, (q.template, q.latency(), predict(&model, q)))
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

/// Plan-level CV (Figure 6(a)-(c)).
pub fn plan_level_cv(ds: &QueryDataset, config: &PlanModelConfig) -> CvOutcome {
    cross_validate_method(
        ds,
        42,
        |train| PlanLevelModel::train(train, config).expect("plan-level training"),
        |m, q| m.predict(q),
    )
}

/// Operator-level CV (Figure 6(d)-(f)).
pub fn op_level_cv(ds: &QueryDataset, config: &OpModelConfig) -> CvOutcome {
    cross_validate_method(
        ds,
        17,
        |train| OpLevelModel::train(train, config).expect("op-level training"),
        |m, q| m.predict(q),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_builder_matches_protocol() {
        let ds = build_dataset_sized(0.05, &[1, 6], 4);
        assert_eq!(ds.len(), 8);
        assert_eq!(ds.templates(), vec![1, 6]);
    }

    #[test]
    fn cv_outcome_aggregations() {
        let out = CvOutcome {
            rows: vec![
                (1, 10.0, 11.0),
                (1, 10.0, 9.0),
                (2, 100.0, 200.0),
                (2, 100.0, 100.0),
            ],
        };
        let per = out.per_template_errors();
        assert_eq!(per.len(), 2);
        assert!((per[0].1 - 0.1).abs() < 1e-12);
        assert!((per[1].1 - 0.5).abs() < 1e-12);
        assert!((out.overall_error() - 0.3).abs() < 1e-12);
        let (n, avg) = out.below_threshold(0.2);
        assert_eq!(n, 1);
        assert!((avg - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plan_level_cv_runs_end_to_end_small() {
        let ds = build_dataset_sized(0.05, &[1, 3, 6], 8);
        let out = plan_level_cv(&ds, &PlanModelConfig::default());
        assert_eq!(out.rows.len(), ds.len());
        assert!(out.overall_error().is_finite());
    }
}
