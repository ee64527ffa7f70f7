//! Training data: executed queries with logged features and performance.
//!
//! Mirrors the paper's instrumentation (Section 5.1): for each query we
//! log the execution plan, the optimizer estimates, the actual values of
//! features, and the performance metrics (per-operator start-/run-times
//! and total latency). A one-hour execution-time limit is applied when
//! building datasets, exactly like the paper's setup.

use crate::features::{actual_views_into, plan_features, views_into, FeatureSource, NodeView};
use engine::faults::{DriftPlan, ExecError, FaultPlan};
use engine::plan::{NodeTruth, PlanNode, Planned};
use engine::sim::{Simulator, Trace};
use engine::{Catalog, Planner};
use ml::stats::median;
use tpch::workload::Workload;

/// The paper's per-query execution-time limit (one hour).
pub const ONE_HOUR_SECS: f64 = 3600.0;

/// Robustness policy for dataset collection: retries, backoff, and
/// outlier quarantine.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionConfig {
    /// Retries per query after a failed attempt (0 = single attempt).
    pub max_retries: usize,
    /// Base of the deterministic exponential backoff: retry `k` (1-based)
    /// waits `backoff_base_secs * 2^(k-1)` simulated seconds. Tracked in
    /// the report; the simulator itself does not sleep.
    pub backoff_base_secs: f64,
    /// Robust z-score (median/MAD in log-latency space, per template)
    /// beyond which a successful execution is quarantined as an outlier.
    /// `f64::INFINITY` disables quarantine.
    pub quarantine_zscore: f64,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            max_retries: 2,
            backoff_base_secs: 0.25,
            quarantine_zscore: 3.5,
        }
    }
}

impl CollectionConfig {
    /// The pre-fault-tolerance policy: one attempt per query, keep every
    /// successful execution. [`QueryDataset::execute`] uses this, so its
    /// behavior (and its traces) are identical to the original collector.
    pub fn trusting() -> CollectionConfig {
        CollectionConfig {
            max_retries: 0,
            backoff_base_secs: 0.0,
            quarantine_zscore: f64::INFINITY,
        }
    }
}

/// What happened while collecting a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionReport {
    /// Queries in the workload.
    pub attempted: usize,
    /// Queries that made it into the dataset.
    pub succeeded: usize,
    /// Retry attempts performed (across all queries).
    pub retried: usize,
    /// Queries dropped after exhausting retries on aborts.
    pub dropped_aborted: usize,
    /// Queries dropped after exhausting retries on timeout-budget misses.
    pub dropped_timeout: usize,
    /// Queries dropped for exceeding the collection time limit (the
    /// paper's one-hour rule; also recorded in `QueryDataset::timed_out`).
    pub dropped_over_limit: usize,
    /// Successful executions quarantined as outliers or for non-finite
    /// logged features.
    pub quarantined: usize,
    /// Total simulated backoff time spent on retries, in seconds.
    pub backoff_secs: f64,
}

impl CollectionReport {
    /// Queries dropped for any reason (excluding quarantine).
    pub fn dropped(&self) -> usize {
        self.dropped_aborted + self.dropped_timeout + self.dropped_over_limit
    }

    /// True when every query is accounted for:
    /// `succeeded + dropped + quarantined == attempted`.
    pub fn reconciles(&self) -> bool {
        self.succeeded + self.dropped() + self.quarantined == self.attempted
    }
}

/// Result of running one workload query to completion (all attempts),
/// produced on a worker thread and merged into the report serially.
struct QueryAttemptResult {
    /// Failed attempts that were retried (feeds `CollectionReport::retried`
    /// and the deterministic backoff replay).
    retried: usize,
    outcome: AttemptOutcome,
}

enum AttemptOutcome {
    /// The query executed within limits and enters the dataset.
    Executed(ExecutedQuery),
    /// All attempts missed the simulator's timeout budget.
    DroppedTimeout,
    /// All attempts aborted.
    DroppedAborted,
    /// Executed, but past the collection time limit (the one-hour rule).
    OverLimit { template: u8 },
}

/// One executed query: plan, logged features, observed performance.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// TPC-H template number.
    pub template: u8,
    /// The physical plan, as the optimizer's EXPLAIN prints it, in
    /// pre-order.
    pub plan: Box<[PlanNode]>,
    /// What execution found, per node in pre-order: true rows, pages and
    /// selectivity (actual-valued costs derive from them where they are
    /// read).
    pub truth: Box<[NodeTruth]>,
    /// Observed per-operator timings (pre-order) and total latency.
    pub trace: Trace,
}

impl ExecutedQuery {
    /// Observed query latency in seconds.
    pub fn latency(&self) -> f64 {
        self.trace.total_secs
    }

    /// Observed physical disk traffic in 8 KiB pages (the second
    /// performance metric of the paper family — Section 6 discusses
    /// predicting multiple metrics; reference \[1\] predicts disk I/O).
    pub fn total_io_pages(&self) -> f64 {
        self.trace.io_pages.iter().sum()
    }

    /// Per-node feature views under the given source.
    pub fn views(&self, source: FeatureSource) -> Vec<NodeView> {
        let mut out = Vec::new();
        self.views_into(source, &mut out);
        out
    }

    /// [`ExecutedQuery::views`] into a caller-owned buffer (cleared first).
    /// Estimated views read the plan alone; actual views read the plan and
    /// the truth.
    pub fn views_into(&self, source: FeatureSource, out: &mut Vec<NodeView>) {
        match source {
            FeatureSource::Estimated => views_into(&self.plan, out),
            FeatureSource::Actual => actual_views_into(&self.plan, &self.truth, out),
        }
    }
}

/// A dataset of executed queries (the paper's "training data").
#[derive(Debug, Clone, Default)]
pub struct QueryDataset {
    /// Executed queries, template-major order.
    pub queries: Vec<ExecutedQuery>,
    /// Queries dropped for exceeding the execution-time limit, per
    /// template (paper Section 5.1: 38 of 55 template-9 queries at 10 GB).
    pub timed_out: Vec<(u8, usize)>,
}

impl QueryDataset {
    /// Executes a workload and collects the dataset, dropping queries whose
    /// simulated latency exceeds `time_limit_secs` (pass `f64::INFINITY`
    /// to keep everything).
    ///
    /// Equivalent to [`QueryDataset::execute_drifted`] with no faults, the
    /// trusting collection policy and no drift; per-query execution seeds
    /// are identical, so traces are too.
    pub fn execute(
        catalog: &Catalog,
        workload: &Workload,
        simulator: &Simulator,
        seed: u64,
        time_limit_secs: f64,
    ) -> QueryDataset {
        QueryDataset::execute_drifted(
            catalog,
            workload,
            simulator,
            seed,
            time_limit_secs,
            &FaultPlan::none(),
            &CollectionConfig::trusting(),
            &DriftPlan::none(),
        )
        .0
    }

    /// Executes a workload under a fault-injection policy, a robustness
    /// policy and workload drift, returning the surviving dataset plus a
    /// [`CollectionReport`] accounting for every query.
    ///
    /// Failed attempts (aborts, timeout-budget misses) are retried up to
    /// `cfg.max_retries` times with deterministic exponential backoff and
    /// a fresh, deterministic execution seed per attempt. Successful
    /// executions are quarantined when their logged features or latency
    /// are non-finite, or when their log-latency is a robust outlier
    /// within their template group (median/MAD z-score above
    /// `cfg.quarantine_zscore`, groups of at least five).
    ///
    /// Queries are executed in workload order through `drift`, which can
    /// ramp up observed latencies (data growth) or skew the logged
    /// optimizer estimates away from the truth (selectivity shift) as the
    /// stream progresses; [`DriftPlan::none`] leaves both alone.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_drifted(
        catalog: &Catalog,
        workload: &Workload,
        simulator: &Simulator,
        seed: u64,
        time_limit_secs: f64,
        faults: &FaultPlan,
        cfg: &CollectionConfig,
        drift: &DriftPlan,
    ) -> (QueryDataset, CollectionReport) {
        let planner = Planner::new(catalog);
        let mut queries = Vec::with_capacity(workload.len());
        let mut timeouts: Vec<(u8, usize)> = Vec::new();
        let mut report = CollectionReport {
            attempted: workload.len(),
            ..CollectionReport::default()
        };
        // Every query owns an independent seeded RNG (its attempt seeds
        // derive only from `seed`, its workload index, and the attempt
        // number), so queries can execute on worker threads while staying
        // byte-identical to the serial path. The report is rebuilt from the
        // per-query results afterwards, in workload order, replaying the
        // same floating-point accumulation the serial loop performed.
        let run_query = |i: usize, spec: &tpch::QuerySpec| -> QueryAttemptResult {
            let mut planned = planner.plan(spec);
            let mut outcome: Option<(Trace, u64)> = None;
            let mut last_err: Option<ExecError> = None;
            let mut retried = 0usize;
            for attempt in 0..=cfg.max_retries {
                // Attempt 0 uses exactly the seed `execute` always used
                // (seed compatibility); retries decorrelate with a large
                // odd multiplier.
                let exec_seed = seed
                    .wrapping_add(i as u64)
                    .wrapping_add((attempt as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
                if attempt > 0 {
                    retried += 1;
                }
                match simulator.try_execute(&planned, catalog.sf, exec_seed, faults, drift, i) {
                    Ok(trace) => {
                        outcome = Some((trace, exec_seed));
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            let Some((trace, exec_seed)) = outcome else {
                let outcome = match last_err {
                    Some(ExecError::Timeout { .. }) => AttemptOutcome::DroppedTimeout,
                    _ => AttemptOutcome::DroppedAborted,
                };
                return QueryAttemptResult { retried, outcome };
            };
            if trace.total_secs > time_limit_secs {
                return QueryAttemptResult {
                    retried,
                    outcome: AttemptOutcome::OverLimit {
                        template: spec.template,
                    },
                };
            }
            // Corrupt the *logged* estimates after execution: the truth (the
            // simulator's input) is untouched, exactly like a stats bug
            // that garbles what gets written to the log.
            if faults.decide(exec_seed).corrupt_estimates {
                faults.corrupt_estimates(&mut planned.plan, exec_seed);
            }
            // Selectivity-shift drift skews the *logged* estimates by the
            // query's position in the stream — the optimizer's statistics
            // going stale — while the truth (and thus the actual-valued
            // features) stays faithful to what actually ran.
            drift.shift_estimates(&mut planned.plan, i);
            let Planned { plan, truth } = planned;
            QueryAttemptResult {
                retried,
                outcome: AttemptOutcome::Executed(ExecutedQuery {
                    template: spec.template,
                    plan,
                    truth,
                    trace,
                }),
            }
        };
        let results: Vec<QueryAttemptResult> = ml::par::par_map(&workload.queries, run_query);
        for r in results {
            for attempt in 1..=r.retried {
                report.retried += 1;
                report.backoff_secs +=
                    cfg.backoff_base_secs * (1u64 << (attempt - 1).min(32)) as f64;
            }
            match r.outcome {
                AttemptOutcome::Executed(q) => queries.push(q),
                AttemptOutcome::DroppedTimeout => report.dropped_timeout += 1,
                AttemptOutcome::DroppedAborted => report.dropped_aborted += 1,
                AttemptOutcome::OverLimit { template } => {
                    report.dropped_over_limit += 1;
                    match timeouts.iter_mut().find(|(t, _)| *t == template) {
                        Some((_, n)) => *n += 1,
                        None => timeouts.push((template, 1)),
                    }
                }
            }
        }
        // Quarantine 1: non-finite logged features or latency.
        let mut kept = Vec::with_capacity(queries.len());
        for q in queries {
            let latency_ok = q.latency().is_finite() && q.latency() >= 0.0;
            let features_ok = plan_features(&q.plan, &q.views(FeatureSource::Estimated))
                .iter()
                .all(|v| v.is_finite());
            if latency_ok && features_ok {
                kept.push(q);
            } else {
                report.quarantined += 1;
            }
        }
        // Quarantine 2: robust per-template outlier rejection.
        let queries = if cfg.quarantine_zscore.is_finite() {
            quarantine_outliers(kept, cfg.quarantine_zscore, &mut report)
        } else {
            kept
        };
        report.succeeded = queries.len();
        (
            QueryDataset {
                queries,
                timed_out: timeouts,
            },
            report,
        )
    }

    /// Number of retained queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries were retained.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Template labels per query (strata for stratified CV).
    pub fn strata(&self) -> Vec<usize> {
        self.queries.iter().map(|q| q.template as usize).collect()
    }

    /// Observed latencies per query.
    pub fn latencies(&self) -> Vec<f64> {
        self.queries.iter().map(ExecutedQuery::latency).collect()
    }

    /// Distinct templates present, ascending.
    pub fn templates(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::new();
        for q in &self.queries {
            if !out.contains(&q.template) {
                out.push(q.template);
            }
        }
        out.sort_unstable();
        out
    }

    /// Borrowed subset by indices.
    pub fn subset(&self, idx: &[usize]) -> Vec<&ExecutedQuery> {
        idx.iter().map(|&i| &self.queries[i]).collect()
    }

    /// Splits by template: (training = all others, test = `held_out`).
    pub fn leave_template_out(&self, held_out: u8) -> (Vec<&ExecutedQuery>, Vec<&ExecutedQuery>) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for q in &self.queries {
            if q.template == held_out {
                test.push(q);
            } else {
                train.push(q);
            }
        }
        (train, test)
    }
}

/// Robust per-template outlier rejection: within each template group of at
/// least five queries, quarantine those whose log-latency sits more than
/// `z` robust standard deviations (median/MAD) from the group median.
/// Smaller groups are kept whole — a median over two or three points is
/// too noisy to disqualify anything.
fn quarantine_outliers(
    queries: Vec<ExecutedQuery>,
    z: f64,
    report: &mut CollectionReport,
) -> Vec<ExecutedQuery> {
    let templates: Vec<u8> = {
        let mut t: Vec<u8> = queries.iter().map(|q| q.template).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let mut keep = vec![true; queries.len()];
    for t in templates {
        let idx: Vec<usize> = (0..queries.len())
            .filter(|&i| queries[i].template == t)
            .collect();
        if idx.len() < 5 {
            continue;
        }
        let logs: Vec<f64> = idx
            .iter()
            .map(|&i| (1.0 + queries[i].latency()).ln())
            .collect();
        let med = median(&logs);
        let deviations: Vec<f64> = logs.iter().map(|v| (v - med).abs()).collect();
        // 1.4826 × MAD estimates sigma under normality; the floor keeps
        // near-identical groups from flagging harmless jitter.
        let scale = (1.4826 * median(&deviations)).max(1e-3);
        for (&i, &v) in idx.iter().zip(&logs) {
            if (v - med).abs() > z * scale {
                keep[i] = false;
            }
        }
    }
    let mut kept = Vec::with_capacity(queries.len());
    for (q, k) in queries.into_iter().zip(keep) {
        if k {
            kept.push(q);
        } else {
            report.quarantined += 1;
        }
    }
    kept
}

/// A log of `per_template` queries of each of `templates` at scale factor
/// `sf`, executed with the simulator's jitter tuned down: unit tests that
/// assert model accuracy would be swamped by the default absolute jitter at
/// the tiny scale factors they use.
#[cfg(test)]
pub(crate) fn quiet_log(templates: &[u8], per_template: usize, sf: f64) -> QueryDataset {
    let sim = Simulator::with_config(engine::SimConfig {
        additive_noise_secs: 0.05,
        ..engine::SimConfig::default()
    });
    let workload = Workload::generate(templates, per_template, sf, 7);
    QueryDataset::execute(&Catalog::new(sf, 1), &workload, &sim, 11, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::plan_features;

    fn small_dataset() -> QueryDataset {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 4, 0.1, 7);
        QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
    }

    #[test]
    fn executes_and_logs_every_query() {
        let ds = small_dataset();
        assert_eq!(ds.len(), 12);
        assert!(ds.timed_out.is_empty());
        for q in &ds.queries {
            assert!(q.latency() > 0.0);
            assert_eq!(q.trace.timings.len(), q.plan.len());
            assert_eq!(q.trace.io_pages.len(), q.plan.len());
            assert_eq!(q.truth.len(), q.plan.len());
        }
        assert_eq!(ds.templates(), vec![1, 3, 6]);
        assert_eq!(ds.strata().len(), 12);
    }

    #[test]
    fn time_limit_drops_queries() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 6], 3, 0.1, 7);
        let ds = QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, 0.5);
        // Template 1 at SF 0.1 takes > 0.5 s; template 6 is faster but may
        // also exceed it — either way something must be dropped and counts
        // must reconcile.
        let dropped: usize = ds.timed_out.iter().map(|(_, n)| n).sum();
        assert_eq!(ds.len() + dropped, 6);
        assert!(dropped > 0);
    }

    #[test]
    fn leave_template_out_splits() {
        let ds = small_dataset();
        let (train, test) = ds.leave_template_out(3);
        assert_eq!(test.len(), 4);
        assert_eq!(train.len(), 8);
        assert!(test.iter().all(|q| q.template == 3));
    }

    #[test]
    fn views_expose_both_sources() {
        let ds = small_dataset();
        let q = &ds.queries[0];
        let est = q.views(FeatureSource::Estimated);
        let act = q.views(FeatureSource::Actual);
        assert_eq!(est.len(), act.len());
    }

    #[test]
    fn faultless_collection_matches_execute() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 4, 0.1, 7);
        let sim = Simulator::new();
        let plain = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let (ds, report) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &FaultPlan::none(),
            &CollectionConfig::default(),
            &DriftPlan::none(),
        );
        assert_eq!(ds.len(), plain.len());
        for (a, b) in ds.queries.iter().zip(&plain.queries) {
            assert_eq!(a.latency(), b.latency());
            assert_eq!(a.trace.timings.len(), b.trace.timings.len());
        }
        assert!(report.reconciles());
        assert_eq!(report.succeeded, 12);
        assert_eq!(report.retried, 0);
        assert_eq!(report.dropped(), 0);
    }

    #[test]
    fn aborts_trigger_retries_and_report_reconciles() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 6, 0.1, 7);
        let faults = FaultPlan {
            abort_prob: 0.6,
            seed: 5,
            ..FaultPlan::none()
        };
        let cfg = CollectionConfig {
            quarantine_zscore: f64::INFINITY,
            ..CollectionConfig::default()
        };
        let (ds, report) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &Simulator::new(),
            11,
            f64::INFINITY,
            &faults,
            &cfg,
            &DriftPlan::none(),
        );
        assert!(report.reconciles());
        // With a 60% abort rate across 18 queries some attempt must fail,
        // and three-strikes-per-query drops only the persistently unlucky.
        assert!(report.retried > 0);
        assert!(report.backoff_secs > 0.0);
        assert_eq!(ds.len() + report.dropped(), workload.len());
        assert!(ds.len() >= 5);
        for q in &ds.queries {
            assert!(q.latency().is_finite());
        }
    }

    #[test]
    fn corrupted_estimates_never_survive_as_nan_features() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 6, 0.1, 7);
        let faults = FaultPlan {
            corrupt_prob: 0.5,
            seed: 9,
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
        assert!(report.reconciles());
        // Whatever survives has finite estimated features (NaN-poisoned
        // logs are quarantined) and finite truth costs (corruption only
        // touches the logged estimates).
        for q in &ds.queries {
            let views = q.views(FeatureSource::Estimated);
            assert!(plan_features(&q.plan, &views).iter().all(|v| v.is_finite()));
            assert!(q
                .views(FeatureSource::Actual)
                .iter()
                .all(|v| v.startup_cost.is_finite() && v.total_cost.is_finite()));
        }
    }

    #[test]
    fn quarantine_flags_extreme_latency_outliers() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[6], 8, 0.1, 7);
        let sim = Simulator::new();
        let (baseline, _) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &FaultPlan::none(),
            &CollectionConfig::trusting(),
            &DriftPlan::none(),
        );
        // A straggler that always fires would rescale the whole group (no
        // outliers); a rare extreme one should be quarantined.
        let faults = FaultPlan {
            straggler_prob: 0.12,
            straggler_factor: 500.0,
            seed: 3,
            ..FaultPlan::none()
        };
        let (ds, report) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &faults,
            &CollectionConfig::default(),
            &DriftPlan::none(),
        );
        assert!(report.reconciles());
        if report.quarantined > 0 {
            // Survivors stay in the baseline latency regime.
            let max_base = baseline
                .latencies()
                .iter()
                .fold(0.0_f64, |a, &b| a.max(b));
            for l in ds.latencies() {
                assert!(l <= max_base * 10.0);
            }
        }
    }

    #[test]
    fn data_growth_drift_inflates_latencies_only() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 4, 0.1, 7);
        let sim = Simulator::new();
        let baseline = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let drift = DriftPlan {
            kind: engine::DriftKind::DataGrowth,
            onset: 0,
            ramp: 0,
            magnitude: 2.0,
            seed: 1,
        };
        let (drifted, report) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &FaultPlan::none(),
            &CollectionConfig::trusting(),
            &drift,
        );
        assert!(report.reconciles());
        assert_eq!(drifted.len(), baseline.len());
        for (a, b) in drifted.queries.iter().zip(&baseline.queries) {
            // Observed latency doubles; the logged estimates stay stale.
            assert!((a.latency() - 2.0 * b.latency()).abs() < 1e-9);
            assert_eq!(
                plan_features(&a.plan, &a.views(FeatureSource::Estimated)),
                plan_features(&b.plan, &b.views(FeatureSource::Estimated))
            );
        }
    }

    #[test]
    fn selectivity_shift_drift_skews_estimates_only() {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(&[1, 3, 6], 4, 0.1, 7);
        let sim = Simulator::new();
        let baseline = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let drift = DriftPlan {
            kind: engine::DriftKind::SelectivityShift,
            onset: 0,
            ramp: 0,
            magnitude: 3.0,
            seed: 1,
        };
        let (drifted, report) = QueryDataset::execute_drifted(
            &catalog,
            &workload,
            &sim,
            11,
            f64::INFINITY,
            &FaultPlan::none(),
            &CollectionConfig::trusting(),
            &drift,
        );
        assert!(report.reconciles());
        assert_eq!(drifted.len(), baseline.len());
        for (a, b) in drifted.queries.iter().zip(&baseline.queries) {
            // Latencies are untouched; the logged row estimates inflate.
            assert_eq!(a.latency(), b.latency());
            for (da, db) in a.plan.iter().zip(b.plan.iter()) {
                assert!(da.est.rows > db.est.rows, "estimates did not shift");
            }
            // Truth costs remain faithful to what actually ran.
            let costs = |q: &ExecutedQuery| -> Vec<(f64, f64)> {
                q.views(FeatureSource::Actual)
                    .iter()
                    .map(|v| (v.startup_cost, v.total_cost))
                    .collect()
            };
            assert_eq!(costs(a), costs(b));
        }
    }
}
