//! Progressive prediction with run-time features (the extension sketched
//! in the paper's conclusions: "supplement the static models with
//! additional run-time features ... predictions are continually updated
//! during query execution").
//!
//! As a query executes, operators complete and their *observed* start/run
//! times become available. Progressive prediction is the hybrid's
//! bottom-up walk with those observations overlaid: a finished node
//! answers with its observed times before any model is asked, so the
//! prediction sharpens toward the true latency as execution progresses.

use crate::dataset::ExecutedQuery;
use crate::features::NodeView;
use crate::hybrid::HybridModel;
use engine::plan::PlanNode;
use engine::sim::Trace;

/// Per-node observations available at some point during execution:
/// `Some((start, run))` once the operator has finished producing output.
pub type Observations = Vec<Option<(f64, f64)>>;

/// Derives the observations visible at `elapsed` seconds into an
/// execution: a node is observed, with its `(start, run)`, once its run
/// time (the elapsed seconds until its last output tuple) has passed, and
/// not at all before. A started but unfinished node contributes nothing:
/// the models predict it from its children's answers.
pub fn observations_at(trace: &Trace, elapsed: f64) -> Observations {
    trace
        .timings
        .iter()
        .map(|t| {
            if t.run <= elapsed {
                Some((t.start, t.run))
            } else {
                None
            }
        })
        .collect()
}

/// Predicts a query's latency given the observations collected so far.
///
/// The hybrid's walk ([`HybridModel::predict_plan`]) with `observed`
/// overlaid: a finished sub-plan answers with its *actual* times, which
/// feed its parents' feature vectors, so the composition only models the
/// part of the plan that has not happened yet. With no observations this
/// equals [`HybridModel::predict_plan`]'s latency; with all nodes observed
/// it returns the root's observed run time.
pub fn predict_progressive(
    model: &HybridModel,
    plan: &[PlanNode],
    views: &[NodeView],
    observed: &Observations,
) -> f64 {
    assert_eq!(
        observed.len(),
        plan.len(),
        "observations misaligned with plan"
    );
    model.compose_plan(plan, views, observed, None)
}

/// Predicts at a wall-clock point during execution: composes with the
/// observations visible at `elapsed` and floors the result at `elapsed`
/// itself — a query that is still running after N seconds cannot finish
/// in less than N seconds, the cheapest run-time feature there is.
pub(crate) fn predict_progressive_at(
    model: &HybridModel,
    plan: &[PlanNode],
    views: &[NodeView],
    trace: &Trace,
    elapsed: f64,
) -> f64 {
    let obs = observations_at(trace, elapsed);
    predict_progressive(model, plan, views, &obs).max(elapsed)
}

/// Convenience: the error trajectory of progressive prediction over an
/// executed query, evaluated at the given fractions of its true latency.
/// Returns `(fraction, prediction)` pairs.
pub fn trajectory(
    model: &HybridModel,
    query: &ExecutedQuery,
    fractions: &[f64],
) -> Vec<(f64, f64)> {
    let views = query.views(model.op_model.source());
    fractions
        .iter()
        .map(|&f| {
            let elapsed = query.latency() * f;
            (
                f,
                predict_progressive_at(model, &query.plan, &views, &query.trace, elapsed),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};
    use crate::op_model::{OpLevelModel, OpModelConfig};
    use ml::metrics::relative_error;

    fn setup() -> (QueryDataset, HybridModel) {
        let ds = quiet_log(&[1, 3, 5, 12], 10, 0.5);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        (ds, HybridModel::operator_only(op))
    }

    #[test]
    fn no_observations_match_the_static_prediction() {
        let (ds, model) = setup();
        let q = &ds.queries[0];
        let views = q.views(model.op_model.source());
        let obs = vec![None; q.plan.len()];
        let progressive = predict_progressive(&model, &q.plan, &views, &obs);
        let static_pred = model.predict_plan(&q.plan, &views).latency;
        assert!((progressive - static_pred).abs() < 1e-9);
    }

    #[test]
    fn full_observations_recover_the_true_latency() {
        let (ds, model) = setup();
        let q = &ds.queries[0];
        let views = q.views(model.op_model.source());
        let obs = observations_at(&q.trace, f64::INFINITY);
        let p = predict_progressive(&model, &q.plan, &views, &obs);
        assert!(relative_error(q.latency(), p) < 1e-9);
    }

    #[test]
    fn error_shrinks_with_execution_progress_on_average() {
        let (ds, model) = setup();
        let fractions = [0.0, 0.5, 0.9];
        let mut errs = vec![0.0f64; fractions.len()];
        for q in &ds.queries {
            for (i, (_, p)) in trajectory(&model, q, &fractions).into_iter().enumerate() {
                errs[i] += relative_error(q.latency(), p);
            }
        }
        // Later checkpoints must not be worse than the static prediction.
        assert!(
            errs[2] <= errs[0] + 1e-9,
            "errors across progress: {errs:?}"
        );
    }

    #[test]
    fn observations_at_respects_run_times() {
        let (ds, _) = setup();
        let q = &ds.queries[0];
        let half = observations_at(&q.trace, q.latency() * 0.5);
        // The root cannot be observed at half time; some leaf usually is.
        assert!(half[0].is_none());
        let all = observations_at(&q.trace, q.latency() + 1.0);
        assert!(all.iter().all(Option::is_some));
    }
}
