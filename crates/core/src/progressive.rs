//! Progressive prediction with run-time features (the extension sketched
//! in the paper's conclusions: "supplement the static models with
//! additional run-time features ... predictions are continually updated
//! during query execution").
//!
//! As a query executes, operators complete and their *observed* start/run
//! times become available. This module re-runs the bottom-up composition
//! substituting observed values for model predictions wherever they exist,
//! so the prediction sharpens monotonically toward the true latency as
//! execution progresses.

use crate::dataset::ExecutedQuery;
use crate::features::NodeView;
use crate::hybrid::HybridModel;
use crate::plan_model::PredictBuffers;
use engine::plan::PlanNode;
use engine::sim::Trace;

/// Per-node observations available at some point during execution:
/// `Some((start, run))` once the operator has finished producing output.
pub type Observations = Vec<Option<(f64, f64)>>;

/// Derives the observations visible at `elapsed` seconds into an
/// execution: a node is fully observed once its run-time has passed, and
/// its start-time alone once its first tuple was produced.
///
/// Partially-observed nodes (started, not finished) contribute their
/// observed start with the model's run prediction; that refinement happens
/// inside [`predict_progressive`].
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
/// Fully-observed sub-plans feed their *actual* times into their parents'
/// feature vectors — the composition only models the part of the plan that
/// has not happened yet. With no observations this equals
/// [`HybridModel::predict_plan`]; with all nodes observed it returns the
/// true latency.
pub fn predict_progressive(
    model: &HybridModel,
    plan: &PlanNode,
    views: &[NodeView],
    observed: &Observations,
) -> f64 {
    assert_eq!(
        observed.len(),
        plan.node_count(),
        "observations misaligned with plan"
    );
    let (_, run) = compose(model, plan, views, observed, &mut 0);
    run.max(0.0)
}

/// Predicts at a wall-clock point during execution: composes with the
/// observations visible at `elapsed` and floors the result at `elapsed`
/// itself — a query that is still running after N seconds cannot finish
/// in less than N seconds, the cheapest run-time feature there is.
pub fn predict_progressive_at(
    model: &HybridModel,
    plan: &PlanNode,
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

fn compose(
    model: &HybridModel,
    node: &PlanNode,
    views: &[NodeView],
    observed: &Observations,
    cursor: &mut usize,
) -> (f64, f64) {
    let my_idx = *cursor;
    // A finished sub-plan needs no model at all.
    if let Some(times) = observed[my_idx] {
        *cursor += node.node_count();
        return times;
    }
    // Covered by a sub-plan plan-level model? Use it (static path).
    let key = crate::subplan::structure_key(node);
    if let Some(sm) = model.plan_models.get(&key) {
        let size = node.node_count();
        *cursor += size;
        let slice = &views[my_idx..my_idx + size];
        let f = crate::features::plan_features(node, slice);
        let start = sm.start.predict(&f).max(0.0);
        let run = sm.run.predict(&f).max(start);
        return (start, run);
    }
    *cursor += 1;
    let mut child_times = Vec::with_capacity(node.children.len());
    let mut child_views = Vec::with_capacity(node.children.len());
    for c in &node.children {
        let v_idx = *cursor;
        child_times.push(compose(model, c, views, observed, cursor));
        child_views.push(&views[v_idx]);
    }
    PredictBuffers::with_thread_local(|buf| {
        model.op_model.predict_node(
            node,
            &views[my_idx],
            &child_views,
            &child_times,
            &mut buf.row,
            &mut buf.scratch,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryDataset;
    use crate::op_model::{OpLevelModel, OpModelConfig};
    use engine::{Catalog, Simulator};
    use ml::metrics::relative_error;
    use tpch::Workload;

    fn quiet_sim() -> Simulator {
        Simulator::with_config(engine::SimConfig {
            additive_noise_secs: 0.05,
            ..engine::SimConfig::default()
        })
    }

    fn setup() -> (QueryDataset, HybridModel) {
        let catalog = Catalog::new(0.5, 1);
        let workload = Workload::generate(&[1, 3, 5, 12], 10, 0.5, 7);
        let ds = QueryDataset::execute(&catalog, &workload, &quiet_sim(), 11, f64::INFINITY);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        (ds, HybridModel::operator_only(op))
    }

    #[test]
    fn no_observations_match_the_static_prediction() {
        let (ds, model) = setup();
        let q = &ds.queries[0];
        let views = q.views(model.op_model.source());
        let obs = vec![None; q.plan.node_count()];
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
