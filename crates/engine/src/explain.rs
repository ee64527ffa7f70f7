//! EXPLAIN-style plan rendering.
//!
//! Mirrors PostgreSQL's `EXPLAIN` output format: one line per node with
//! `(cost=startup..total rows=N width=W)`, indented children, and — in
//! `explain_analyze` mode — the observed start/run times next to the
//! estimates and the true rows, which is exactly the information the
//! paper's instrumentation logged for model training. Plain `explain`
//! reads the plan alone: it is what the optimizer knows.

use crate::plan::{NodeTruth, OpDetail, PlanNode};
use crate::sim::Trace;
use std::fmt::Write;

/// Renders a plan like `EXPLAIN`.
pub fn explain(plan: &[PlanNode]) -> String {
    render(plan, None)
}

/// Renders a plan with observed timings and true rows (`truth`, one per
/// node in pre-order) like `EXPLAIN ANALYZE`.
///
/// # Panics
/// Panics if the truth or the trace does not align with the plan.
pub fn explain_analyze(plan: &[PlanNode], truth: &[NodeTruth], trace: &Trace) -> String {
    assert_eq!(truth.len(), plan.len(), "truth does not match plan");
    assert_eq!(trace.timings.len(), plan.len(), "trace does not match plan");
    render(plan, Some((truth, trace)))
}

/// One line per node in pre-order, indented by its depth: the number of
/// ancestors whose subtree has not ended at its position.
fn render(plan: &[PlanNode], analyze: Option<(&[NodeTruth], &Trace)>) -> String {
    let mut out = String::new();
    let mut open_ends: Vec<usize> = Vec::new();
    for (i, node) in plan.iter().enumerate() {
        while open_ends.last().is_some_and(|&end| end <= i) {
            open_ends.pop();
        }
        let depth = open_ends.len();
        if depth > 0 {
            let _ = write!(out, "{}->  ", "  ".repeat(depth));
        }
        let _ = write!(
            out,
            "{}  (cost={:.2}..{:.2} rows={:.0} width={:.0})",
            describe(node),
            node.est.startup_cost,
            node.est.total_cost,
            node.est.rows,
            node.est.width
        );
        if let Some((truth, t)) = analyze {
            let nt = t.timings[i];
            let _ = write!(
                out,
                " (actual start={:.3}s run={:.3}s rows={:.0})",
                nt.start, nt.run, truth[i].rows
            );
        }
        out.push('\n');
        open_ends.push(i + node.subtree_len());
    }
    out
}

fn describe(node: &PlanNode) -> String {
    match &node.detail {
        OpDetail::Scan { table, filters } => {
            if filters.is_empty() {
                format!("{} on {}", node.op.name(), table.name())
            } else {
                format!(
                    "{} on {} ({} filter{})",
                    node.op.name(),
                    table.name(),
                    filters.len(),
                    if filters.len() == 1 { "" } else { "s" }
                )
            }
        }
        OpDetail::Join { kind, on } => {
            format!("{} [{kind:?}] ({} = {})", node.op.name(), on.0, on.1)
        }
        OpDetail::Agg {
            n_aggs,
            n_group_cols,
            ..
        } => format!(
            "{} ({} aggs, {} group cols)",
            node.op.name(),
            n_aggs,
            n_group_cols
        ),
        OpDetail::Sort { keys } => format!("{} ({} keys)", node.op.name(), keys),
        OpDetail::Materialize { rescans } => {
            format!("{} (~{:.0} rescans)", node.op.name(), rescans)
        }
        OpDetail::Limit { count } => format!("{} ({count})", node.op.name()),
        OpDetail::Subquery { correlated, .. } => format!(
            "{} ({})",
            node.op.name(),
            if *correlated { "SubPlan" } else { "InitPlan" }
        ),
        OpDetail::None => node.op.name().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::planner::Planner;
    use crate::sim::Simulator;
    use rng::StdRng;
    use tpch::templates;

    #[test]
    fn explain_renders_every_node() {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(1);
        let spec = templates::instantiate(3, 0.1, &mut rng);
        let plan = planner.plan(&spec).plan;
        let text = explain(&plan);
        assert_eq!(text.lines().count(), plan.len());
        assert!(text.contains("cost="));
        assert!(text.contains("customer"));
        assert!(text.contains("lineitem"));
    }

    #[test]
    fn explain_analyze_includes_actuals() {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(1);
        let spec = templates::instantiate(6, 0.1, &mut rng);
        let planned = planner.plan(&spec);
        let trace = Simulator::new().execute(&planned, 0.1, 1);
        let text = explain_analyze(&planned.plan, &planned.truth, &trace);
        assert!(text.contains("actual start="));
        assert_eq!(text.lines().count(), planned.plan.len());
    }
}
