//! Re-costing a plan with *actual* cardinalities.
//!
//! Section 5.3.3 of the paper trains and tests models on all four
//! combinations of actual/estimated feature values. Actual-valued cost
//! features are the optimizer's own cost formulas evaluated over the true
//! row counts — this module computes them post-hoc for a planned tree.

use crate::cost::{self, Cost};
use crate::plan::{OpDetail, OpType, PlanNode};

/// A (startup, total) cost pair per node computed from truth cardinalities,
/// in pre-order (aligned with [`PlanNode::preorder`]).
#[derive(Debug, Clone)]
pub struct TruthCosts {
    /// Pre-order (startup, total) pairs.
    pub costs: Vec<(f64, f64)>,
}

/// Computes the analytical cost of every node using the *true* rows/pages.
pub fn recost_truth(plan: &PlanNode, work_mem: f64) -> TruthCosts {
    let mut costs = Vec::with_capacity(plan.node_count());
    walk(plan, work_mem, &mut costs);
    TruthCosts { costs }
}

fn walk(node: &PlanNode, work_mem: f64, out: &mut Vec<(f64, f64)>) -> Cost {
    let idx = out.len();
    out.push((0.0, 0.0));
    let child_costs: Vec<Cost> = {
        // Children are walked in order so `out` stays pre-order.
        let mut v = Vec::with_capacity(node.children.len());
        for c in &node.children {
            v.push(walk(c, work_mem, out));
        }
        v
    };
    let rows = node.truth.rows;
    let pages = node.truth.pages;
    let width = node.est.width;
    let c0 = child_costs.first().copied().unwrap_or(Cost::ZERO);
    let c1 = child_costs.get(1).copied().unwrap_or(Cost::ZERO);
    let child_rows =
        |i: usize| -> f64 { node.children.get(i).map(|c| c.truth.rows).unwrap_or(0.0) };

    let cost = match node.op {
        OpType::SeqScan => {
            let n_preds = match &node.detail {
                OpDetail::Scan { filters, .. } => filters.len(),
                _ => 0,
            };
            let base_rows = pages * 8192.0 * 0.9 / width.max(1.0);
            cost::seq_scan(pages, base_rows, n_preds)
        }
        OpType::IndexScan => {
            let n_preds = match &node.detail {
                OpDetail::Scan { filters, .. } => filters.len(),
                _ => 0,
            };
            cost::index_scan(pages.max(rows), rows, n_preds)
        }
        OpType::Sort => cost::sort(c0, rows, width, work_mem),
        OpType::Hash => cost::hash_build(c0, rows),
        OpType::HashJoin => cost::hash_join(c0, c1, child_rows(0), rows),
        OpType::MergeJoin => cost::merge_join(c0, c1, child_rows(0), child_rows(1), rows),
        OpType::NestedLoop => cost::nested_loop(
            c0,
            c1,
            cost::materialize_rescan(child_rows(1)),
            child_rows(0),
            rows,
        ),
        OpType::Materialize => cost::materialize(c0, rows),
        OpType::HashAggregate => {
            let n_aggs = agg_count(node);
            cost::hash_aggregate(c0, child_rows(0), n_aggs, rows)
        }
        OpType::GroupAggregate | OpType::Aggregate => {
            let n_aggs = agg_count(node);
            cost::group_aggregate(c0, child_rows(0), n_aggs, rows)
        }
        OpType::Limit => cost::limit(c0, child_rows(0), rows),
        OpType::SubqueryScan => {
            let execs = match &node.detail {
                OpDetail::Subquery { executions, .. } => *executions,
                _ => 1.0,
            };
            cost::subquery(c0, c1, execs, child_rows(0))
        }
    };
    out[idx] = (cost.startup, cost.total);
    cost
}

fn agg_count(node: &PlanNode) -> f64 {
    match &node.detail {
        OpDetail::Agg { n_aggs, .. } => *n_aggs as f64,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::planner::Planner;
    use rng::StdRng;

    #[test]
    fn truth_costs_align_with_plan_and_reflect_cardinality_gaps() {
        let catalog = Catalog::new(1.0, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(2);
        let spec = tpch::instantiate(18, 1.0, &mut rng);
        let plan = planner.plan(&spec);
        let tc = recost_truth(&plan, 8.0 * 1024.0 * 1024.0);
        assert_eq!(tc.costs.len(), plan.node_count());
        for (s, t) in &tc.costs {
            assert!(s.is_finite() && t.is_finite());
            assert!(*t >= *s);
        }
        // Template 18's estimated semi-join output is wildly high, so the
        // truth-valued cost above it must be far below the estimated cost
        // somewhere in the tree.
        let nodes = plan.preorder();
        let any_gap = nodes
            .iter()
            .zip(&tc.costs)
            .any(|(n, (_, t))| n.est.total_cost > t * 1.05 && n.est.rows > n.truth.rows * 10.0);
        assert!(any_gap, "expected a truth-vs-estimate cost gap");
    }

    #[test]
    fn accurate_estimates_give_similar_costs() {
        // Template 1 (single scan + aggregate) has accurate estimates;
        // truth costs should be close to estimated costs.
        let catalog = Catalog::new(1.0, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(2);
        let spec = tpch::instantiate(1, 1.0, &mut rng);
        let plan = planner.plan(&spec);
        let tc = recost_truth(&plan, 8.0 * 1024.0 * 1024.0);
        let root_truth = tc.costs[0].1;
        let root_est = plan.est.total_cost;
        let ratio = root_truth / root_est;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }
}
