//! Re-costing a plan with *actual* cardinalities.
//!
//! Section 5.3.3 of the paper trains and tests models on all four
//! combinations of actual/estimated feature values. Actual-valued cost
//! features are the optimizer's own cost formulas evaluated over the true
//! row counts — this module computes them post-hoc for a planned tree.
//! They are a function of the truths planned beside the plan, so nothing
//! stores them: feature extraction derives them in the walk that reads
//! them.

use crate::cost::{self, Cost, DEFAULT_WORK_MEM};
use crate::plan::{children, NodeTruth, OpDetail, OpType, PlanNode, MAX_CHILDREN};

/// Costs every node of `plan` over its true rows and pages (`truth`,
/// one per node in pre-order) in one walk that allocates nothing.
/// `f(i, node, cost)` receives each node with its pre-order position `i`
/// once its subtree is costed. Sorts spill past [`DEFAULT_WORK_MEM`], the
/// budget the planner and the simulator run with.
///
/// # Panics
/// Panics if `truth` holds fewer entries than `plan` has nodes.
pub fn for_each_truth_cost<'a>(
    plan: &'a [PlanNode],
    truth: &[NodeTruth],
    f: &mut impl FnMut(usize, &'a PlanNode, Cost),
) {
    walk(plan, 0, truth, f);
}

/// Costs the subtree at `idx`, its children first, in order.
fn walk<'a>(
    plan: &'a [PlanNode],
    idx: usize,
    truth: &[NodeTruth],
    f: &mut impl FnMut(usize, &'a PlanNode, Cost),
) -> Cost {
    let node = &plan[idx];
    // Every child is walked, in order, so positions stay pre-order; the
    // cost formulas read the first two.
    let mut child_costs = [Cost::ZERO; MAX_CHILDREN];
    let mut child_rows = [0.0; MAX_CHILDREN];
    for (k, c) in children(plan, idx).enumerate() {
        let cost = walk(plan, c, truth, f);
        if k < MAX_CHILDREN {
            child_costs[k] = cost;
            child_rows[k] = truth[c].rows;
        }
    }
    let rows = truth[idx].rows;
    let pages = truth[idx].pages;
    let width = node.est.width;
    let [c0, c1] = child_costs;
    let [r0, r1] = child_rows;

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
        OpType::Sort => cost::sort(c0, rows, width, DEFAULT_WORK_MEM),
        OpType::Hash => cost::hash_build(c0, rows),
        OpType::HashJoin => cost::hash_join(c0, c1, r0, rows),
        OpType::MergeJoin => cost::merge_join(c0, c1, r0, r1, rows),
        OpType::NestedLoop => cost::nested_loop(c0, c1, cost::materialize_rescan(r1), r0, rows),
        OpType::Materialize => cost::materialize(c0, rows),
        OpType::HashAggregate => {
            let n_aggs = agg_count(node);
            cost::hash_aggregate(c0, r0, n_aggs, rows)
        }
        OpType::GroupAggregate | OpType::Aggregate => {
            let n_aggs = agg_count(node);
            cost::group_aggregate(c0, r0, n_aggs, rows)
        }
        OpType::Limit => cost::limit(c0, r0, rows),
        OpType::SubqueryScan => {
            let execs = match &node.detail {
                OpDetail::Subquery { executions, .. } => *executions,
                _ => 1.0,
            };
            cost::subquery(c0, c1, execs, r0)
        }
    };
    f(idx, node, cost);
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
    use crate::plan::Planned;
    use crate::planner::Planner;
    use rng::StdRng;

    fn plan(template: u8) -> Planned {
        let catalog = Catalog::new(1.0, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(2);
        planner.plan(&tpch::instantiate(template, 1.0, &mut rng))
    }

    /// Every node's truth cost, by pre-order position.
    fn costs_by_position(p: &Planned) -> Vec<Cost> {
        let mut costs = vec![None; p.plan.len()];
        for_each_truth_cost(&p.plan, &p.truth, &mut |i, _, c| {
            assert!(costs[i].replace(c).is_none(), "position {i} visited twice");
        });
        costs
            .into_iter()
            .map(|c| c.expect("every position visited"))
            .collect()
    }

    #[test]
    fn truth_valued_costs_align_with_plan_and_reflect_cardinality_gaps() {
        let p = plan(18);
        let tc = costs_by_position(&p);
        let nodes = &p.plan[..];
        let mut seen = 0;
        for_each_truth_cost(nodes, &p.truth, &mut |i, n, _| {
            assert!(std::ptr::eq(n, &nodes[i]), "position {i} is not pre-order");
            seen += 1;
        });
        assert_eq!(seen, nodes.len());
        for c in &tc {
            assert!(c.startup.is_finite() && c.total.is_finite());
            assert!(c.total >= c.startup);
        }
        // Template 18's estimated semi-join output is wildly high, so the
        // truth-valued cost above it must be far below the estimated cost
        // somewhere in the tree.
        let any_gap = nodes
            .iter()
            .zip(&tc)
            .zip(&p.truth[..])
            .any(|((n, c), t)| n.est.total_cost > c.total * 1.05 && n.est.rows > t.rows * 10.0);
        assert!(any_gap, "expected a truth-vs-estimate cost gap");
    }

    #[test]
    fn accurate_estimates_give_similar_costs() {
        // Template 1 (single scan + aggregate) has accurate estimates;
        // truth costs should be close to estimated costs.
        let p = plan(1);
        let root_truth = costs_by_position(&p)[0].total;
        let root_est = p.plan[0].est.total_cost;
        let ratio = root_truth / root_est;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }
}
