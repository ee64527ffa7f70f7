//! Static feature extraction — the paper's Tables 1 and 2.
//!
//! All features are *compile-time* quantities read from the planned tree:
//! optimizer cost/cardinality estimates and plan structure. For the
//! Section 5.3.3 experiment, the same extractors can read the
//! *actual*-valued annotations instead (true cardinalities and re-costed
//! values), selected by [`FeatureSource`]. A bare plan has estimated views
//! only; actual views need the truth an executed query keeps beside its
//! plan (`crate::ExecutedQuery::views_into`).

use engine::plan::{NodeTruth, PlanNode, ALL_OP_TYPES};
use engine::recost::for_each_truth_cost;
use ml::bytes::{Malformed, Reader};

/// Which annotation side feature values are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSource {
    /// Optimizer estimates (the deployable configuration).
    Estimated,
    /// True cardinalities and re-costed values (Section 5.3.3's
    /// actual-value experiments; not available before execution).
    Actual,
}

impl FeatureSource {
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        out.push(match self {
            FeatureSource::Estimated => 0,
            FeatureSource::Actual => 1,
        });
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<FeatureSource, Malformed> {
        match r.u8()? {
            0 => Ok(FeatureSource::Estimated),
            1 => Ok(FeatureSource::Actual),
            _ => Err(Malformed("unknown feature-source tag")),
        }
    }
}

/// A view of one node's feature values under a [`FeatureSource`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeView {
    /// Output rows.
    pub rows: f64,
    /// Output width (bytes).
    pub width: f64,
    /// I/O pages attributed to the node.
    pub pages: f64,
    /// Selectivity applied at the node.
    pub selectivity: f64,
    /// Startup cost.
    pub startup_cost: f64,
    /// Total cost.
    pub total_cost: f64,
}

/// Resolves a plan's estimated per-node views (pre-order).
pub fn node_views(plan: &[PlanNode]) -> Vec<NodeView> {
    let mut out = Vec::new();
    views_into(plan, &mut out);
    out
}

/// [`node_views`] into a caller-owned buffer (cleared first): a caller
/// that keeps the buffer resolves plan after plan without allocating.
pub(crate) fn views_into(plan: &[PlanNode], out: &mut Vec<NodeView>) {
    out.clear();
    out.extend(plan.iter().map(|n| NodeView {
        rows: n.est.rows,
        width: n.est.width,
        pages: n.est.pages,
        selectivity: n.est.selectivity,
        startup_cost: n.est.startup_cost,
        total_cost: n.est.total_cost,
    }));
}

/// Actual-valued views of `plan` from its pre-order `truth`, into a
/// caller-owned buffer (cleared first). Costs are the optimizer's formulas
/// over the node's true rows and pages ([`engine::recost`]), derived in
/// the walk that writes the views: a logged query stores none.
pub(crate) fn actual_views_into(plan: &[PlanNode], truth: &[NodeTruth], out: &mut Vec<NodeView>) {
    out.clear();
    // A node's cost is known once its subtree is costed; the walk names
    // its pre-order slot.
    out.resize(plan.len(), NodeView::default());
    for_each_truth_cost(plan, truth, &mut |i, n, cost| {
        let t = truth[i];
        out[i] = NodeView {
            rows: t.rows,
            width: n.est.width,
            pages: t.pages,
            selectivity: t.selectivity,
            startup_cost: cost.startup,
            total_cost: cost.total,
        }
    });
}

/// Number of plan-level features (Table 1): 7 global + 2 per operator type.
pub const PLAN_FEATURES: usize = 7 + 2 * ALL_OP_TYPES.len();

/// Names of the plan-level features, aligned with
/// [`plan_features`]' output order.
pub(crate) fn plan_feature_names() -> Vec<String> {
    let mut names = vec![
        "p_tot_cost".to_string(),
        "p_st_cost".to_string(),
        "p_rows".to_string(),
        "p_width".to_string(),
        "op_count".to_string(),
        "row_count".to_string(),
        "byte_count".to_string(),
    ];
    for op in ALL_OP_TYPES {
        names.push(format!("{}_cnt", op.name().replace(' ', "_").to_lowercase()));
    }
    for op in ALL_OP_TYPES {
        names.push(format!("{}_rows", op.name().replace(' ', "_").to_lowercase()));
    }
    names
}

/// Extracts the Table-1 plan-level feature vector for a plan or a
/// sub-plan. `views` must align with `plan`: for the sub-plan at pre-order
/// position `i` of a whole plan, `plan[i..i + n]` with `n` its root's
/// subtree length, that is `views[i..i + n]` of the whole plan's views.
pub fn plan_features(plan: &[PlanNode], views: &[NodeView]) -> [f64; PLAN_FEATURES] {
    const OPS: usize = ALL_OP_TYPES.len();
    assert_eq!(plan.len(), views.len(), "views misaligned with plan");
    let mut cnt = [0.0f64; OPS];
    let mut rows_by_op = [0.0f64; OPS];
    let mut row_count = 0.0;
    let mut byte_count = 0.0;
    for (node, v) in plan.iter().zip(views) {
        let k = node.op.index();
        cnt[k] += 1.0;
        rows_by_op[k] += v.rows;
        row_count += v.rows;
        byte_count += v.rows * v.width;
    }
    // Inputs: every non-root node's output is also some operator's input.
    for v in &views[1..] {
        row_count += v.rows;
        byte_count += v.rows * v.width;
    }
    let root = &views[0];
    let mut out = [0.0; PLAN_FEATURES];
    out[0] = root.total_cost;
    out[1] = root.startup_cost;
    out[2] = root.rows;
    out[3] = root.width;
    out[4] = views.len() as f64;
    out[5] = row_count;
    out[6] = byte_count;
    out[7..7 + OPS].copy_from_slice(&cnt);
    out[7 + OPS..].copy_from_slice(&rows_by_op);
    out
}

/// Names of the Table-2 operator-level features, aligned with
/// [`op_features`].
pub(crate) const OP_FEATURE_NAMES: [&str; 9] = [
    "np", "nt", "nt1", "nt2", "sel", "st1", "rt1", "st2", "rt2",
];

/// Extracts the Table-2 operator-level feature vector of a node from its
/// view and those of its children.
///
/// `child_times` supplies the (start, run) values of the node's children —
/// observed values at training time, composed predictions at prediction
/// time (Figure 2 of the paper).
pub(crate) fn op_features(
    view: &NodeView,
    child_views: &[&NodeView],
    child_times: &[(f64, f64)],
) -> [f64; OP_FEATURE_NAMES.len()] {
    let get_rows = |i: usize| child_views.get(i).map(|v| v.rows).unwrap_or(0.0);
    let get_time = |i: usize| child_times.get(i).copied().unwrap_or((0.0, 0.0));
    [
        view.pages,
        view.rows,
        get_rows(0),
        get_rows(1),
        view.selectivity,
        get_time(0).0,
        get_time(0).1,
        get_time(1).0,
        get_time(1).1,
    ]
}

/// Which operator types appear in a plan, and how often: the count the
/// tests hold the `_cnt` plan features to.
#[cfg(test)]
fn op_histogram(plan: &[PlanNode]) -> Vec<(engine::OpType, usize)> {
    let mut cnt = [0usize; ALL_OP_TYPES.len()];
    for n in plan {
        cnt[n.op.index()] += 1;
    }
    ALL_OP_TYPES
        .iter()
        .copied()
        .zip(cnt)
        .filter(|(_, c)| *c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Catalog, OpType, Planned, Planner};
    use rng::StdRng;

    fn planned(t: u8) -> Planned {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(4);
        planner.plan(&tpch::instantiate(t, 0.1, &mut rng))
    }

    fn plan(t: u8) -> Box<[PlanNode]> {
        planned(t).plan
    }

    #[test]
    fn plan_feature_vector_has_stable_shape() {
        let p = plan(3);
        let views = node_views(&p);
        let f = plan_features(&p, &views);
        assert_eq!(f.len(), PLAN_FEATURES);
        assert_eq!(f.len(), plan_feature_names().len());
        // p_tot_cost is the root's total cost.
        assert_eq!(f[0], p[0].est.total_cost);
        // op_count matches the node count.
        assert_eq!(f[4], p.len() as f64);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn operator_counts_sum_to_op_count() {
        let p = plan(5);
        let views = node_views(&p);
        let f = plan_features(&p, &views);
        let cnt_sum: f64 = f[7..7 + ALL_OP_TYPES.len()].iter().sum();
        assert_eq!(cnt_sum, p.len() as f64);
    }

    #[test]
    fn actual_views_differ_from_estimates_when_estimation_errs() {
        let Planned { plan: p, truth } = planned(18);
        let est = node_views(&p);
        let mut act = Vec::new();
        actual_views_into(&p, &truth, &mut act);
        let est_f = plan_features(&p, &est);
        let act_f = plan_features(&p, &act);
        // Template 18's row features must differ strongly across sources.
        assert!(
            (est_f[5] - act_f[5]).abs() / act_f[5].max(1.0) > 0.2,
            "est row_count {} vs actual {}",
            est_f[5],
            act_f[5]
        );
    }

    #[test]
    fn op_features_read_children() {
        let p = plan(6);
        let views = node_views(&p);
        // Root is the ungrouped Aggregate; child is the scan.
        let child_view = &views[1];
        let f = op_features(&views[0], &[child_view], &[(1.0, 5.0)]);
        assert_eq!(f.len(), OP_FEATURE_NAMES.len());
        assert_eq!(f[2], child_view.rows); // nt1
        assert_eq!(f[3], 0.0); // nt2: unary operator
        assert_eq!(f[5], 1.0); // st1
        assert_eq!(f[6], 5.0); // rt1
        assert_eq!(f[7], 0.0); // st2 absent
    }

    #[test]
    fn views_buffer_is_reusable_across_plans() {
        let mut views = Vec::new();
        let a = plan(1);
        views_into(&a, &mut views);
        assert_eq!(views.len(), a.len());
        let b = plan(5);
        views_into(&b, &mut views);
        assert_eq!(views.len(), b.len());
        assert_eq!(views[0].total_cost, b[0].est.total_cost);
    }

    #[test]
    fn op_histogram_lists_present_types() {
        let p = plan(1);
        let h = op_histogram(&p);
        assert!(h.iter().any(|(op, _)| *op == OpType::SeqScan));
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, p.len());
    }

    /// The plan of template `t` at scale factor `sf`, drawn at seed 12.
    fn plan_at(t: u8, sf: f64) -> Box<[PlanNode]> {
        let catalog = Catalog::new(sf, 1);
        let spec = tpch::instantiate(t, sf, &mut StdRng::seed_from_u64(12));
        Planner::new(&catalog).plan(&spec).plan
    }

    /// Feature names are unique and aligned with the vector layout.
    #[test]
    fn feature_names_are_unique() {
        let names = plan_feature_names();
        let set: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert_eq!(names[0], "p_tot_cost");
        assert_eq!(names[1], "p_st_cost");
        assert_eq!(names[4], "op_count");
    }

    /// `<op>_cnt` features count exactly the operators in the histogram.
    #[test]
    fn op_count_features_match_histogram() {
        for t in [1u8, 3, 9, 13, 18] {
            let p = plan_at(t, 0.5);
            let views = node_views(&p);
            let f = plan_features(&p, &views);
            for (op, count) in op_histogram(&p) {
                let feature = f[7 + op.index()];
                assert_eq!(feature as usize, count, "t{t} {op:?}");
            }
        }
    }

    /// Operator-level feature vectors encode the child arity: unary operators
    /// have zeroed right-child features.
    #[test]
    fn unary_operators_zero_right_child_features() {
        let p = plan_at(1, 0.5);
        let views = node_views(&p);
        // Root (Sort) is unary.
        let f = op_features(&views[0], &[&views[1]], &[(1.0, 2.0)]);
        assert_eq!(f[3], 0.0); // nt2
        assert_eq!(f[7], 0.0); // st2
        assert_eq!(f[8], 0.0); // rt2
    }
}
