//! The cost-based physical planner.
//!
//! Lowers a template's logical [`RelExpr`] to a PostgreSQL-shaped physical
//! [`PlanNode`] tree. Join *order* is part of the template definition (as
//! the paper's plans come from PostgreSQL, whose orders are stable for
//! TPC-H); this planner makes the *physical* choices — scan methods, join
//! algorithms, aggregation strategies, sort/materialize placement — by
//! comparing analytical cost estimates, exactly the way an optimizer does.
//! A node carries the estimate-side annotations (what models can see);
//! the truth-side annotations (what the simulator executes) come back
//! beside the plan in [`Planned`], one per node in pre-order. Physical
//! choices read estimates only. A workload instance is its parameter draw
//! ([`QuerySpec`]); [`Planner::plan`] builds its `RelExpr` and walks it,
//! so the logical plan lives only while its query is planned.

use crate::catalog::{has_index, Catalog};
use crate::cost::{self, Cost};
use crate::estimator::Estimator;
use crate::plan::{NodeEst, NodeTruth, OpDetail, OpType, PlanNode, Planned};
use crate::truth;
use tpch::schema::ColRef;
use tpch::spec::{GroupCount, JoinKind, Predicate, QuerySpec, RelExpr};
use tpch::types::CmpOp;

/// Planner configuration (PostgreSQL-style resource GUCs).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Memory budget per sort/hash operation, in bytes.
    pub work_mem: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            work_mem: cost::DEFAULT_WORK_MEM,
        }
    }
}

/// The physical planner.
#[derive(Debug)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
    config: PlannerConfig,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `catalog` with default configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner {
            catalog,
            config: PlannerConfig::default(),
        }
    }

    /// Creates a planner with an explicit configuration.
    pub fn with_config(catalog: &'a Catalog, config: PlannerConfig) -> Self {
        Planner { catalog, config }
    }

    /// Plans a query: the physical plan and its pre-order truths. The
    /// logical plan is built from the spec's draw here and dropped on
    /// return.
    pub fn plan(&self, spec: &QuerySpec) -> Planned {
        let Sub { node, truth } = self.build(&spec.query().root);
        Planned {
            plan: node,
            truth: truth.into_boxed_slice(),
        }
    }

    fn estimator(&self) -> Estimator<'_> {
        Estimator::new(self.catalog)
    }

    fn sf(&self) -> f64 {
        self.catalog.sf
    }

    fn build(&self, expr: &RelExpr) -> Sub {
        match expr {
            RelExpr::Scan {
                table,
                filters,
                truth_sel_override,
            } => self.build_scan(*table, filters, *truth_sel_override),
            RelExpr::Join {
                kind,
                on,
                left,
                right,
                truth_correction,
                extra_filter_sel,
            } => self.build_join(*kind, *on, left, right, *truth_correction, *extra_filter_sel),
            RelExpr::Aggregate { input, spec } => self.build_aggregate(input, spec),
            RelExpr::Sort { input, keys } => {
                let child = self.build(input);
                self.sort_node(child, *keys)
            }
            RelExpr::Limit { input, count } => {
                let child = self.build(input);
                let est_rows = (*count as f64).min(child.node.est.rows);
                let truth_rows = (*count as f64).min(child.rows());
                let c = cost::limit(node_cost(&child), child.node.est.rows, *count as f64);
                let width = child.node.est.width;
                sub(
                    OpType::Limit,
                    NodeEst {
                        startup_cost: c.startup,
                        total_cost: c.total,
                        rows: est_rows,
                        width,
                        pages: 0.0,
                        selectivity: 1.0,
                    },
                    NodeTruth {
                        rows: truth_rows,
                        pages: 0.0,
                        selectivity: 1.0,
                    },
                    OpDetail::Limit { count: *count },
                    [child],
                )
            }
            RelExpr::ScalarSubqueryFilter {
                input,
                subquery,
                truth_sel,
                correlated,
            } => {
                let child = self.build(input);
                let subplan = self.build(subquery);
                let est_execs = if *correlated { child.node.est.rows } else { 1.0 };
                let truth_execs = if *correlated { child.rows() } else { 1.0 };
                let c = cost::subquery(
                    node_cost(&child),
                    node_cost(&subplan),
                    est_execs,
                    child.node.est.rows,
                );
                // Optimizers default scalar-comparison selectivity to 1/3.
                let est_rows = (child.node.est.rows / 3.0).max(1.0);
                let truth_rows = child.rows() * truth_sel;
                let width = child.node.est.width;
                sub(
                    OpType::SubqueryScan,
                    NodeEst {
                        startup_cost: c.startup,
                        total_cost: c.total,
                        rows: est_rows,
                        width,
                        pages: 0.0,
                        selectivity: 1.0 / 3.0,
                    },
                    NodeTruth {
                        rows: truth_rows,
                        pages: 0.0,
                        selectivity: *truth_sel,
                    },
                    OpDetail::Subquery {
                        correlated: *correlated,
                        executions: truth_execs,
                    },
                    [child, subplan],
                )
            }
        }
    }

    fn build_scan(
        &self,
        table: tpch::schema::TableId,
        filters: &[Predicate],
        truth_override: Option<f64>,
    ) -> Sub {
        let est = self.estimator();
        let base_rows = self.catalog.rows(table);
        let pages = self.catalog.pages(table);
        let width = self.catalog.width(table);
        let est_sel = est.conjunction(filters);
        let truth_sel = truth::conjunction(filters, truth_override, self.sf());
        let est_rows = (base_rows * est_sel).max(1.0);
        let truth_rows = base_rows * truth_sel;
        let detail = OpDetail::Scan {
            table,
            filters: filters.into(),
        };

        // Index scan when a filter probes an indexed column selectively.
        let indexed = filters.iter().any(|f| {
            let c = f.column();
            has_index(c)
                && matches!(
                    f,
                    Predicate::Cmp { op: CmpOp::Eq, .. }
                        | Predicate::InSet { .. }
                        | Predicate::Between { .. }
                )
                && est.predicate(f) < 0.02
        });
        if indexed {
            let est_pages = (est_rows * 1.05 + 2.0).min(pages);
            let truth_pages = (truth_rows * 1.05 + 2.0).min(pages);
            let c = cost::index_scan(pages, est_rows, filters.len());
            return sub(
                OpType::IndexScan,
                NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width,
                    pages: est_pages,
                    selectivity: est_sel,
                },
                NodeTruth {
                    rows: truth_rows,
                    pages: truth_pages,
                    selectivity: truth_sel,
                },
                detail,
                [],
            );
        }

        let c = cost::seq_scan(pages, base_rows, filters.len());
        sub(
            OpType::SeqScan,
            NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: est_rows,
                width,
                pages,
                selectivity: est_sel,
            },
            NodeTruth {
                rows: truth_rows,
                pages,
                selectivity: truth_sel,
            },
            detail,
            [],
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build_join(
        &self,
        kind: JoinKind,
        on: (ColRef, ColRef),
        left_expr: &RelExpr,
        right_expr: &RelExpr,
        truth_correction: f64,
        extra_filter_sel: f64,
    ) -> Sub {
        let est = self.estimator();
        let left = self.build(left_expr);
        let right = self.build(right_expr);
        let (l, r) = (&left.node.est, &right.node.est);

        // Logical output cardinalities (physical-choice independent).
        let (est_rows, truth_rows) = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                let e = est.join_rows(l.rows, r.rows, on) * extra_filter_sel;
                let t =
                    truth::join_rows(left.rows(), right.rows(), on, truth_correction, self.sf())
                        * extra_filter_sel;
                if kind == JoinKind::LeftOuter {
                    (e.max(l.rows), t.max(left.rows()))
                } else {
                    (e, t)
                }
            }
            JoinKind::Semi => {
                let sel = est.semi_selectivity(r.rows, on.1) * extra_filter_sel;
                (
                    (l.rows * sel).max(1.0),
                    left.rows() * truth_correction * extra_filter_sel,
                )
            }
            JoinKind::Anti => {
                let sel = est.semi_selectivity(r.rows, on.1);
                (
                    (l.rows * (1.0 - sel).max(1e-6) * extra_filter_sel).max(1.0),
                    left.rows() * truth_correction * extra_filter_sel,
                )
            }
        };
        let width = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => (l.width + r.width).min(512.0),
            JoinKind::Semi | JoinKind::Anti => l.width,
        };

        // Candidate physical methods, scored by estimated cost.
        let hash_cost = {
            let h = cost::hash_build(node_cost(&right), r.rows);
            cost::hash_join(node_cost(&left), h, l.rows, est_rows)
        };
        // Inner hash joins may build on either side; the optimizer hashes
        // whichever input it *estimates* to be smaller.
        let hash_swapped_cost = if kind == JoinKind::Inner {
            let h = cost::hash_build(node_cost(&left), l.rows);
            Some(cost::hash_join(node_cost(&right), h, r.rows, est_rows))
        } else {
            None
        };
        let merge_cost = {
            let ls = cost::sort(node_cost(&left), l.rows, l.width, self.config.work_mem);
            let rs = cost::sort(node_cost(&right), r.rows, r.width, self.config.work_mem);
            cost::merge_join(ls, rs, l.rows, r.rows, est_rows)
        };
        // Nested loop with an index probe of the inner base table, when the
        // inner is a plain scan of an indexed join column.
        let nl_index = match right_expr {
            RelExpr::Scan { table, filters, .. }
                if has_index(on.1) && matches!(kind, JoinKind::Inner | JoinKind::Semi) =>
            {
                let matched_per_probe =
                    (r.rows / est.catalog().ndistinct_est(on.1).max(1.0)).max(1.0);
                let probe = cost::index_scan(self.catalog.pages(*table), matched_per_probe, filters.len() + 1);
                // Repeated probes are assumed largely cached
                // (effective_cache_size): the optimizer discounts them —
                // one of the ways a cardinality underestimate snowballs
                // into a catastrophically slow nested-loop plan.
                let total = node_cost(&left).total
                    + l.rows * probe.total * 0.4
                    + est_rows * cost::CPU_TUPLE_COST;
                Some((
                    Cost {
                        startup: node_cost(&left).startup,
                        total,
                    },
                    matched_per_probe,
                ))
            }
            _ => None,
        };
        // Nested loop over a materialized inner (viable for tiny inners).
        let nl_mat = {
            let m = cost::materialize(node_cost(&right), r.rows);
            let rescan = cost::materialize_rescan(r.rows);
            cost::nested_loop(node_cost(&left), m, rescan, l.rows, est_rows)
        };

        let mut best = ("hash", hash_cost.total);
        if let Some(c) = hash_swapped_cost {
            if c.total < best.1 {
                best = ("hash_swapped", c.total);
            }
        }
        if merge_cost.total < best.1 {
            best = ("merge", merge_cost.total);
        }
        if let Some((c, _)) = &nl_index {
            if c.total < best.1 {
                best = ("nl_index", c.total);
            }
        }
        if nl_mat.total < best.1 && r.rows < 100_000.0 {
            best = ("nl_mat", nl_mat.total);
        }

        let join = |op, c: Cost, children| {
            let est = NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: est_rows,
                width,
                pages: 0.0,
                selectivity: extra_filter_sel,
            };
            let truth = NodeTruth {
                rows: truth_rows,
                pages: 0.0,
                selectivity: extra_filter_sel,
            };
            sub(op, est, truth, OpDetail::Join { kind, on }, children)
        };

        match best.0 {
            "hash" => {
                let hash_node = self.hash_node(right);
                join(OpType::HashJoin, hash_cost, [left, hash_node])
            }
            "hash_swapped" => {
                let hash_node = self.hash_node(left);
                let c = hash_swapped_cost.expect("candidate exists");
                join(OpType::HashJoin, c, [right, hash_node])
            }
            "merge" => {
                let ls = self.sort_node(left, 1);
                let rs = self.sort_node(right, 1);
                let rm = self.materialize_node(rs, truth_rows.max(1.0));
                join(OpType::MergeJoin, merge_cost, [ls, rm])
            }
            "nl_index" => {
                let (c, matched_per_probe) = nl_index.expect("candidate exists");
                // Inner becomes an index scan parameterized by the outer key.
                let mut inner = right;
                inner.node.op = OpType::IndexScan;
                let probe_truth = (truth_rows / left.rows().max(1.0)).max(0.0);
                let e = &mut inner.node.est;
                e.rows = matched_per_probe;
                e.pages = (matched_per_probe * 1.05 + 2.0).min(e.pages.max(2.0));
                let t = &mut inner.truth[0];
                t.rows = probe_truth;
                t.pages = (probe_truth * 1.05 + 2.0).min(t.pages.max(2.0));
                let probe_cost = cost::index_scan(
                    self.catalog.pages(inner.node.scan_table().expect("scan")),
                    matched_per_probe,
                    1,
                );
                inner.node.est.startup_cost = probe_cost.startup;
                inner.node.est.total_cost = probe_cost.total;
                join(OpType::NestedLoop, c, [left, inner])
            }
            _ => {
                let m = self.materialize_node(right, left.rows().max(1.0));
                join(OpType::NestedLoop, nl_mat, [left, m])
            }
        }
    }

    fn build_aggregate(&self, input: &RelExpr, spec: &tpch::spec::AggregateSpec) -> Sub {
        let est = self.estimator();
        let child = self.build(input);
        let in_est = child.node.est.rows;
        let in_truth = child.rows();
        let n_aggs = spec.aggs.len() as f64;
        let out_width = 8.0 * (spec.group_by.len() as f64 + n_aggs) + 8.0;

        let est_groups = est.group_count(&spec.group_by, in_est);
        let truth_groups = match spec.groups {
            GroupCount::One => 1.0,
            GroupCount::Fixed(f) => f.min(in_truth.max(1.0)),
            GroupCount::DistinctOf(c) => {
                truth::group_count(tpch::distributions::ndistinct(c, self.sf()), in_truth)
            }
        };
        let (est_rows, truth_rows, est_hsel, truth_hsel) = match &spec.having {
            Some(h) => (
                (est_groups * est.having_selectivity(h.op)).max(1.0),
                truth_groups * h.truth_fraction,
                est.having_selectivity(h.op),
                h.truth_fraction,
            ),
            None => (est_groups, truth_groups, 1.0, 1.0),
        };

        let detail = OpDetail::Agg {
            n_aggs: spec.aggs.len() as u32,
            numeric_ops: spec.numeric_ops,
            n_group_cols: spec.group_by.len() as u32,
        };

        if spec.group_by.is_empty() {
            let c = cost::group_aggregate(node_cost(&child), in_est, n_aggs, 1.0);
            return sub(
                OpType::Aggregate,
                NodeEst {
                    startup_cost: c.total - cost::CPU_TUPLE_COST,
                    total_cost: c.total,
                    rows: 1.0,
                    width: out_width,
                    pages: 0.0,
                    selectivity: 1.0,
                },
                NodeTruth {
                    rows: 1.0,
                    pages: 0.0,
                    selectivity: 1.0,
                },
                detail,
                [child],
            );
        }

        let truth = NodeTruth {
            rows: truth_rows,
            pages: 0.0,
            selectivity: truth_hsel,
        };
        let hash_bytes = est_groups * (out_width + 64.0);
        if hash_bytes < self.config.work_mem {
            let c = cost::hash_aggregate(node_cost(&child), in_est, n_aggs, est_groups);
            sub(
                OpType::HashAggregate,
                NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width: out_width,
                    pages: 0.0,
                    selectivity: est_hsel,
                },
                truth,
                detail,
                [child],
            )
        } else {
            let sorted = self.sort_node(child, spec.group_by.len() as u32);
            let c = cost::group_aggregate(node_cost(&sorted), in_est, n_aggs, est_groups);
            sub(
                OpType::GroupAggregate,
                NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width: out_width,
                    pages: 0.0,
                    selectivity: est_hsel,
                },
                truth,
                detail,
                [sorted],
            )
        }
    }

    fn sort_node(&self, child: Sub, keys: u32) -> Sub {
        let e = child.node.est;
        let c = cost::sort(node_cost(&child), e.rows, e.width, self.config.work_mem);
        let est_bytes = e.rows * e.width;
        let truth_bytes = child.rows() * e.width;
        let est_pages = if est_bytes > self.config.work_mem {
            est_bytes / 8192.0
        } else {
            0.0
        };
        let truth_pages = if truth_bytes > self.config.work_mem {
            truth_bytes / 8192.0
        } else {
            0.0
        };
        sub(
            OpType::Sort,
            NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: e.rows,
                width: e.width,
                pages: est_pages,
                selectivity: 1.0,
            },
            NodeTruth {
                rows: child.rows(),
                pages: truth_pages,
                selectivity: 1.0,
            },
            OpDetail::Sort { keys },
            [child],
        )
    }

    fn hash_node(&self, child: Sub) -> Sub {
        let c = cost::hash_build(node_cost(&child), child.node.est.rows);
        self.pass_through(OpType::Hash, c, OpDetail::None, child)
    }

    fn materialize_node(&self, child: Sub, rescans: f64) -> Sub {
        let c = cost::materialize(node_cost(&child), child.node.est.rows);
        let detail = OpDetail::Materialize {
            rescans: (rescans - 1.0).max(0.0),
        };
        self.pass_through(OpType::Materialize, c, detail, child)
    }

    /// A node that outputs its child's rows unchanged (`Hash`,
    /// `Materialize`).
    fn pass_through(&self, op: OpType, c: Cost, detail: OpDetail, child: Sub) -> Sub {
        sub(
            op,
            NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: child.node.est.rows,
                width: child.node.est.width,
                pages: 0.0,
                selectivity: 1.0,
            },
            NodeTruth {
                rows: child.rows(),
                pages: 0.0,
                selectivity: 1.0,
            },
            detail,
            [child],
        )
    }
}

/// A subtree under construction: its plan and its truths in pre-order.
struct Sub {
    node: PlanNode,
    truth: Vec<NodeTruth>,
}

impl Sub {
    /// True output rows of the subtree's root.
    fn rows(&self) -> f64 {
        self.truth[0].rows
    }
}

/// A node over `children`: its truth first, then theirs in order.
fn sub<const N: usize>(
    op: OpType,
    est: NodeEst,
    truth: NodeTruth,
    detail: OpDetail,
    children: [Sub; N],
) -> Sub {
    let mut all = Vec::with_capacity(1 + children.iter().map(|c| c.truth.len()).sum::<usize>());
    all.push(truth);
    let children = children.map(|c| {
        all.extend_from_slice(&c.truth);
        c.node
    });
    Sub {
        node: PlanNode {
            op,
            children: Box::new(children),
            est,
            detail,
        },
        truth: all,
    }
}

fn node_cost(n: &Sub) -> Cost {
    Cost {
        startup: n.node.est.startup_cost,
        total: n.node.est.total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::StdRng;
    use tpch::templates;

    fn plan_template(t: u8, sf: f64, seed: u64) -> Planned {
        let catalog = Catalog::new(sf, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = templates::instantiate(t, sf, &mut rng);
        planner.plan(&spec)
    }

    #[test]
    fn all_templates_plan_without_panic() {
        for t in templates::ALL_TEMPLATES {
            let Planned { plan: p, truth } = plan_template(t, 1.0, 3);
            assert!(p.node_count() >= 2, "template {t}");
            assert_eq!(truth.len(), p.node_count(), "template {t}");
            for (n, nt) in p.preorder().into_iter().zip(&truth[..]) {
                assert!(n.est.rows >= 0.0 && n.est.rows.is_finite(), "template {t}");
                assert!(nt.rows >= 0.0 && nt.rows.is_finite(), "template {t}");
                assert!(n.est.total_cost >= n.est.startup_cost, "template {t}");
            }
        }
    }

    #[test]
    fn t1_is_scan_plus_aggregate() {
        let Planned { plan: p, truth } = plan_template(1, 1.0, 1);
        let ops: Vec<OpType> = p.preorder().iter().map(|n| n.op).collect();
        assert!(ops.contains(&OpType::SeqScan));
        assert!(ops.contains(&OpType::HashAggregate) || ops.contains(&OpType::GroupAggregate));
        assert_eq!(ops[0], OpType::Sort);
        // Truth: ~6M lineitem rows scanned, 6 groups out.
        let scan = ops.iter().position(|&op| op == OpType::SeqScan).unwrap();
        assert!(truth[scan].rows > 5_000_000.0);
    }

    #[test]
    fn t3_join_correction_shrinks_truth_vs_estimate() {
        let Planned { plan: p, truth } = plan_template(3, 1.0, 1);
        // Find the top join: truth rows should be far below the estimate.
        let nodes = p.preorder();
        let join = nodes
            .iter()
            .position(|n| matches!(n.op, OpType::HashJoin | OpType::MergeJoin | OpType::NestedLoop))
            .expect("has a join");
        assert!(
            truth[join].rows < nodes[join].est.rows,
            "truth {} est {}",
            truth[join].rows,
            nodes[join].est.rows
        );
    }

    #[test]
    fn t6_has_no_joins() {
        let p = plan_template(6, 1.0, 1).plan;
        for n in p.preorder() {
            assert!(
                !matches!(n.op, OpType::HashJoin | OpType::MergeJoin | OpType::NestedLoop),
                "t6 must be join-free"
            );
        }
        assert_eq!(p.op, OpType::Aggregate);
    }

    #[test]
    fn t18_semi_join_estimate_blows_up() {
        let Planned { plan: p, truth } = plan_template(18, 10.0, 1);
        // The semi join of orders against the HAVING aggregate: estimated
        // rows vastly exceed the truth.
        let nodes = p.preorder();
        let semi = nodes
            .iter()
            .position(|n| {
                matches!(
                    n.detail,
                    OpDetail::Join {
                        kind: JoinKind::Semi,
                        ..
                    }
                )
            })
            .expect("semi join");
        assert!(
            nodes[semi].est.rows > truth[semi].rows * 100.0,
            "est {} truth {}",
            nodes[semi].est.rows,
            truth[semi].rows
        );
    }

    #[test]
    fn t13_contains_materialize_or_hash() {
        let p = plan_template(13, 10.0, 1).plan;
        let ops: Vec<OpType> = p.preorder().iter().map(|n| n.op).collect();
        assert!(
            ops.contains(&OpType::Materialize) || ops.contains(&OpType::Hash),
            "ops = {ops:?}"
        );
    }

    #[test]
    fn correlated_subquery_templates_have_subquery_scans() {
        for t in [2u8, 17, 20] {
            let p = plan_template(t, 1.0, 1).plan;
            let has = p.preorder().iter().any(|n| n.op == OpType::SubqueryScan);
            assert!(has, "template {t} should have SubqueryScan");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let a = plan_template(5, 1.0, 9);
        let b = plan_template(5, 1.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn index_scan_appears_for_selective_probes() {
        // T17's correlated subquery probes lineitem by l_partkey.
        let p = plan_template(17, 1.0, 1).plan;
        let has_index_scan = p.preorder().iter().any(|n| n.op == OpType::IndexScan);
        assert!(has_index_scan);
    }
}
