//! The cost-based physical planner.
//!
//! Lowers a template's logical [`RelExpr`] to a PostgreSQL-shaped physical
//! plan, one pre-order slice of [`crate::plan::PlanNode`]s. Join *order*
//! is part of the template definition (as the paper's plans come from
//! PostgreSQL, whose orders are stable for TPC-H); this planner makes the *physical* choices — scan methods, join
//! algorithms, aggregation strategies, sort/materialize placement — by
//! comparing analytical cost estimates, exactly the way an optimizer does.
//! A node carries the estimate-side annotations (what models can see);
//! the truth-side annotations (what the simulator executes) come back
//! beside the plan in [`Planned`], one per node in pre-order. Physical
//! choices read estimates only. A workload instance is its parameter draw
//! ([`QuerySpec`]); [`Planner::plan`] builds its `RelExpr` and walks it,
//! so the logical plan lives only while its query is planned. A plan is
//! built in one [`PlanBuilder`] sized for it: each operator is chosen
//! once its inputs are built and goes in front of them, so a subtree is
//! never copied into its parent's.

use crate::catalog::{has_index, Catalog};
use crate::cost::{self, Cost};
use crate::estimator::Estimator;
use crate::plan::{NodeEst, NodeTruth, OpDetail, OpType, PlanBuilder, Planned};
use crate::truth;
use tpch::schema::ColRef;
use tpch::spec::{GroupCount, JoinKind, Predicate, QuerySpec, RelExpr};
use tpch::types::CmpOp;

/// Planner configuration (PostgreSQL-style resource GUCs). Every caller
/// outside this module's tests plans with the default.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannerConfig {
    /// Memory budget per sort/hash operation, in bytes.
    pub(crate) work_mem: f64,
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
    #[cfg(test)]
    pub(crate) fn with_config(catalog: &'a Catalog, config: PlannerConfig) -> Self {
        Planner { catalog, config }
    }

    /// Plans a query: the physical plan and its pre-order truths. The
    /// logical plan is built from the spec's draw here and dropped on
    /// return.
    pub fn plan(&self, spec: &QuerySpec) -> Planned {
        let root = &spec.query().root;
        let mut b = PlanBuilder::with_capacity(max_nodes(root));
        self.build(&mut b, root);
        b.finish()
    }

    fn estimator(&self) -> Estimator<'_> {
        Estimator::new(self.catalog)
    }

    fn sf(&self) -> f64 {
        self.catalog.sf
    }

    /// Builds `expr`'s physical subtree at the end of `b` and returns the
    /// position of its root; the subtree runs from there to `b`'s end.
    fn build(&self, b: &mut PlanBuilder, expr: &RelExpr) -> usize {
        match expr {
            RelExpr::Scan {
                table,
                filters,
                truth_sel_override,
            } => self.build_scan(b, *table, filters, *truth_sel_override),
            RelExpr::Join {
                kind,
                on,
                left,
                right,
                truth_correction,
                extra_filter_sel,
            } => self.build_join(
                b,
                *kind,
                *on,
                left,
                right,
                *truth_correction,
                *extra_filter_sel,
            ),
            RelExpr::Aggregate { input, spec } => self.build_aggregate(b, input, spec),
            RelExpr::Sort { input, keys } => {
                let child = self.build(b, input);
                self.sort_node(b, child, *keys)
            }
            RelExpr::Limit { input, count } => {
                let child = self.build(b, input);
                let child_est = est_of(b, child);
                let est_rows = (*count as f64).min(child_est.rows);
                let truth_rows = (*count as f64).min(rows(b, child));
                let c = cost::limit(node_cost(b, child), child_est.rows, *count as f64);
                let width = child_est.width;
                b.wrap(
                    child,
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
                )
            }
            RelExpr::ScalarSubqueryFilter {
                input,
                subquery,
                truth_sel,
                correlated,
            } => {
                let child = self.build(b, input);
                let subplan = self.build(b, subquery);
                let child_est = est_of(b, child);
                let est_execs = if *correlated { child_est.rows } else { 1.0 };
                let truth_execs = if *correlated { rows(b, child) } else { 1.0 };
                let c = cost::subquery(
                    node_cost(b, child),
                    node_cost(b, subplan),
                    est_execs,
                    child_est.rows,
                );
                // Optimizers default scalar-comparison selectivity to 1/3.
                let est_rows = (child_est.rows / 3.0).max(1.0);
                let truth_rows = rows(b, child) * truth_sel;
                let width = child_est.width;
                b.wrap(
                    child,
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
                )
            }
        }
    }

    fn build_scan(
        &self,
        b: &mut PlanBuilder,
        table: tpch::schema::TableId,
        filters: &[Predicate],
        truth_override: Option<f64>,
    ) -> usize {
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
            return b.push(
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
            );
        }

        let c = cost::seq_scan(pages, base_rows, filters.len());
        b.push(
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
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build_join(
        &self,
        b: &mut PlanBuilder,
        kind: JoinKind,
        on: (ColRef, ColRef),
        left_expr: &RelExpr,
        right_expr: &RelExpr,
        truth_correction: f64,
        extra_filter_sel: f64,
    ) -> usize {
        let est = self.estimator();
        let left = self.build(b, left_expr);
        let right = self.build(b, right_expr);
        let (l, r) = (est_of(b, left), est_of(b, right));
        let (left_rows, right_rows) = (rows(b, left), rows(b, right));
        let (left_cost, right_cost) = (node_cost(b, left), node_cost(b, right));

        // Logical output cardinalities (physical-choice independent).
        let (est_rows, truth_rows) = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                let e = est.join_rows(l.rows, r.rows, on) * extra_filter_sel;
                let t = truth::join_rows(left_rows, right_rows, on, truth_correction, self.sf())
                    * extra_filter_sel;
                if kind == JoinKind::LeftOuter {
                    (e.max(l.rows), t.max(left_rows))
                } else {
                    (e, t)
                }
            }
            JoinKind::Semi => {
                let sel = est.semi_selectivity(r.rows, on.1) * extra_filter_sel;
                (
                    (l.rows * sel).max(1.0),
                    left_rows * truth_correction * extra_filter_sel,
                )
            }
            JoinKind::Anti => {
                let sel = est.semi_selectivity(r.rows, on.1);
                (
                    (l.rows * (1.0 - sel).max(1e-6) * extra_filter_sel).max(1.0),
                    left_rows * truth_correction * extra_filter_sel,
                )
            }
        };
        let width = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => (l.width + r.width).min(512.0),
            JoinKind::Semi | JoinKind::Anti => l.width,
        };

        // Candidate physical methods, scored by estimated cost.
        let hash_cost = {
            let h = cost::hash_build(right_cost, r.rows);
            cost::hash_join(left_cost, h, l.rows, est_rows)
        };
        // Inner hash joins may build on either side; the optimizer hashes
        // whichever input it *estimates* to be smaller.
        let hash_swapped_cost = if kind == JoinKind::Inner {
            let h = cost::hash_build(left_cost, l.rows);
            Some(cost::hash_join(right_cost, h, r.rows, est_rows))
        } else {
            None
        };
        let merge_cost = {
            let ls = cost::sort(left_cost, l.rows, l.width, self.config.work_mem);
            let rs = cost::sort(right_cost, r.rows, r.width, self.config.work_mem);
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
                let total = left_cost.total
                    + l.rows * probe.total * 0.4
                    + est_rows * cost::CPU_TUPLE_COST;
                Some((
                    Cost {
                        startup: left_cost.startup,
                        total,
                    },
                    matched_per_probe,
                ))
            }
            _ => None,
        };
        // Nested loop over a materialized inner (viable for tiny inners).
        let nl_mat = {
            let m = cost::materialize(right_cost, r.rows);
            let rescan = cost::materialize_rescan(r.rows);
            cost::nested_loop(left_cost, m, rescan, l.rows, est_rows)
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

        // The join over the two input subtrees that start at `first`.
        let join = |b: &mut PlanBuilder, first, op, c: Cost| {
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
            b.wrap(first, op, est, truth, OpDetail::Join { kind, on })
        };

        // Each input's helper nodes go in front of it, the right input's
        // first: nothing is then inserted ahead of a position still used.
        match best.0 {
            "hash" => {
                self.hash_node(b, right);
                join(b, left, OpType::HashJoin, hash_cost)
            }
            "hash_swapped" => {
                let (right, left) = b.swap(left, right);
                self.hash_node(b, left);
                let c = hash_swapped_cost.expect("candidate exists");
                join(b, right, OpType::HashJoin, c)
            }
            "merge" => {
                let rs = self.sort_node(b, right, 1);
                self.materialize_node(b, rs, truth_rows.max(1.0));
                self.sort_node(b, left, 1);
                join(b, left, OpType::MergeJoin, merge_cost)
            }
            "nl_index" => {
                let (c, matched_per_probe) = nl_index.expect("candidate exists");
                // Inner becomes an index scan parameterized by the outer key.
                let probe_truth = (truth_rows / left_rows.max(1.0)).max(0.0);
                let (inner, t) = b.get_mut(right);
                inner.op = OpType::IndexScan;
                let e = &mut inner.est;
                e.rows = matched_per_probe;
                e.pages = (matched_per_probe * 1.05 + 2.0).min(e.pages.max(2.0));
                t.rows = probe_truth;
                t.pages = (probe_truth * 1.05 + 2.0).min(t.pages.max(2.0));
                let probe_cost = cost::index_scan(
                    self.catalog.pages(inner.scan_table().expect("scan")),
                    matched_per_probe,
                    1,
                );
                inner.est.startup_cost = probe_cost.startup;
                inner.est.total_cost = probe_cost.total;
                join(b, left, OpType::NestedLoop, c)
            }
            _ => {
                self.materialize_node(b, right, left_rows.max(1.0));
                join(b, left, OpType::NestedLoop, nl_mat)
            }
        }
    }

    fn build_aggregate(
        &self,
        b: &mut PlanBuilder,
        input: &RelExpr,
        spec: &tpch::spec::AggregateSpec,
    ) -> usize {
        let est = self.estimator();
        let child = self.build(b, input);
        let in_est = est_of(b, child).rows;
        let in_truth = rows(b, child);
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
            let c = cost::group_aggregate(node_cost(b, child), in_est, n_aggs, 1.0);
            return b.wrap(
                child,
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
            );
        }

        let truth = NodeTruth {
            rows: truth_rows,
            pages: 0.0,
            selectivity: truth_hsel,
        };
        let hash_bytes = est_groups * (out_width + 64.0);
        if hash_bytes < self.config.work_mem {
            let c = cost::hash_aggregate(node_cost(b, child), in_est, n_aggs, est_groups);
            b.wrap(
                child,
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
            )
        } else {
            let sorted = self.sort_node(b, child, spec.group_by.len() as u32);
            let c = cost::group_aggregate(node_cost(b, sorted), in_est, n_aggs, est_groups);
            b.wrap(
                sorted,
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
            )
        }
    }

    /// A sort over the subtree at `child`, put in front of it.
    fn sort_node(&self, b: &mut PlanBuilder, child: usize, keys: u32) -> usize {
        let e = est_of(b, child);
        let child_rows = rows(b, child);
        let c = cost::sort(node_cost(b, child), e.rows, e.width, self.config.work_mem);
        let est_bytes = e.rows * e.width;
        let truth_bytes = child_rows * e.width;
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
        b.wrap(
            child,
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
                rows: child_rows,
                pages: truth_pages,
                selectivity: 1.0,
            },
            OpDetail::Sort { keys },
        )
    }

    fn hash_node(&self, b: &mut PlanBuilder, child: usize) -> usize {
        let c = cost::hash_build(node_cost(b, child), est_of(b, child).rows);
        self.pass_through(b, child, OpType::Hash, c, OpDetail::None)
    }

    fn materialize_node(&self, b: &mut PlanBuilder, child: usize, rescans: f64) -> usize {
        let c = cost::materialize(node_cost(b, child), est_of(b, child).rows);
        let detail = OpDetail::Materialize {
            rescans: (rescans - 1.0).max(0.0),
        };
        self.pass_through(b, child, OpType::Materialize, c, detail)
    }

    /// A node in front of the subtree at `child` that outputs its rows
    /// unchanged (`Hash`, `Materialize`).
    fn pass_through(
        &self,
        b: &mut PlanBuilder,
        child: usize,
        op: OpType,
        c: Cost,
        detail: OpDetail,
    ) -> usize {
        let e = est_of(b, child);
        let child_rows = rows(b, child);
        b.wrap(
            child,
            op,
            NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: e.rows,
                width: e.width,
                pages: 0.0,
                selectivity: 1.0,
            },
            NodeTruth {
                rows: child_rows,
                pages: 0.0,
                selectivity: 1.0,
            },
            detail,
        )
    }
}

/// Estimates of the subtree root at `at`.
fn est_of(b: &PlanBuilder, at: usize) -> NodeEst {
    b.get(at).0.est
}

/// True output rows of the subtree root at `at`.
fn rows(b: &PlanBuilder, at: usize) -> f64 {
    b.get(at).1.rows
}

fn node_cost(b: &PlanBuilder, at: usize) -> Cost {
    let e = est_of(b, at);
    Cost {
        startup: e.startup_cost,
        total: e.total_cost,
    }
}

/// Most physical nodes `expr` can plan to: a join may add a `Hash`, or
/// two `Sort`s and a `Materialize`, and a grouped aggregate a `Sort`.
fn max_nodes(expr: &RelExpr) -> usize {
    match expr {
        RelExpr::Scan { .. } => 1,
        RelExpr::Join { left, right, .. } => 4 + max_nodes(left) + max_nodes(right),
        RelExpr::Aggregate { input, .. } => 2 + max_nodes(input),
        RelExpr::Sort { input, .. } | RelExpr::Limit { input, .. } => 1 + max_nodes(input),
        RelExpr::ScalarSubqueryFilter {
            input, subquery, ..
        } => 1 + max_nodes(input) + max_nodes(subquery),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanNode;
    use crate::sim::{SimConfig, Simulator};
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
            assert!(p.len() >= 2, "template {t}");
            assert_eq!(truth.len(), p.len(), "template {t}");
            for (n, nt) in p.iter().zip(&truth[..]) {
                assert!(n.est.rows >= 0.0 && n.est.rows.is_finite(), "template {t}");
                assert!(nt.rows >= 0.0 && nt.rows.is_finite(), "template {t}");
                assert!(n.est.total_cost >= n.est.startup_cost, "template {t}");
            }
        }
    }

    #[test]
    fn t1_is_scan_plus_aggregate() {
        let Planned { plan: p, truth } = plan_template(1, 1.0, 1);
        let ops: Vec<OpType> = p.iter().map(|n| n.op).collect();
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
        let nodes = &p[..];
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
        for n in p.iter() {
            assert!(
                !matches!(n.op, OpType::HashJoin | OpType::MergeJoin | OpType::NestedLoop),
                "t6 must be join-free"
            );
        }
        assert_eq!(p[0].op, OpType::Aggregate);
    }

    #[test]
    fn t18_semi_join_estimate_blows_up() {
        let Planned { plan: p, truth } = plan_template(18, 10.0, 1);
        // The semi join of orders against the HAVING aggregate: estimated
        // rows vastly exceed the truth.
        let nodes = &p[..];
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
        let ops: Vec<OpType> = p.iter().map(|n| n.op).collect();
        assert!(
            ops.contains(&OpType::Materialize) || ops.contains(&OpType::Hash),
            "ops = {ops:?}"
        );
    }

    #[test]
    fn correlated_subquery_templates_have_subquery_scans() {
        for t in [2u8, 17, 20] {
            let p = plan_template(t, 1.0, 1).plan;
            let has = p.iter().any(|n| n.op == OpType::SubqueryScan);
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
        let has_index_scan = p.iter().any(|n| n.op == OpType::IndexScan);
        assert!(has_index_scan);
    }

    /// Aggregation strategy flips from hash to sort+group when work_mem is
    /// tiny (the estimated hash table no longer fits).
    #[test]
    fn work_mem_flips_aggregation_strategy() {
        let catalog = Catalog::new(1.0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let spec = templates::instantiate(10, 1.0, &mut rng); // group by customer: many groups

        let roomy = Planner::with_config(&catalog, PlannerConfig { work_mem: 1e12 })
            .plan(&spec)
            .plan;
        let tight = Planner::with_config(&catalog, PlannerConfig { work_mem: 1024.0 })
            .plan(&spec)
            .plan;

        let has = |p: &[PlanNode], op: OpType| p.iter().any(|n| n.op == op);
        assert!(has(&roomy, OpType::HashAggregate));
        assert!(!has(&roomy, OpType::GroupAggregate));
        assert!(has(&tight, OpType::GroupAggregate));
    }

    /// Pipelined operators do NOT block: a GroupAggregate over sorted input
    /// starts long before its input finishes.
    #[test]
    fn group_aggregate_pipelines() {
        // Build a plan with GroupAggregate by shrinking work_mem.
        let catalog = Catalog::new(1.0, 1);
        let planner = Planner::with_config(&catalog, PlannerConfig { work_mem: 1024.0 });
        let mut rng = StdRng::seed_from_u64(1);
        let p = planner.plan(&templates::instantiate(10, 1.0, &mut rng));
        let sim = Simulator::with_config(SimConfig {
            node_noise_sigma: 0.0,
            query_noise_sigma: 0.0,
            additive_noise_secs: 0.0,
            ..SimConfig::default()
        });
        let trace = sim.execute(&p, 1.0, 0);
        let nodes = &p.plan[..];
        let mut checked = false;
        for (i, n) in nodes.iter().enumerate() {
            if n.op == OpType::GroupAggregate {
                // The child is the blocking Sort; the aggregate streams over
                // its output, so it starts with the sort's first tuple, not
                // after the sort's last.
                let child_start = trace.timings[i + 1].start;
                assert!(
                    trace.timings[i].start <= child_start * 1.01 + 1e-3,
                    "group aggregate should start with its input's first tuple: \
                     start {} vs child start {}",
                    trace.timings[i].start,
                    child_start
                );
                checked = true;
            }
        }
        assert!(checked, "expected a GroupAggregate under tiny work_mem");
    }
}
