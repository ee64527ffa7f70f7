//! The cost-based physical planner.
//!
//! Lowers a template's logical [`RelExpr`] to a PostgreSQL-shaped physical
//! [`PlanNode`] tree. Join *order* is part of the template definition (as
//! the paper's plans come from PostgreSQL, whose orders are stable for
//! TPC-H); this planner makes the *physical* choices — scan methods, join
//! algorithms, aggregation strategies, sort/materialize placement — by
//! comparing analytical cost estimates, exactly the way an optimizer does.
//! Every node carries both the estimate-side annotations (what models can
//! see) and the truth-side annotations (what the simulator executes).

use crate::catalog::{has_index, Catalog};
use crate::cost::{self, Cost};
use crate::estimator::Estimator;
use crate::plan::{NodeEst, NodeTruth, OpDetail, OpType, PlanNode};
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

    /// Plans a query.
    pub fn plan(&self, spec: &QuerySpec) -> PlanNode {
        self.build(&spec.root)
    }

    fn estimator(&self) -> Estimator<'_> {
        Estimator::new(self.catalog)
    }

    fn sf(&self) -> f64 {
        self.catalog.sf
    }

    fn build(&self, expr: &RelExpr) -> PlanNode {
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
                let est_rows = (*count as f64).min(child.est.rows);
                let truth_rows = (*count as f64).min(child.truth.rows);
                let c = cost::limit(node_cost(&child), child.est.rows, *count as f64);
                let width = child.est.width;
                PlanNode {
                    op: OpType::Limit,
                    est: NodeEst {
                        startup_cost: c.startup,
                        total_cost: c.total,
                        rows: est_rows,
                        width,
                        pages: 0.0,
                        selectivity: 1.0,
                    },
                    truth: NodeTruth {
                        rows: truth_rows,
                        pages: 0.0,
                        selectivity: 1.0,
                    },
                    detail: OpDetail::Limit { count: *count },
                    children: Box::new([child]),
                }
            }
            RelExpr::ScalarSubqueryFilter {
                input,
                subquery,
                truth_sel,
                correlated,
            } => {
                let child = self.build(input);
                let sub = self.build(subquery);
                let est_execs = if *correlated { child.est.rows } else { 1.0 };
                let truth_execs = if *correlated { child.truth.rows } else { 1.0 };
                let c = cost::subquery(node_cost(&child), node_cost(&sub), est_execs, child.est.rows);
                // Optimizers default scalar-comparison selectivity to 1/3.
                let est_rows = (child.est.rows / 3.0).max(1.0);
                let truth_rows = child.truth.rows * truth_sel;
                let width = child.est.width;
                PlanNode {
                    op: OpType::SubqueryScan,
                    est: NodeEst {
                        startup_cost: c.startup,
                        total_cost: c.total,
                        rows: est_rows,
                        width,
                        pages: 0.0,
                        selectivity: 1.0 / 3.0,
                    },
                    truth: NodeTruth {
                        rows: truth_rows,
                        pages: 0.0,
                        selectivity: *truth_sel,
                    },
                    detail: OpDetail::Subquery {
                        correlated: *correlated,
                        executions: truth_execs,
                    },
                    children: Box::new([child, sub]),
                }
            }
        }
    }

    fn build_scan(
        &self,
        table: tpch::schema::TableId,
        filters: &[Predicate],
        truth_override: Option<f64>,
    ) -> PlanNode {
        let est = self.estimator();
        let base_rows = self.catalog.rows(table);
        let pages = self.catalog.pages(table);
        let width = self.catalog.width(table);
        let est_sel = est.conjunction(filters);
        let truth_sel = truth::conjunction(filters, truth_override, self.sf());
        let est_rows = (base_rows * est_sel).max(1.0);
        let truth_rows = base_rows * truth_sel;

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
            return PlanNode {
                op: OpType::IndexScan,
                est: NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width,
                    pages: est_pages,
                    selectivity: est_sel,
                },
                truth: NodeTruth {
                    rows: truth_rows,
                    pages: truth_pages,
                    selectivity: truth_sel,
                },
                detail: OpDetail::Scan {
                    table,
                    filters: filters.into(),
                },
                children: Box::new([]),
            };
        }

        let c = cost::seq_scan(pages, base_rows, filters.len());
        PlanNode {
            op: OpType::SeqScan,
            est: NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: est_rows,
                width,
                pages,
                selectivity: est_sel,
            },
            truth: NodeTruth {
                rows: truth_rows,
                pages,
                selectivity: truth_sel,
            },
            detail: OpDetail::Scan {
                table,
                filters: filters.into(),
            },
            children: Box::new([]),
        }
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
    ) -> PlanNode {
        let est = self.estimator();
        let left = self.build(left_expr);
        let right = self.build(right_expr);

        // Logical output cardinalities (physical-choice independent).
        let (est_rows, truth_rows) = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                let e = est.join_rows(left.est.rows, right.est.rows, on) * extra_filter_sel;
                let t = truth::join_rows(
                    left.truth.rows,
                    right.truth.rows,
                    on,
                    truth_correction,
                    self.sf(),
                ) * extra_filter_sel;
                if kind == JoinKind::LeftOuter {
                    (e.max(left.est.rows), t.max(left.truth.rows))
                } else {
                    (e, t)
                }
            }
            JoinKind::Semi => {
                let sel = est.semi_selectivity(right.est.rows, on.1) * extra_filter_sel;
                (
                    (left.est.rows * sel).max(1.0),
                    left.truth.rows * truth_correction * extra_filter_sel,
                )
            }
            JoinKind::Anti => {
                let sel = est.semi_selectivity(right.est.rows, on.1);
                (
                    (left.est.rows * (1.0 - sel).max(1e-6) * extra_filter_sel).max(1.0),
                    left.truth.rows * truth_correction * extra_filter_sel,
                )
            }
        };
        let width = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => (left.est.width + right.est.width).min(512.0),
            JoinKind::Semi | JoinKind::Anti => left.est.width,
        };

        // Candidate physical methods, scored by estimated cost.
        let hash_cost = {
            let h = cost::hash_build(node_cost(&right), right.est.rows);
            cost::hash_join(node_cost(&left), h, left.est.rows, est_rows)
        };
        // Inner hash joins may build on either side; the optimizer hashes
        // whichever input it *estimates* to be smaller.
        let hash_swapped_cost = if kind == JoinKind::Inner {
            let h = cost::hash_build(node_cost(&left), left.est.rows);
            Some(cost::hash_join(node_cost(&right), h, right.est.rows, est_rows))
        } else {
            None
        };
        let merge_cost = {
            let ls = cost::sort(node_cost(&left), left.est.rows, left.est.width, self.config.work_mem);
            let rs = cost::sort(
                node_cost(&right),
                right.est.rows,
                right.est.width,
                self.config.work_mem,
            );
            cost::merge_join(ls, rs, left.est.rows, right.est.rows, est_rows)
        };
        // Nested loop with an index probe of the inner base table, when the
        // inner is a plain scan of an indexed join column.
        let nl_index = match right_expr {
            RelExpr::Scan { table, filters, .. }
                if has_index(on.1) && matches!(kind, JoinKind::Inner | JoinKind::Semi) =>
            {
                let matched_per_probe =
                    (right.est.rows / est.catalog().ndistinct_est(on.1).max(1.0)).max(1.0);
                let probe = cost::index_scan(self.catalog.pages(*table), matched_per_probe, filters.len() + 1);
                // Repeated probes are assumed largely cached
                // (effective_cache_size): the optimizer discounts them —
                // one of the ways a cardinality underestimate snowballs
                // into a catastrophically slow nested-loop plan.
                let total = node_cost(&left).total
                    + left.est.rows * probe.total * 0.4
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
            let m = cost::materialize(node_cost(&right), right.est.rows);
            let rescan = cost::materialize_rescan(right.est.rows);
            cost::nested_loop(node_cost(&left), m, rescan, left.est.rows, est_rows)
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
        if nl_mat.total < best.1 && right.est.rows < 100_000.0 {
            best = ("nl_mat", nl_mat.total);
        }

        let mk_est = |c: Cost, sel: f64| NodeEst {
            startup_cost: c.startup,
            total_cost: c.total,
            rows: est_rows,
            width,
            pages: 0.0,
            selectivity: sel,
        };
        let truth_ann = NodeTruth {
            rows: truth_rows,
            pages: 0.0,
            selectivity: extra_filter_sel,
        };
        let detail = OpDetail::Join { kind, on };

        match best.0 {
            "hash" => {
                let hash_node = self.hash_node(right);
                PlanNode {
                    op: OpType::HashJoin,
                    est: mk_est(hash_cost, extra_filter_sel),
                    truth: truth_ann,
                    detail,
                    children: Box::new([left, hash_node]),
                }
            }
            "hash_swapped" => {
                let hash_node = self.hash_node(left);
                PlanNode {
                    op: OpType::HashJoin,
                    est: mk_est(hash_swapped_cost.expect("candidate exists"), extra_filter_sel),
                    truth: truth_ann,
                    detail,
                    children: Box::new([right, hash_node]),
                }
            }
            "merge" => {
                let ls = self.sort_node(left, 1);
                let rs = self.sort_node(right, 1);
                let rm = self.materialize_node(rs, truth_rows.max(1.0));
                PlanNode {
                    op: OpType::MergeJoin,
                    est: mk_est(merge_cost, extra_filter_sel),
                    truth: truth_ann,
                    detail,
                    children: Box::new([ls, rm]),
                }
            }
            "nl_index" => {
                let (c, matched_per_probe) = nl_index.expect("candidate exists");
                // Inner becomes an index scan parameterized by the outer key.
                let mut inner = right;
                inner.op = OpType::IndexScan;
                let probe_truth =
                    (truth_rows / left.truth.rows.max(1.0)).max(0.0);
                inner.est.rows = matched_per_probe;
                inner.est.pages = (matched_per_probe * 1.05 + 2.0).min(inner.est.pages.max(2.0));
                inner.truth.rows = probe_truth;
                inner.truth.pages = (probe_truth * 1.05 + 2.0).min(inner.truth.pages.max(2.0));
                let probe_cost =
                    cost::index_scan(self.catalog.pages(inner.scan_table().expect("scan")), matched_per_probe, 1);
                inner.est.startup_cost = probe_cost.startup;
                inner.est.total_cost = probe_cost.total;
                PlanNode {
                    op: OpType::NestedLoop,
                    est: mk_est(c, extra_filter_sel),
                    truth: truth_ann,
                    detail,
                    children: Box::new([left, inner]),
                }
            }
            _ => {
                let m = self.materialize_node(right, left.truth.rows.max(1.0));
                PlanNode {
                    op: OpType::NestedLoop,
                    est: mk_est(nl_mat, extra_filter_sel),
                    truth: truth_ann,
                    detail,
                    children: Box::new([left, m]),
                }
            }
        }
    }

    fn build_aggregate(&self, input: &RelExpr, spec: &tpch::spec::AggregateSpec) -> PlanNode {
        let est = self.estimator();
        let child = self.build(input);
        let in_est = child.est.rows;
        let in_truth = child.truth.rows;
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
            return PlanNode {
                op: OpType::Aggregate,
                est: NodeEst {
                    startup_cost: c.total - cost::CPU_TUPLE_COST,
                    total_cost: c.total,
                    rows: 1.0,
                    width: out_width,
                    pages: 0.0,
                    selectivity: 1.0,
                },
                truth: NodeTruth {
                    rows: 1.0,
                    pages: 0.0,
                    selectivity: 1.0,
                },
                detail,
                children: Box::new([child]),
            };
        }

        let hash_bytes = est_groups * (out_width + 64.0);
        if hash_bytes < self.config.work_mem {
            let c = cost::hash_aggregate(node_cost(&child), in_est, n_aggs, est_groups);
            PlanNode {
                op: OpType::HashAggregate,
                est: NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width: out_width,
                    pages: 0.0,
                    selectivity: est_hsel,
                },
                truth: NodeTruth {
                    rows: truth_rows,
                    pages: 0.0,
                    selectivity: truth_hsel,
                },
                detail,
                children: Box::new([child]),
            }
        } else {
            let sorted = self.sort_node(child, spec.group_by.len() as u32);
            let c = cost::group_aggregate(node_cost(&sorted), in_est, n_aggs, est_groups);
            PlanNode {
                op: OpType::GroupAggregate,
                est: NodeEst {
                    startup_cost: c.startup,
                    total_cost: c.total,
                    rows: est_rows,
                    width: out_width,
                    pages: 0.0,
                    selectivity: est_hsel,
                },
                truth: NodeTruth {
                    rows: truth_rows,
                    pages: 0.0,
                    selectivity: truth_hsel,
                },
                detail,
                children: Box::new([sorted]),
            }
        }
    }

    fn sort_node(&self, child: PlanNode, keys: u32) -> PlanNode {
        let c = cost::sort(
            node_cost(&child),
            child.est.rows,
            child.est.width,
            self.config.work_mem,
        );
        let est_bytes = child.est.rows * child.est.width;
        let truth_bytes = child.truth.rows * child.est.width;
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
        PlanNode {
            op: OpType::Sort,
            est: NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: child.est.rows,
                width: child.est.width,
                pages: est_pages,
                selectivity: 1.0,
            },
            truth: NodeTruth {
                rows: child.truth.rows,
                pages: truth_pages,
                selectivity: 1.0,
            },
            detail: OpDetail::Sort { keys },
            children: Box::new([child]),
        }
    }

    fn hash_node(&self, child: PlanNode) -> PlanNode {
        let c = cost::hash_build(node_cost(&child), child.est.rows);
        PlanNode {
            op: OpType::Hash,
            est: NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: child.est.rows,
                width: child.est.width,
                pages: 0.0,
                selectivity: 1.0,
            },
            truth: NodeTruth {
                rows: child.truth.rows,
                pages: 0.0,
                selectivity: 1.0,
            },
            detail: OpDetail::None,
            children: Box::new([child]),
        }
    }

    fn materialize_node(&self, child: PlanNode, rescans: f64) -> PlanNode {
        let c = cost::materialize(node_cost(&child), child.est.rows);
        PlanNode {
            op: OpType::Materialize,
            est: NodeEst {
                startup_cost: c.startup,
                total_cost: c.total,
                rows: child.est.rows,
                width: child.est.width,
                pages: 0.0,
                selectivity: 1.0,
            },
            truth: NodeTruth {
                rows: child.truth.rows,
                pages: 0.0,
                selectivity: 1.0,
            },
            detail: OpDetail::Materialize {
                rescans: (rescans - 1.0).max(0.0),
            },
            children: Box::new([child]),
        }
    }
}

fn node_cost(n: &PlanNode) -> Cost {
    Cost {
        startup: n.est.startup_cost,
        total: n.est.total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::StdRng;
    use tpch::templates;

    fn plan_template(t: u8, sf: f64, seed: u64) -> PlanNode {
        let catalog = Catalog::new(sf, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = templates::instantiate(t, sf, &mut rng);
        planner.plan(&spec)
    }

    #[test]
    fn all_templates_plan_without_panic() {
        for t in templates::ALL_TEMPLATES {
            let p = plan_template(t, 1.0, 3);
            assert!(p.node_count() >= 2, "template {t}");
            for n in p.preorder() {
                assert!(n.est.rows >= 0.0 && n.est.rows.is_finite(), "template {t}");
                assert!(n.truth.rows >= 0.0 && n.truth.rows.is_finite(), "template {t}");
                assert!(n.est.total_cost >= n.est.startup_cost, "template {t}");
            }
        }
    }

    #[test]
    fn t1_is_scan_plus_aggregate() {
        let p = plan_template(1, 1.0, 1);
        let ops: Vec<OpType> = p.preorder().iter().map(|n| n.op).collect();
        assert!(ops.contains(&OpType::SeqScan));
        assert!(ops.contains(&OpType::HashAggregate) || ops.contains(&OpType::GroupAggregate));
        assert_eq!(ops[0], OpType::Sort);
        // Truth: ~6M lineitem rows scanned, 6 groups out.
        let scan = p.preorder().into_iter().find(|n| n.op == OpType::SeqScan).unwrap();
        assert!(scan.truth.rows > 5_000_000.0);
    }

    #[test]
    fn t3_join_correction_shrinks_truth_vs_estimate() {
        let p = plan_template(3, 1.0, 1);
        // Find the top join: truth rows should be far below the estimate.
        let join = p
            .preorder()
            .into_iter()
            .find(|n| matches!(n.op, OpType::HashJoin | OpType::MergeJoin | OpType::NestedLoop))
            .expect("has a join");
        assert!(
            join.truth.rows < join.est.rows,
            "truth {} est {}",
            join.truth.rows,
            join.est.rows
        );
    }

    #[test]
    fn t6_has_no_joins() {
        let p = plan_template(6, 1.0, 1);
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
        let p = plan_template(18, 10.0, 1);
        // The semi join of orders against the HAVING aggregate: estimated
        // rows vastly exceed the truth.
        let semi = p
            .preorder()
            .into_iter()
            .find(|n| {
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
            semi.est.rows > semi.truth.rows * 100.0,
            "est {} truth {}",
            semi.est.rows,
            semi.truth.rows
        );
    }

    #[test]
    fn t13_contains_materialize_or_hash() {
        let p = plan_template(13, 10.0, 1);
        let ops: Vec<OpType> = p.preorder().iter().map(|n| n.op).collect();
        assert!(
            ops.contains(&OpType::Materialize) || ops.contains(&OpType::Hash),
            "ops = {ops:?}"
        );
    }

    #[test]
    fn correlated_subquery_templates_have_subquery_scans() {
        for t in [2u8, 17, 20] {
            let p = plan_template(t, 1.0, 1);
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
        let p = plan_template(17, 1.0, 1);
        let has_index_scan = p.preorder().iter().any(|n| n.op == OpType::IndexScan);
        assert!(has_index_scan);
    }
}
