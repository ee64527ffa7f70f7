//! The optimizer's selectivity and cardinality estimator.
//!
//! Works exclusively from the [`Catalog`]'s histograms and distinct counts
//! under the classic assumptions — attribute independence, uniform join
//! keys, default selectivities for unanalyzable predicates (`col op col`,
//! LIKE patterns, HAVING) — and therefore makes exactly the kinds of errors
//! real optimizers make on TPC-H.

use crate::catalog::Catalog;
use crate::histogram::eq_selectivity;
use tpch::spec::Predicate;
use tpch::schema::ColRef;
use tpch::types::CmpOp;

/// PostgreSQL's default selectivity for inequality between columns.
pub(crate) const DEFAULT_INEQ_SEL: f64 = 1.0 / 3.0;
/// PostgreSQL's default selectivity for equality it cannot analyze.
pub(crate) const DEFAULT_EQ_SEL: f64 = 0.005;
/// Default selectivity for `LIKE '%pattern%'`.
pub(crate) const DEFAULT_MATCH_SEL: f64 = 0.005;

/// The estimator: a thin, stateless layer over the catalog.
#[derive(Debug)]
pub(crate) struct Estimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator over `catalog`.
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        Estimator { catalog }
    }

    /// Estimated selectivity of a single predicate.
    pub(crate) fn predicate(&self, p: &Predicate) -> f64 {
        match p {
            Predicate::Cmp { col, op, value } => {
                let ndistinct = self.catalog.ndistinct_est(*col);
                // `=` and `<>` read no histogram, so they must not be the
                // reason the catalog builds one.
                match op {
                    CmpOp::Eq => eq_selectivity(ndistinct),
                    CmpOp::Ne => 1.0 - eq_selectivity(ndistinct),
                    _ => {
                        let h = self.catalog.histogram(*col);
                        h.selectivity(*op, value.as_f64(), ndistinct)
                    }
                }
            }
            Predicate::Between { col, lo, hi } => {
                let h = self.catalog.histogram(*col);
                h.between(lo.as_f64(), hi.as_f64(), self.catalog.ndistinct_est(*col))
            }
            Predicate::InSet { col, values } => {
                let nd = self.catalog.ndistinct_est(*col).max(1.0);
                (values.len() as f64 / nd).min(1.0)
            }
            Predicate::ColCmp { op, .. } => match op {
                CmpOp::Eq => DEFAULT_EQ_SEL,
                CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
                _ => DEFAULT_INEQ_SEL,
            },
            Predicate::NameLike { .. } => DEFAULT_MATCH_SEL,
            // A NOT LIKE: complement of the default pattern match.
            Predicate::TextNotLike { .. } => 1.0 - DEFAULT_MATCH_SEL,
        }
    }

    /// Estimated selectivity of a conjunction (independence assumption).
    pub(crate) fn conjunction(&self, preds: &[Predicate]) -> f64 {
        preds.iter().map(|p| self.predicate(p)).product()
    }

    /// Estimated inner-join output cardinality for `l ⋈ r` on the given
    /// columns: `|L||R| / max(ndv(L.key), ndv(R.key))`.
    pub(crate) fn join_rows(&self, l_rows: f64, r_rows: f64, on: (ColRef, ColRef)) -> f64 {
        let ndv = self
            .catalog
            .ndistinct_est(on.0)
            .max(self.catalog.ndistinct_est(on.1))
            .max(1.0);
        (l_rows * r_rows / ndv).max(1.0)
    }

    /// Estimated fraction of left rows with a match in the right input
    /// (semi-join selectivity): coverage of the right key domain.
    pub(crate) fn semi_selectivity(&self, r_rows: f64, right_key: ColRef) -> f64 {
        let ndv = self.catalog.ndistinct_est(right_key).max(1.0);
        // Cardenas: distinct right keys present given r_rows draws.
        let covered = cardenas(ndv, r_rows);
        (covered / ndv).clamp(0.0, 1.0)
    }

    /// Estimated group count when grouping `input_rows` by `cols`.
    pub(crate) fn group_count(&self, cols: &[ColRef], input_rows: f64) -> f64 {
        if cols.is_empty() {
            return 1.0;
        }
        let mut ndv = 1.0f64;
        for c in cols {
            ndv *= self.catalog.ndistinct_est(*c).max(1.0);
            if ndv > 1e15 {
                break;
            }
        }
        cardenas(ndv, input_rows).max(1.0)
    }

    /// Default HAVING selectivity (PostgreSQL has no statistics on
    /// aggregate outputs).
    pub(crate) fn having_selectivity(&self, op: CmpOp) -> f64 {
        match op {
            CmpOp::Eq => DEFAULT_EQ_SEL,
            CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
            _ => DEFAULT_INEQ_SEL,
        }
    }

    /// Access to the underlying catalog.
    pub(crate) fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

/// Cardenas' formula: expected distinct values seen when drawing `n` rows
/// uniformly from `d` distinct values.
pub fn cardenas(d: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    if d <= 1.0 {
        return d.clamp(0.0, 1.0);
    }
    // d * (1 - (1 - 1/d)^n), computed in log space for stability.
    let log_term = n * (1.0 - 1.0 / d).ln();
    d * (1.0 - log_term.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::schema::{col, TableId};
    use tpch::types::Scalar;

    fn catalog() -> Catalog {
        Catalog::new(1.0, 1)
    }

    #[test]
    fn range_predicates_track_histograms() {
        let c = catalog();
        let e = Estimator::new(&c);
        let p = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            value: Scalar::Int(25),
        };
        let s = e.predicate(&p);
        assert!((s - 0.48).abs() < 0.06, "s = {s}");
    }

    #[test]
    fn equality_reads_the_distinct_count_and_builds_no_histogram() {
        use rng::StdRng;
        let c = Catalog::new(0.1, 1);
        let planner = crate::planner::Planner::new(&c);
        let mut rng = StdRng::seed_from_u64(3);
        // Template 3 filters `c_mktsegment = ..`, template 10
        // `l_returnflag = ..`, and both filter date ranges.
        for t in [3, 10] {
            planner.plan(&tpch::templates::instantiate(t, 0.1, &mut rng));
        }
        let equality_only = [
            col(TableId::Customer, "c_mktsegment"),
            col(TableId::Lineitem, "l_returnflag"),
        ];
        assert!(c.has_histogram(col(TableId::Orders, "o_orderdate")));
        assert!(c.has_histogram(col(TableId::Lineitem, "l_shipdate")));
        for column in equality_only {
            assert!(
                !c.has_histogram(column),
                "{column} is only ever compared for equality"
            );
        }
        // What the estimator answers without the histogram is what the
        // histogram would have answered.
        let e = Estimator::new(&c);
        for column in equality_only {
            let estimates = [CmpOp::Eq, CmpOp::Ne].map(|op| {
                let p = Predicate::Cmp {
                    col: column,
                    op,
                    value: Scalar::Cat(1),
                };
                (op, e.predicate(&p))
            });
            assert!(!c.has_histogram(column));
            let (h, ndistinct) = (c.histogram(column), c.ndistinct_est(column));
            for (op, estimate) in estimates {
                let through_histogram = h.selectivity(op, 1.0, ndistinct);
                assert_eq!(
                    estimate.to_bits(),
                    through_histogram.to_bits(),
                    "{column} {op:?}"
                );
            }
        }
    }

    #[test]
    fn conjunction_multiplies_independently() {
        let c = catalog();
        let e = Estimator::new(&c);
        let p1 = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            value: Scalar::Int(25),
        };
        let p2 = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_returnflag"),
            op: CmpOp::Eq,
            value: Scalar::Cat(0),
        };
        let both = e.conjunction(&[p1.clone(), p2.clone()]);
        let prod = e.predicate(&p1) * e.predicate(&p2);
        assert!((both - prod).abs() < 1e-12);
    }

    #[test]
    fn col_cmp_uses_default_third() {
        let c = catalog();
        let e = Estimator::new(&c);
        let p = Predicate::ColCmp {
            left: col(TableId::Lineitem, "l_commitdate"),
            op: CmpOp::Lt,
            right: col(TableId::Lineitem, "l_receiptdate"),
        };
        assert_eq!(e.predicate(&p), DEFAULT_INEQ_SEL);
        // The truth is ≈ 0.63 — the estimator is systematically wrong here,
        // by design.
        assert!((tpch::distributions::p_commit_before_receipt() - e.predicate(&p)).abs() > 0.2);
    }

    #[test]
    fn fk_pk_join_estimates_fanout() {
        let c = catalog();
        let e = Estimator::new(&c);
        let rows = e.join_rows(
            6_001_215.0,
            1_500_000.0,
            (
                col(TableId::Lineitem, "l_orderkey"),
                col(TableId::Orders, "o_orderkey"),
            ),
        );
        // ndv(o_orderkey) = 1.5M exactly, so the estimate is ≈ |lineitem|.
        assert!((rows - 6_001_215.0).abs() / 6_001_215.0 < 0.01, "rows = {rows}");
    }

    #[test]
    fn cardenas_limits() {
        assert!((cardenas(10.0, 1e9) - 10.0).abs() < 1e-6);
        assert!(cardenas(1e6, 10.0) <= 10.0 + 1e-9);
        assert!(cardenas(1e6, 10.0) > 9.9);
        assert_eq!(cardenas(5.0, 0.0), 0.0);
    }

    #[test]
    fn group_count_caps_at_input() {
        let c = catalog();
        let e = Estimator::new(&c);
        let g = e.group_count(&[col(TableId::Customer, "c_custkey")], 100.0);
        assert!(g <= 100.0 + 1e-9);
        assert!(g > 90.0);
        assert_eq!(e.group_count(&[], 1000.0), 1.0);
    }

    #[test]
    fn t18_group_estimate_reproduces_the_papers_blowup() {
        // At SF 10: true group count after the HAVING is tiny (tens), but
        // the estimator sees underestimated ndv × default 1/3 — hundreds of
        // thousands.
        let c = Catalog::new(10.0, 1);
        let e = Estimator::new(&c);
        let groups = e.group_count(&[col(TableId::Lineitem, "l_orderkey")], 60_000_000.0);
        let est_after_having = groups * e.having_selectivity(CmpOp::Gt);
        assert!(
            est_after_having > 100_000.0 && est_after_having < 2_000_000.0,
            "estimate = {est_after_having}"
        );
        let truth = 15_000_000.0 * tpch::templates::p_order_quantity_sum_gt(314.0);
        assert!(truth < 1_000.0, "truth = {truth}");
    }
}
