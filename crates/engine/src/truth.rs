//! The ground-truth cardinality model.
//!
//! Computes *actual* selectivities and cardinalities from the generative
//! distributions (including the correlation overrides templates supply).
//! The simulator consumes these; the estimator never sees them.

use crate::estimator::cardenas;
use tpch::distributions::{self, COMMIT_LAG, SHIP_LAG_MAX};
use tpch::schema::ColRef;
use tpch::spec::Predicate;
use tpch::types::CmpOp;

/// True selectivity of one predicate at scale factor `sf`.
///
/// # Panics
/// Panics on a `ColCmp` pair the generative model has no closed form for
/// (templates only use the date-lag comparisons below).
pub(crate) fn predicate(p: &Predicate, sf: f64) -> f64 {
    match p {
        Predicate::Cmp { col, op, value } => {
            distributions::selectivity(*col, *op, value.as_f64(), sf)
        }
        Predicate::Between { col, lo, hi } => {
            distributions::between_selectivity(*col, lo.as_f64(), hi.as_f64(), sf)
        }
        Predicate::InSet { col, values } => values
            .iter()
            .map(|v| distributions::selectivity(*col, CmpOp::Eq, v.as_f64(), sf))
            .sum::<f64>()
            .min(1.0),
        Predicate::ColCmp { left, op, right } => col_cmp_truth(*left, *op, *right),
        Predicate::NameLike { color, .. } => distributions::p_name_contains_color(*color),
        Predicate::TextNotLike { truth, .. } => *truth,
    }
}

/// True selectivity of a conjunction of predicates on one table; uses the
/// override when the template computed a joint probability.
pub(crate) fn conjunction(preds: &[Predicate], override_sel: Option<f64>, sf: f64) -> f64 {
    if let Some(s) = override_sel {
        return s;
    }
    preds.iter().map(|p| predicate(p, sf)).product()
}

/// Closed-form truths for the column comparisons the templates use.
fn col_cmp_truth(left: ColRef, op: CmpOp, right: ColRef) -> f64 {
    match (left.name(), op, right.name()) {
        ("l_commitdate", CmpOp::Lt, "l_receiptdate") => distributions::p_commit_before_receipt(),
        ("l_receiptdate", CmpOp::Gt, "l_commitdate") => distributions::p_commit_before_receipt(),
        ("l_shipdate", CmpOp::Lt, "l_commitdate") => p_ship_before_commit(),
        _ => panic!(
            "no closed-form truth for {} {:?} {}",
            left, op, right
        ),
    }
}

/// P(ship lag < commit lag): ship U[1,121] vs commit U[30,90].
fn p_ship_before_commit() -> f64 {
    let mut total = 0.0;
    let ps = 1.0 / SHIP_LAG_MAX as f64;
    let pc = 1.0 / (COMMIT_LAG.1 - COMMIT_LAG.0 + 1) as f64;
    for s in 1..=SHIP_LAG_MAX {
        for c in COMMIT_LAG.0..=COMMIT_LAG.1 {
            if s < c {
                total += ps * pc;
            }
        }
    }
    total
}

/// True inner-join output cardinality: `|L||R| / max(true ndv)` times the
/// template's correlation correction.
pub(crate) fn join_rows(
    l_rows: f64,
    r_rows: f64,
    on: (ColRef, ColRef),
    correction: f64,
    sf: f64,
) -> f64 {
    let ndv = distributions::ndistinct(on.0, sf)
        .max(distributions::ndistinct(on.1, sf))
        .max(1.0);
    (l_rows * r_rows / ndv * correction).max(0.0)
}

/// True group count for grouping `input_rows` rows by a column with true
/// distinct count `ndv` (Cardenas).
pub(crate) fn group_count(ndv: f64, input_rows: f64) -> f64 {
    cardenas(ndv, input_rows).max(if input_rows >= 1.0 { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::schema::{col, TableId};
    use tpch::types::Scalar;

    #[test]
    fn simple_predicates_match_distributions() {
        let p = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            value: Scalar::Int(25),
        };
        assert!((predicate(&p, 1.0) - 24.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn conjunction_override_takes_precedence() {
        let p = Predicate::Cmp {
            col: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            value: Scalar::Int(25),
        };
        assert_eq!(conjunction(std::slice::from_ref(&p), Some(0.123), 1.0), 0.123);
        assert!((conjunction(&[p], None, 1.0) - 0.48).abs() < 0.01);
    }

    #[test]
    fn ship_before_commit_probability() {
        let p = p_ship_before_commit();
        // Ship lag mean 61, commit lag mean 60, but ship has wider spread;
        // roughly half of lines ship before their commit date.
        assert!(p > 0.35 && p < 0.65, "p = {p}");
    }

    #[test]
    fn fk_join_truth_is_fact_side() {
        let rows = join_rows(
            6_001_215.0,
            1_500_000.0,
            (
                col(TableId::Lineitem, "l_orderkey"),
                col(TableId::Orders, "o_orderkey"),
            ),
            1.0,
            1.0,
        );
        assert!((rows - 6_001_215.0).abs() < 1.0);
        // Correction scales the output.
        let halved = join_rows(
            6_001_215.0,
            1_500_000.0,
            (
                col(TableId::Lineitem, "l_orderkey"),
                col(TableId::Orders, "o_orderkey"),
            ),
            0.5,
            1.0,
        );
        assert!((halved - rows / 2.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "no closed-form truth")]
    fn unknown_col_cmp_panics() {
        let p = Predicate::ColCmp {
            left: col(TableId::Lineitem, "l_quantity"),
            op: CmpOp::Lt,
            right: col(TableId::Lineitem, "l_discount"),
        };
        predicate(&p, 1.0);
    }

    #[test]
    fn group_count_saturates() {
        assert!((group_count(6.0, 1e9) - 6.0).abs() < 1e-6);
        assert!(group_count(1e6, 100.0) <= 100.0);
    }
}
