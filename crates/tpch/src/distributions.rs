//! Generative column distributions and exact selectivity math.
//!
//! Every column of the TPC-H schema is described by the distribution its
//! values are drawn from in the data generator. Because both the generator
//! and this module are built from the same descriptions, *true*
//! selectivities of predicates can be computed in closed form (and verified
//! against generated data at small scale factors — see the integration
//! tests).
//!
//! The date columns of LINEITEM are *derived* from `o_orderdate` through
//! uniform lags, which creates exactly the cross-column and cross-table
//! correlations that trip up an optimizer assuming attribute independence.
//! The `joint` functions at the bottom compute exact probabilities for the
//! correlated predicate combinations used by the query templates.

use std::sync::OnceLock;

use crate::dicts;
use crate::schema::{ColRef, TableId};
use crate::types::{CmpOp, END_DATE};

/// Number of distinct `o_orderdate` values: STARTDATE .. ENDDATE − 151 days.
pub(crate) const ORDERDATE_VALUES: i32 = END_DATE - 151 + 1;

/// Maximum ship lag (days after the order date).
pub const SHIP_LAG_MAX: i32 = 121;
/// Commit lag range (days after the order date).
pub const COMMIT_LAG: (i32, i32) = (30, 90);
/// Receipt lag range (days after the ship date).
pub(crate) const RECEIPT_LAG: (i32, i32) = (1, 30);
/// Lines per order range.
pub(crate) const LINES_PER_ORDER: (i32, i32) = (1, 7);

/// Generative description of a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Dense serial key `1..=row_count` (primary keys).
    SerialKey,
    /// Uniform over the primary-key domain of another table (foreign keys).
    ForeignKey(TableId),
    /// Uniform integer over an inclusive range.
    UniformInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Uniform float over a half-open range.
    UniformFloat {
        /// Lower bound.
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Uniform over categorical codes `0..n`.
    Categorical {
        /// Number of categories.
        n: u32,
    },
    /// `o_orderdate`: uniform over day numbers `0 ..= ENDDATE-151`.
    OrderDate,
    /// `l_shipdate = o_orderdate + U[1, 121]`.
    ShipDate,
    /// `l_commitdate = o_orderdate + U[30, 90]`.
    CommitDate,
    /// `l_receiptdate = l_shipdate + U[1, 30]`.
    ReceiptDate,
    /// Text column (comments, names) — no predicate math beyond LIKE.
    Text,
}

impl Distribution {
    /// Whether the column's CDF is a step function on the integers:
    /// `selectivity(c, Le, v) == selectivity(c, Le, v.floor())` to the bit
    /// for every finite `v`.
    ///
    /// True of everything drawn from integers — keys, uniform ints,
    /// categorical codes and the four date families. For a lagged date
    /// the claim is about floats, not only about the model: `v − lag` is
    /// exact whenever `v ≥ lag` (the difference is no larger than `v` and
    /// on `v`'s grid), and when `v < lag` both `v − lag` and
    /// `⌊v⌋ − lag` are negative and select nothing, so every term of the
    /// lag sum keeps its bits. `engine::histogram` inverts such a CDF by
    /// searching the integers instead of the real line.
    pub fn steps_on_integers(self) -> bool {
        match self {
            Distribution::SerialKey
            | Distribution::ForeignKey(_)
            | Distribution::UniformInt { .. }
            | Distribution::Categorical { .. }
            | Distribution::OrderDate
            | Distribution::ShipDate
            | Distribution::CommitDate
            | Distribution::ReceiptDate => true,
            Distribution::UniformFloat { .. } | Distribution::Text => false,
        }
    }
}

/// Returns the generative distribution of a column. Every column of the
/// schema has one (`engine::histogram`'s tests build each).
pub fn column_distribution(c: ColRef) -> Distribution {
    use Distribution as D;
    use TableId as T;
    match (c.table, c.name()) {
        (T::Region, "r_regionkey") => D::SerialKey,
        (T::Region, "r_name") => D::Categorical { n: 5 },
        (T::Nation, "n_nationkey") => D::SerialKey,
        (T::Nation, "n_name") => D::Categorical { n: 25 },
        (T::Nation, "n_regionkey") => D::ForeignKey(T::Region),
        (T::Supplier, "s_suppkey") => D::SerialKey,
        (T::Supplier, "s_nationkey") => D::ForeignKey(T::Nation),
        (T::Supplier, "s_acctbal") => D::UniformFloat {
            lo: -999.99,
            hi: 9999.99,
        },
        (T::Supplier, "s_name" | "s_phone" | "s_comment") => D::Text,
        (T::Customer, "c_custkey") => D::SerialKey,
        (T::Customer, "c_nationkey") => D::ForeignKey(T::Nation),
        (T::Customer, "c_acctbal") => D::UniformFloat {
            lo: -999.99,
            hi: 9999.99,
        },
        (T::Customer, "c_mktsegment") => D::Categorical { n: 5 },
        (T::Customer, "c_name" | "c_phone" | "c_comment") => D::Text,
        (T::Part, "p_partkey") => D::SerialKey,
        (T::Part, "p_name") => D::Text,
        (T::Part, "p_mfgr") => D::Categorical { n: 5 },
        (T::Part, "p_brand") => D::Categorical {
            n: dicts::N_BRANDS,
        },
        (T::Part, "p_type") => D::Categorical { n: dicts::N_TYPES },
        (T::Part, "p_size") => D::UniformInt { lo: 1, hi: 50 },
        (T::Part, "p_container") => D::Categorical {
            n: dicts::N_CONTAINERS,
        },
        (T::Part, "p_retailprice") => D::UniformFloat {
            lo: 900.0,
            hi: 2100.0,
        },
        (T::Partsupp, "ps_partkey") => D::ForeignKey(T::Part),
        (T::Partsupp, "ps_suppkey") => D::ForeignKey(T::Supplier),
        (T::Partsupp, "ps_availqty") => D::UniformInt { lo: 1, hi: 9999 },
        (T::Partsupp, "ps_supplycost") => D::UniformFloat {
            lo: 1.0,
            hi: 1000.0,
        },
        (T::Orders, "o_orderkey") => D::SerialKey,
        (T::Orders, "o_custkey") => D::ForeignKey(T::Customer),
        (T::Orders, "o_orderstatus") => D::Categorical { n: 3 },
        (T::Orders, "o_totalprice") => D::UniformFloat {
            lo: 850.0,
            hi: 550_000.0,
        },
        (T::Orders, "o_orderdate") => D::OrderDate,
        (T::Orders, "o_orderpriority") => D::Categorical { n: 5 },
        (T::Orders, "o_shippriority") => D::UniformInt { lo: 0, hi: 0 },
        (T::Orders, "o_clerk" | "o_comment") => D::Text,
        (T::Lineitem, "l_orderkey") => D::ForeignKey(T::Orders),
        (T::Lineitem, "l_partkey") => D::ForeignKey(T::Part),
        (T::Lineitem, "l_suppkey") => D::ForeignKey(T::Supplier),
        (T::Lineitem, "l_linenumber") => D::UniformInt { lo: 1, hi: 7 },
        (T::Lineitem, "l_quantity") => D::UniformInt { lo: 1, hi: 50 },
        (T::Lineitem, "l_extendedprice") => D::UniformFloat {
            lo: 900.0,
            hi: 105_000.0,
        },
        (T::Lineitem, "l_discount") => D::UniformInt { lo: 0, hi: 10 },
        (T::Lineitem, "l_tax") => D::UniformInt { lo: 0, hi: 8 },
        (T::Lineitem, "l_returnflag") => D::Categorical { n: 3 },
        (T::Lineitem, "l_linestatus") => D::Categorical { n: 2 },
        (T::Lineitem, "l_shipdate") => D::ShipDate,
        (T::Lineitem, "l_commitdate") => D::CommitDate,
        (T::Lineitem, "l_receiptdate") => D::ReceiptDate,
        (T::Lineitem, "l_shipinstruct") => D::Categorical { n: 4 },
        (T::Lineitem, "l_shipmode") => D::Categorical { n: 7 },
        (T::Lineitem, "l_comment") => D::Text,
        _ => unreachable!("{c} is a schema column without a distribution"),
    }
}

/// Number of distinct values of a column at the given scale factor.
pub fn ndistinct(c: ColRef, sf: f64) -> f64 {
    match column_distribution(c) {
        Distribution::SerialKey => c.table.row_count(sf) as f64,
        Distribution::ForeignKey(target) => {
            // Distinct referenced keys, capped by the referencing row count.
            (target.row_count(sf) as f64).min(c.table.row_count(sf) as f64)
        }
        Distribution::UniformInt { lo, hi } => (hi - lo + 1) as f64,
        Distribution::UniformFloat { .. } => (c.table.row_count(sf) as f64).min(1e7),
        Distribution::Categorical { n } => n as f64,
        Distribution::OrderDate => ORDERDATE_VALUES as f64,
        Distribution::ShipDate => (ORDERDATE_VALUES + SHIP_LAG_MAX) as f64,
        Distribution::CommitDate => (ORDERDATE_VALUES + COMMIT_LAG.1 - COMMIT_LAG.0) as f64,
        Distribution::ReceiptDate => {
            (ORDERDATE_VALUES + SHIP_LAG_MAX + RECEIPT_LAG.1 - RECEIPT_LAG.0) as f64
        }
        Distribution::Text => c.table.row_count(sf) as f64,
    }
}

/// Numeric (min, max) of a column's domain at the given scale factor.
pub fn value_range(c: ColRef, sf: f64) -> (f64, f64) {
    match column_distribution(c) {
        Distribution::SerialKey => (1.0, c.table.row_count(sf) as f64),
        Distribution::ForeignKey(target) => (1.0, target.row_count(sf) as f64),
        Distribution::UniformInt { lo, hi } => (lo as f64, hi as f64),
        Distribution::UniformFloat { lo, hi } => (lo, hi),
        Distribution::Categorical { n } => (0.0, (n - 1) as f64),
        Distribution::OrderDate => (0.0, (ORDERDATE_VALUES - 1) as f64),
        Distribution::ShipDate => (1.0, (ORDERDATE_VALUES - 1 + SHIP_LAG_MAX) as f64),
        Distribution::CommitDate => (
            COMMIT_LAG.0 as f64,
            (ORDERDATE_VALUES - 1 + COMMIT_LAG.1) as f64,
        ),
        Distribution::ReceiptDate => (
            2.0,
            (ORDERDATE_VALUES - 1 + SHIP_LAG_MAX + RECEIPT_LAG.1) as f64,
        ),
        Distribution::Text => (0.0, 0.0),
    }
}

/// Exact P(`col op value`) under the generative model.
///
/// For derived date columns this averages the uniform base-date probability
/// over the (discrete, uniform) lag distributions, which is exact.
pub fn selectivity(c: ColRef, op: CmpOp, value: f64, sf: f64) -> f64 {
    let dist = column_distribution(c);
    match dist {
        Distribution::SerialKey | Distribution::ForeignKey(_) => {
            let (lo, hi) = value_range(c, sf);
            uniform_int_sel(lo as i64, hi as i64, op, value)
        }
        Distribution::UniformInt { lo, hi } => uniform_int_sel(lo, hi, op, value),
        Distribution::UniformFloat { lo, hi } => uniform_float_sel(lo, hi, op, value),
        Distribution::Categorical { n } => uniform_int_sel(0, (n - 1) as i64, op, value),
        Distribution::OrderDate => uniform_int_sel(0, (ORDERDATE_VALUES - 1) as i64, op, value),
        Distribution::ShipDate => lagged_date_sel(op, value, &SHIP_LAGS),
        Distribution::CommitDate => lagged_date_sel(op, value, &COMMIT_LAGS),
        Distribution::ReceiptDate => lagged_date_sel(op, value, &RECEIPT_LAGS),
        Distribution::Text => 0.0,
    }
}

/// P(`lo <= col <= hi_v`) for range predicates (BETWEEN).
pub fn between_selectivity(c: ColRef, lo_v: f64, hi_v: f64, sf: f64) -> f64 {
    let le_hi = selectivity(c, CmpOp::Le, hi_v, sf);
    let lt_lo = selectivity(c, CmpOp::Lt, lo_v, sf);
    (le_hi - lt_lo).max(0.0)
}

fn uniform_int_sel(lo: i64, hi: i64, op: CmpOp, value: f64) -> f64 {
    let n = (hi - lo + 1) as f64;
    if n <= 0.0 {
        return 0.0;
    }
    // Count of integers in [lo, hi] strictly below `value`.
    let below = ((value.ceil() as i64 - lo).clamp(0, hi - lo + 1)) as f64;
    let eq = if value.fract() == 0.0 && (lo..=hi).contains(&(value as i64)) {
        1.0
    } else {
        0.0
    };
    match op {
        CmpOp::Eq => eq / n,
        CmpOp::Ne => 1.0 - eq / n,
        CmpOp::Lt => below / n,
        CmpOp::Le => (below + eq) / n,
        CmpOp::Gt => 1.0 - (below + eq) / n,
        CmpOp::Ge => 1.0 - below / n,
    }
}

fn uniform_float_sel(lo: f64, hi: f64, op: CmpOp, value: f64) -> f64 {
    let span = hi - lo;
    if span <= 0.0 {
        return 0.0;
    }
    let cdf = ((value - lo) / span).clamp(0.0, 1.0);
    match op {
        CmpOp::Eq => 0.0,
        CmpOp::Ne => 1.0,
        CmpOp::Lt | CmpOp::Le => cdf,
        CmpOp::Gt | CmpOp::Ge => 1.0 - cdf,
    }
}

/// Lag distributions as (offset, probability) lists. The tables are
/// constants of the generative model, so the compiler builds them: a
/// histogram build inverts the CDF through ~1 200 [`selectivity`] calls,
/// and rebuilding the receipt convolution inside each was most of a cold
/// start (DESIGN.md §7).
const SHIP_LAGS: [(i32, f64); SHIP_LAG_MAX as usize] = uniform_lags(1);
const COMMIT_LAGS: [(i32, f64); (COMMIT_LAG.1 - COMMIT_LAG.0 + 1) as usize] =
    uniform_lags(COMMIT_LAG.0);
/// From `1 + RECEIPT_LAG.0` to `SHIP_LAG_MAX + RECEIPT_LAG.1`.
const RECEIPT_LAGS: [(i32, f64); (SHIP_LAG_MAX + RECEIPT_LAG.1 - RECEIPT_LAG.0) as usize] =
    receipt_lags();

/// `N` consecutive lags from `first`, each with probability `1 / N`.
const fn uniform_lags<const N: usize>(first: i32) -> [(i32, f64); N] {
    let mut out = [(0, 0.0); N];
    let mut i = 0;
    while i < N {
        out[i] = (first + i as i32, 1.0 / N as f64);
        i += 1;
    }
    out
}

const fn receipt_lags<const N: usize>() -> [(i32, f64); N] {
    // receipt = orderdate + ship_lag + receipt_lag: convolve the two lags,
    // accumulating each offset's share in ship-then-receipt order.
    let ps = 1.0 / SHIP_LAG_MAX as f64;
    let pr = 1.0 / (RECEIPT_LAG.1 - RECEIPT_LAG.0 + 1) as f64;
    let first = 1 + RECEIPT_LAG.0;
    let mut out = [(0, 0.0); N];
    let mut s = 1;
    while s <= SHIP_LAG_MAX {
        let mut r = RECEIPT_LAG.0;
        while r <= RECEIPT_LAG.1 {
            let (_, p) = out[(s + r - first) as usize];
            out[(s + r - first) as usize] = (s + r, p + ps * pr);
            r += 1;
        }
        s += 1;
    }
    out
}

/// P(`orderdate + lag op value`) averaged over the lag distribution.
fn lagged_date_sel(op: CmpOp, value: f64, lags: &[(i32, f64)]) -> f64 {
    // The clamp absorbs float accumulation drift over the ~121-term sum.
    lags.iter()
        .map(|&(d, p)| p * uniform_int_sel(0, (ORDERDATE_VALUES - 1) as i64, op, value - d as f64))
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// Popularity weight of color `c` in the part-name vocabulary.
///
/// Part names draw their words from a mildly skewed (Zipf-like)
/// distribution rather than uniformly; this is what makes `p_name LIKE
/// '%color%'` selectivity — and with it template 9's runtime — vary
/// strongly with the chosen color, as the paper's 10 GB experiments
/// required (only 17 of 55 template-9 instances finished within an hour).
pub(crate) fn color_weight(color: u32) -> f64 {
    assert!(color < dicts::N_COLORS, "color {color} out of range");
    let raw = |c: u32| 1.0 / (1.0 + c as f64).powf(1.1);
    let total: f64 = (0..dicts::N_COLORS).map(raw).sum();
    raw(color) / total
}

/// Probability that a part name (5 weighted draws from the 92-color
/// vocabulary) contains the given color — truth for
/// `p_name LIKE '%color%'`.
pub fn p_name_contains_color(color: u32) -> f64 {
    let w = color_weight(color);
    1.0 - (1.0 - w).powi(dicts::NAME_WORDS as i32)
}

// ---------------------------------------------------------------------------
// Joint probabilities for correlated predicate combinations.
// ---------------------------------------------------------------------------

/// P(`o_orderdate < cut` ∧ `l_shipdate > cut`) for a lineitem joined to its
/// order (template 3's cross-table date correlation).
pub fn joint_order_before_ship_after(cut: i32) -> f64 {
    let n = ORDERDATE_VALUES as f64;
    let mut total = 0.0;
    for &(d, p) in &SHIP_LAGS {
        // o < cut and o > cut - d  =>  o in (cut-d, cut) intersect domain.
        let lo = (cut - d + 1).max(0);
        let hi = (cut - 1).min(ORDERDATE_VALUES - 1);
        if hi >= lo {
            total += p * ((hi - lo + 1) as f64 / n);
        }
    }
    total
}

/// P(`l_commitdate < l_receiptdate`) for a single line item (templates 4
/// and 21's "late delivery" predicate). Under the generative model this is
/// P(commit_lag < ship_lag + receipt_lag).
pub fn p_commit_before_receipt() -> f64 {
    static P: OnceLock<f64> = OnceLock::new();
    *P.get_or_init(p_commit_before_receipt_uncached)
}

fn p_commit_before_receipt_uncached() -> f64 {
    let mut total = 0.0;
    let ps = 1.0 / SHIP_LAG_MAX as f64;
    let pr = 1.0 / (RECEIPT_LAG.1 - RECEIPT_LAG.0 + 1) as f64;
    let pc = 1.0 / (COMMIT_LAG.1 - COMMIT_LAG.0 + 1) as f64;
    for s in 1..=SHIP_LAG_MAX {
        for r in RECEIPT_LAG.0..=RECEIPT_LAG.1 {
            for c in COMMIT_LAG.0..=COMMIT_LAG.1 {
                if c < s + r {
                    total += ps * pr * pc;
                }
            }
        }
    }
    total
}

/// P(template 12's predicate chain): `l_shipdate < l_commitdate` ∧
/// `l_commitdate < l_receiptdate` ∧ `l_receiptdate ∈ [year_start,
/// year_start + 365)`.
///
/// Memoised per start day inside the calendar (template 12 draws five of
/// them); a start outside it is computed directly.
pub(crate) fn joint_t12_chain(year_start: i32) -> f64 {
    const DAYS: usize = END_DATE as usize + 1;
    static BY_START: [OnceLock<f64>; DAYS] = [const { OnceLock::new() }; DAYS];
    match usize::try_from(year_start).ok().and_then(|d| BY_START.get(d)) {
        Some(slot) => *slot.get_or_init(|| joint_t12_chain_uncached(year_start)),
        None => joint_t12_chain_uncached(year_start),
    }
}

fn joint_t12_chain_uncached(year_start: i32) -> f64 {
    let ps = 1.0 / SHIP_LAG_MAX as f64;
    let pr = 1.0 / (RECEIPT_LAG.1 - RECEIPT_LAG.0 + 1) as f64;
    let pc = 1.0 / (COMMIT_LAG.1 - COMMIT_LAG.0 + 1) as f64;
    let n = ORDERDATE_VALUES as f64;
    let mut total = 0.0;
    for s in 1..=SHIP_LAG_MAX {
        for r in RECEIPT_LAG.0..=RECEIPT_LAG.1 {
            for c in COMMIT_LAG.0..=COMMIT_LAG.1 {
                // ship < commit < receipt in lag space.
                if s < c && c < s + r {
                    // receipt = o + s + r in [year_start, year_start+365).
                    let lo = (year_start - s - r).max(0);
                    let hi = (year_start + 364 - s - r).min(ORDERDATE_VALUES - 1);
                    if hi >= lo {
                        total += ps * pr * pc * ((hi - lo + 1) as f64 / n);
                    }
                }
            }
        }
    }
    total
}

/// Fraction of orders having ≥ 1 line with `l_commitdate < l_receiptdate`
/// (template 4's EXISTS). Averages `1 − (1 − p)^k` over the uniform
/// lines-per-order count `k`.
pub fn p_order_has_late_line() -> f64 {
    let p = p_commit_before_receipt();
    let (lo, hi) = LINES_PER_ORDER;
    let nk = (hi - lo + 1) as f64;
    (lo..=hi)
        .map(|k| (1.0 - (1.0 - p).powi(k)) / nk)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::col;
    use crate::types::date;

    #[test]
    fn uniform_int_selectivities() {
        let q = col(TableId::Lineitem, "l_quantity"); // U{1..50}
        assert!((selectivity(q, CmpOp::Eq, 10.0, 1.0) - 0.02).abs() < 1e-12);
        assert!((selectivity(q, CmpOp::Lt, 24.0, 1.0) - 23.0 / 50.0).abs() < 1e-12);
        assert!((selectivity(q, CmpOp::Le, 24.0, 1.0) - 24.0 / 50.0).abs() < 1e-12);
        assert!((selectivity(q, CmpOp::Gt, 50.0, 1.0)).abs() < 1e-12);
        assert!((selectivity(q, CmpOp::Ge, 1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_selectivity_is_one_over_n() {
        let seg = col(TableId::Customer, "c_mktsegment");
        assert!((selectivity(seg, CmpOp::Eq, 2.0, 1.0) - 0.2).abs() < 1e-12);
        let mode = col(TableId::Lineitem, "l_shipmode");
        assert!((selectivity(mode, CmpOp::Eq, 0.0, 1.0) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn orderdate_range_selectivity() {
        let od = col(TableId::Orders, "o_orderdate");
        // A 365-day window out of 2406 possible order dates.
        let s = between_selectivity(od, date(1994, 1, 1) as f64, (date(1995, 1, 1) - 1) as f64, 1.0);
        assert!((s - 365.0 / ORDERDATE_VALUES as f64).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn shipdate_marginal_is_near_uniform_in_bulk() {
        let sd = col(TableId::Lineitem, "l_shipdate");
        // Far away from the calendar edges, a one-year window covers about
        // 365 / 2406 of the mass.
        let s = between_selectivity(sd, date(1995, 1, 1) as f64, (date(1996, 1, 1) - 1) as f64, 1.0);
        let expected = 365.0 / ORDERDATE_VALUES as f64;
        assert!((s - expected).abs() < 0.01, "s = {s}, expected ≈ {expected}");
        // Selectivities integrate to 1 over the full domain.
        let all = between_selectivity(sd, 0.0, 4000.0, 1.0);
        assert!((all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn joint_order_ship_is_less_than_independence() {
        let cut = date(1995, 3, 15);
        let joint = joint_order_before_ship_after(cut);
        let od = col(TableId::Orders, "o_orderdate");
        let sd = col(TableId::Lineitem, "l_shipdate");
        let indep = selectivity(od, CmpOp::Lt, cut as f64, 1.0)
            * selectivity(sd, CmpOp::Gt, cut as f64, 1.0);
        // The events are strongly negatively correlated: an order placed
        // before the cut usually ships before it too.
        assert!(joint > 0.0);
        assert!(joint < indep, "joint {joint} should be < indep {indep}");
        assert!(joint < 0.05, "only a thin sliver straddles the cut");
    }

    #[test]
    fn commit_before_receipt_probability_is_moderate() {
        let p = p_commit_before_receipt();
        // commit lag mean 60; ship+receipt mean ~76.5 — most lines are late.
        assert!(p > 0.5 && p < 0.85, "p = {p}");
    }

    #[test]
    fn t12_chain_probability_is_sane() {
        let y = date(1994, 1, 1);
        let joint = joint_t12_chain(y);
        assert!(joint > 0.0 && joint < 0.2, "joint = {joint}");
        // P(ship < commit < receipt) alone — i.e. the chain without the
        // year window — must exceed the windowed joint and stay below the
        // marginal P(ship < commit).
        let full = joint_t12_chain(0).max(joint);
        assert!(full >= joint);
        // Year windows in the middle of the calendar carry similar mass.
        let y95 = joint_t12_chain(date(1995, 1, 1));
        assert!((joint - y95).abs() / joint < 0.1, "{joint} vs {y95}");
    }

    #[test]
    fn order_has_late_line_fraction() {
        let p = p_order_has_late_line();
        let single = p_commit_before_receipt();
        assert!(p > single, "EXISTS over k lines beats a single line");
        assert!(p < 1.0);
    }

    #[test]
    fn name_color_probability_is_skewed() {
        // Uniform over the query parameter, the color.
        let mean = (0..dicts::N_COLORS)
            .map(p_name_contains_color)
            .sum::<f64>()
            / dicts::N_COLORS as f64;
        assert!((0.02..0.12).contains(&mean), "mean = {mean}");
        // Popular colors are much more likely than rare ones.
        let popular = p_name_contains_color(0);
        let rare = p_name_contains_color(91);
        assert!(popular > 4.0 * rare, "popular {popular}, rare {rare}");
        // Weights are a probability distribution.
        let total: f64 = (0..dicts::N_COLORS).map(color_weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// Every midpoint the 60-step bisection of `engine::histogram` visits
    /// on its way to `target` inside `[lo, hi]`.
    fn bisection_midpoints(mut lo: f64, mut hi: f64, target: f64) -> Vec<f64> {
        let mut mids = Vec::with_capacity(60);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            mids.push(mid);
            if mid < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        mids
    }

    #[test]
    fn integer_step_cdfs_do_not_see_the_fraction() {
        for sf in [0.01, 1.0, 10.0] {
            for t in crate::schema::ALL_TABLES {
                for &name in t.columns() {
                    let c = col(t, name);
                    let (lo, hi) = value_range(c, sf);
                    let le = |v: f64| selectivity(c, CmpOp::Le, v, sf).to_bits();
                    let dist = column_distribution(c);
                    if !dist.steps_on_integers() {
                        // The predicate is exact: a continuous column
                        // does see the fraction, a text column has no CDF.
                        let continuous = matches!(dist, Distribution::UniformFloat { .. });
                        assert_eq!(le(lo + 0.5) != le((lo + 0.5).floor()), continuous, "{c}");
                        continue;
                    }
                    let mut grid = Vec::new();
                    // Dyadic midpoints: towards a value between two
                    // integers, and towards integers, which the halving
                    // approaches from both sides down to the last ulp.
                    for share in [0.0, 0.013, 0.25, 0.5, 0.77, 1.0] {
                        let at = lo + share * (hi - lo);
                        grid.extend(bisection_midpoints(lo, hi, at));
                        grid.extend(bisection_midpoints(lo, hi, at.floor()));
                    }
                    // Both neighbours of the integers a lag shifts onto
                    // the ends of the order-date range, and of the range's
                    // own ends.
                    let lags = [0, 1, 2, 30, 31, 90, 91, 121, 122, 151];
                    for base in [0.0, lo, hi, (ORDERDATE_VALUES - 1) as f64] {
                        for k in lags.map(|d| base + d as f64) {
                            grid.extend([k.next_down(), k, k.next_up()]);
                        }
                    }
                    // Outside the range, far outside it, and the zeros.
                    grid.extend([lo - 10.5, lo - 1.0, hi + 0.5, hi + 1000.25]);
                    grid.extend([-1e9, -0.5, -0.0, 0.0, f64::MIN_POSITIVE, 1e-20, 1e18]);
                    for v in grid {
                        assert_eq!(le(v), le(v.floor()), "{c} at sf {sf}, v = {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn memoised_joints_equal_the_uncached_functions() {
        for _ in 0..2 {
            // Every year start template 12 can draw, and one on each side
            // of the memo's domain.
            let starts = (1993..=1997).map(|y| date(y, 1, 1));
            for start in starts.chain([-1, 0, END_DATE, END_DATE + 1]) {
                assert_eq!(
                    joint_t12_chain(start).to_bits(),
                    joint_t12_chain_uncached(start).to_bits(),
                    "year start {start}"
                );
            }
            assert_eq!(
                p_commit_before_receipt().to_bits(),
                p_commit_before_receipt_uncached().to_bits()
            );
        }
    }

    #[test]
    fn ndistinct_values() {
        assert_eq!(ndistinct(col(TableId::Orders, "o_orderkey"), 1.0), 1_500_000.0);
        assert_eq!(ndistinct(col(TableId::Lineitem, "l_orderkey"), 1.0), 1_500_000.0);
        assert_eq!(ndistinct(col(TableId::Lineitem, "l_quantity"), 1.0), 50.0);
        assert_eq!(ndistinct(col(TableId::Customer, "c_mktsegment"), 10.0), 5.0);
    }

    #[test]
    fn value_ranges_are_ordered() {
        for t in crate::schema::ALL_TABLES {
            for &c in t.columns() {
                let cref = col(t, c);
                let (lo, hi) = value_range(cref, 1.0);
                assert!(lo <= hi, "{cref}: ({lo}, {hi})");
            }
        }
    }
}
