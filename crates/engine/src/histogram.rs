//! Equi-depth histograms — the optimizer's view of a column.
//!
//! PostgreSQL's ANALYZE builds ~100-bucket equi-depth histograms from a
//! sample of the table. We build ours from the *generative distribution's
//! quantiles* and then perturb the bucket boundaries deterministically, so
//! the estimator sees realistic (imperfect) statistics without us having to
//! materialize terabytes of rows.
//!
//! A quantile is the fixed point of 60 halvings of the column's range on
//! `cdf(mid) < q`. For a continuous column that is what runs. Most columns
//! are drawn from integers, and their CDF is a step function that cannot
//! tell `mid` from `mid.floor()`
//! ([`Distribution::steps_on_integers`]); there the build first finds the
//! smallest integer `k` with `cdf(k) >= q` by binary search (12
//! evaluations over a date range, not 60), and then runs the same 60
//! halvings on `mid.floor() < k`. The CDF is a monotone fold of monotone
//! terms, so `cdf(mid) < q` exactly when `mid.floor() < k`: the halvings
//! take the same branches and every bound keeps every bit, at a fifth of
//! the CDF evaluations — which for a lagged date are 61- to 150-term sums
//! and were most of a cold start (DESIGN.md §7). Nothing is remembered
//! between builds.

use rng::StdRng;
use tpch::distributions::{self, Distribution};
use tpch::schema::ColRef;
use tpch::types::CmpOp;

/// Number of histogram buckets (PostgreSQL's default statistics target).
pub(crate) const DEFAULT_BUCKETS: usize = 100;

/// An equi-depth histogram over a column's numeric view: `bounds` has
/// `buckets + 1` entries and each bucket holds equal probability mass.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram for the column at the given scale factor.
    ///
    /// The boundary positions are perturbed with a deterministic,
    /// column-seeded relative error (~±2%) to emulate ANALYZE sampling
    /// noise.
    pub fn build(col: ColRef, sf: f64, seed: u64) -> Histogram {
        Self::build_with_buckets(col, sf, seed, DEFAULT_BUCKETS)
    }

    /// Builds with an explicit bucket count (for resolution experiments).
    pub(crate) fn build_with_buckets(col: ColRef, sf: f64, seed: u64, buckets: usize) -> Histogram {
        Self::build_from_cdf(col, sf, seed, buckets, |v| {
            distributions::selectivity(col, CmpOp::Le, v, sf)
        })
    }

    /// Builds from `cdf`, the column's true P(col <= v).
    fn build_from_cdf(
        col: ColRef,
        sf: f64,
        seed: u64,
        buckets: usize,
        cdf: impl Fn(f64) -> f64,
    ) -> Histogram {
        let dist = distributions::column_distribution(col);
        Self::build_from_quantiles(col, sf, seed, buckets, |q, lo, hi| {
            invert_cdf(dist, &cdf, q, lo, hi)
        })
    }

    /// Builds from `quantile(q, lo, hi)`, the inverse of the column's true
    /// CDF over its value range `[lo, hi]`, asked for `0 < q < 1` only.
    fn build_from_quantiles(
        col: ColRef,
        sf: f64,
        seed: u64,
        buckets: usize,
        quantile: impl Fn(f64, f64, f64) -> f64,
    ) -> Histogram {
        assert!(buckets >= 1, "histogram needs at least one bucket");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_col(col));
        let (lo, hi) = distributions::value_range(col, sf);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            // The ends are the range's; the interior bounds are the true
            // quantiles, perturbed.
            let (v, noise) = if b == 0 {
                (lo, 0.0)
            } else if b == buckets {
                (hi, 0.0)
            } else {
                let v = quantile(b as f64 / buckets as f64, lo, hi);
                (v, rng.gen_range(-0.02..0.02) * span / buckets as f64 * 2.0)
            };
            bounds.push(v + noise);
        }
        // Ensure monotonicity after perturbation.
        for i in 1..bounds.len() {
            if bounds[i] < bounds[i - 1] {
                bounds[i] = bounds[i - 1];
            }
        }
        Histogram { bounds }
    }

    /// Number of buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Estimated P(col < v) by linear interpolation within the bucket.
    pub fn cdf(&self, v: f64) -> f64 {
        let n = self.buckets() as f64;
        if v <= self.bounds[0] {
            return 0.0;
        }
        if v >= self.bounds[self.bounds.len() - 1] {
            return 1.0;
        }
        // Binary search for the bucket containing v.
        let idx = match self
            .bounds
            .binary_search_by(|b| b.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let idx = idx.min(self.bounds.len() - 2);
        let lo = self.bounds[idx];
        let hi = self.bounds[idx + 1];
        let within = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
        (idx as f64 + within) / n
    }

    /// Estimated selectivity of a range operator against a constant, given
    /// the estimated distinct count for equality terms.
    pub(crate) fn selectivity(&self, op: CmpOp, v: f64, ndistinct: f64) -> f64 {
        let eq = eq_selectivity(ndistinct);
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => 1.0 - eq,
            CmpOp::Lt => self.cdf(v),
            CmpOp::Le => (self.cdf(v) + eq).min(1.0),
            CmpOp::Gt => (1.0 - self.cdf(v) - eq).max(0.0),
            CmpOp::Ge => 1.0 - self.cdf(v),
        }
    }

    /// Estimated selectivity of `lo <= col <= hi`.
    pub(crate) fn between(&self, lo: f64, hi: f64, ndistinct: f64) -> f64 {
        let eq = eq_selectivity(ndistinct);
        ((self.cdf(hi) - self.cdf(lo)) + eq).clamp(0.0, 1.0)
    }
}

/// Estimated selectivity of `col = constant`: every one of the estimated
/// `ndistinct` values is taken to be equally frequent. `=` and `<>` read
/// this and no histogram.
pub(crate) fn eq_selectivity(ndistinct: f64) -> f64 {
    1.0 / ndistinct.max(1.0)
}

/// Deterministic 64-bit mix of a column reference for seeding: the table,
/// then the column's name.
fn hash_col(col: ColRef) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    col.table.hash(&mut h);
    col.name().hash(&mut h);
    h.finish()
}

/// Inverts the true CDF of a column drawn from `dist` at quantile
/// `0 < q < 1` over the value range `[lo, hi]`.
fn invert_cdf(dist: Distribution, cdf: impl Fn(f64) -> f64, q: f64, lo: f64, hi: f64) -> f64 {
    match dist {
        // Text columns have no predicate math; fall back to the raw range.
        Distribution::Text => lo + q * (hi - lo),
        // A step function on the integers: find the step that reaches `q`,
        // then let the halvings converge on it. They land on the bound the
        // real-line bisection lands on (module docs), a boundary consistent
        // with equi-depth semantics.
        _ if dist.steps_on_integers() => {
            let k = first_integer_reaching(cdf, q, lo, hi);
            bisect(lo, hi, |mid| mid.floor() < k)
        }
        _ => bisect(lo, hi, |mid| cdf(mid) < q),
    }
}

/// The fixed point of 60 halvings of `[lo, hi]`, each keeping the upper
/// half when `below(mid)`.
fn bisect(mut lo: f64, mut hi: f64, below: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if below(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The smallest integer `k` in `[lo.floor(), hi.floor()]` with
/// `cdf(k) >= q`, for a non-decreasing `cdf`; one past `hi.floor()` when
/// the CDF stays below `q` on the whole range. Those are all the integers
/// a midpoint inside `[lo, hi]` can floor to.
fn first_integer_reaching(cdf: impl Fn(f64) -> f64, q: f64, lo: f64, hi: f64) -> f64 {
    // Every k < first has cdf(k) < q; `end` does not, or is the sentinel.
    let (mut first, mut end) = (lo.floor() as i64, hi.floor() as i64 + 1);
    while first < end {
        let mid = first + (end - first) / 2;
        if cdf(mid as f64) < q {
            first = mid + 1;
        } else {
            end = mid;
        }
    }
    first as f64
}

/// [`invert_cdf`] as it was before step CDFs were searched on the
/// integers: the 60 halvings on the CDF itself, whatever the column is
/// drawn from. The reference the identity tests build their histograms
/// through.
#[cfg(test)]
fn invert_cdf_on_the_real_line(
    dist: Distribution,
    cdf: impl Fn(f64) -> f64,
    q: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    match dist {
        Distribution::Text => lo + q * (hi - lo),
        _ => bisect(lo, hi, |mid| cdf(mid) < q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::schema::{col, TableId};
    use tpch::types::date;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let h = Histogram::build(col(TableId::Lineitem, "l_shipdate"), 1.0, 1);
        let mut prev = -0.1;
        for step in 0..50 {
            let v = step as f64 * 60.0;
            let c = h.cdf(v);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev, "cdf must be monotone");
            prev = c;
        }
    }

    #[test]
    fn uniform_column_histogram_is_accurate() {
        let c = col(TableId::Lineitem, "l_quantity");
        let h = Histogram::build(c, 1.0, 3);
        // P(q < 25) should be ≈ 24/50.
        let est = h.selectivity(CmpOp::Lt, 25.0, 50.0);
        assert!((est - 0.48).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn date_range_estimates_are_close_to_truth() {
        let c = col(TableId::Orders, "o_orderdate");
        let h = Histogram::build(c, 1.0, 7);
        let lo = date(1994, 1, 1) as f64;
        let hi = date(1994, 12, 31) as f64;
        let est = h.between(lo, hi, 2406.0);
        let truth = tpch::distributions::between_selectivity(c, lo, hi, 1.0);
        assert!((est - truth).abs() < 0.03, "est {est} vs truth {truth}");
        // But not *exactly* equal — the estimator must be imperfect.
        assert!(est != truth);
    }

    #[test]
    fn histograms_differ_across_seeds_but_not_runs() {
        let c = col(TableId::Lineitem, "l_shipdate");
        let a = Histogram::build(c, 1.0, 1);
        let b = Histogram::build(c, 1.0, 1);
        let other = Histogram::build(c, 1.0, 2);
        assert_eq!(a, b);
        assert_ne!(a, other);
    }

    fn bits(h: &Histogram) -> Vec<u64> {
        h.bounds.iter().map(|b| b.to_bits()).collect()
    }

    #[test]
    fn every_histogram_equals_one_built_through_the_reference_selectivity() {
        // The reference side does not share the build's shortcut: the
        // build searches step CDFs on the integers, the reference halves
        // the real line 60 times.
        for sf in [0.01, 0.1, 1.0, 10.0] {
            for t in tpch::schema::ALL_TABLES {
                for &name in t.columns() {
                    let c = col(t, name);
                    let dist = distributions::column_distribution(c);
                    let le = |v| distributions::selectivity(c, CmpOp::Le, v, sf);
                    for buckets in [1, 7, DEFAULT_BUCKETS, 250] {
                        let reference =
                            Histogram::build_from_quantiles(c, sf, 1, buckets, |q, lo, hi| {
                                invert_cdf_on_the_real_line(dist, le, q, lo, hi)
                            });
                        let built = Histogram::build_with_buckets(c, sf, 1, buckets);
                        assert_eq!(
                            bits(&built),
                            bits(&reference),
                            "{c} at sf {sf}, {buckets} buckets"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integer_search_lands_where_the_real_line_bisection_does() {
        let step = Distribution::UniformInt { lo: 0, hi: 6 };
        // P(col <= k) for k = 0..=6, with a plateau at exactly 0.5.
        let table = [0.1, 0.25, 0.5, 0.5, 0.5, 0.9, 1.0];
        let plateau = |v: f64| match v.floor() {
            k if k < 0.0 => 0.0,
            k => table[(k as usize).min(6)],
        };
        // Never reaches 0.45: the search ends on its sentinel, one past
        // the range.
        let short = |v: f64| 0.4 * plateau(v);
        // Integer ends, ends between integers, and a range whose first
        // integer already holds the quantile.
        for (lo, hi) in [
            (0.0, 6.0),
            (-2.5, 7.25),
            (0.75, 5.5),
            (2.0, 6.0),
            (3.0, 3.0),
        ] {
            for q in [0.05, 0.1, 0.45, 0.5, 0.500_000_1, 0.9, 0.95] {
                for (name, cdf) in [
                    ("plateau", &plateau as &dyn Fn(f64) -> f64),
                    ("short", &short),
                ] {
                    assert_eq!(
                        invert_cdf(step, cdf, q, lo, hi).to_bits(),
                        invert_cdf_on_the_real_line(step, cdf, q, lo, hi).to_bits(),
                        "{name} at q = {q} over [{lo}, {hi}]"
                    );
                }
            }
        }
        assert_eq!(first_integer_reaching(plateau, 0.5, 0.0, 6.0), 2.0);
        assert_eq!(first_integer_reaching(short, 0.45, 0.0, 6.0), 7.0);
    }

    #[test]
    fn a_step_cdf_is_evaluated_a_fifth_as_often() {
        let evaluations = |c: ColRef| {
            let count = std::cell::Cell::new(0usize);
            let h = Histogram::build_from_cdf(c, 0.1, 1, DEFAULT_BUCKETS, |v| {
                count.set(count.get() + 1);
                distributions::selectivity(c, CmpOp::Le, v, 0.1)
            });
            assert_eq!(h, Histogram::build(c, 0.1, 1));
            count.get()
        };
        // 99 interior quantiles x 12 halvings of 2 555 days at most; the
        // real-line bisection made 99 x 60 = 5 940 of these 150-term sums.
        let receipt = evaluations(col(TableId::Lineitem, "l_receiptdate"));
        assert!(receipt <= 1200, "l_receiptdate: {receipt} CDF evaluations");
        // A continuous CDF has no integers to search.
        assert_eq!(
            evaluations(col(TableId::Partsupp, "ps_supplycost")),
            99 * 60
        );
    }

    #[test]
    fn equality_uses_distinct_count() {
        let h = Histogram::build(col(TableId::Customer, "c_mktsegment"), 1.0, 5);
        assert!((h.selectivity(CmpOp::Eq, 2.0, 5.0) - 0.2).abs() < 1e-9);
        assert!((h.selectivity(CmpOp::Ne, 2.0, 5.0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn bucket_count_is_configurable() {
        let h = Histogram::build_with_buckets(col(TableId::Part, "p_size"), 1.0, 1, 10);
        assert_eq!(h.buckets(), 10);
    }
}
