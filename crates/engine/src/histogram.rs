//! Equi-depth histograms — the optimizer's view of a column.
//!
//! PostgreSQL's ANALYZE builds ~100-bucket equi-depth histograms from a
//! sample of the table. We build ours from the *generative distribution's
//! quantiles* and then perturb the bucket boundaries deterministically, so
//! the estimator sees realistic (imperfect) statistics without us having to
//! materialize terabytes of rows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpch::distributions::{self, Distribution};
use tpch::schema::ColRef;
use tpch::types::CmpOp;

/// Number of histogram buckets (PostgreSQL's default statistics target).
pub const DEFAULT_BUCKETS: usize = 100;

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
    pub fn build_with_buckets(col: ColRef, sf: f64, seed: u64, buckets: usize) -> Histogram {
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
        assert!(buckets >= 1, "histogram needs at least one bucket");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_col(col));
        let (lo, hi) = distributions::value_range(col, sf);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let q = b as f64 / buckets as f64;
            // Invert the true CDF at quantile q by bisection on the
            // selectivity function, then perturb.
            let v = invert_cdf(col, &cdf, q, lo, hi);
            let noise = if b == 0 || b == buckets {
                0.0
            } else {
                rng.gen_range(-0.02..0.02) * span / buckets as f64 * 2.0
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
    pub fn buckets(&self) -> usize {
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
    pub fn selectivity(&self, op: CmpOp, v: f64, ndistinct: f64) -> f64 {
        let eq = 1.0 / ndistinct.max(1.0);
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
    pub fn between(&self, lo: f64, hi: f64, ndistinct: f64) -> f64 {
        let eq = 1.0 / ndistinct.max(1.0);
        ((self.cdf(hi) - self.cdf(lo)) + eq).clamp(0.0, 1.0)
    }
}

/// Deterministic 64-bit mix of a column reference for seeding.
fn hash_col(col: ColRef) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    col.hash(&mut h);
    h.finish()
}

/// Inverts the column's true CDF at quantile `q` by bisection.
fn invert_cdf(col: ColRef, cdf: impl Fn(f64) -> f64, q: f64, mut lo: f64, mut hi: f64) -> f64 {
    // Discrete distributions make the CDF a step function; bisection on
    // P(col <= x) converges to a boundary consistent with equi-depth
    // semantics.
    if q <= 0.0 {
        return lo;
    }
    if q >= 1.0 {
        return hi;
    }
    // Text columns have no predicate math; fall back to the raw range.
    if matches!(distributions::column_distribution(col), Distribution::Text) {
        return lo + q * (hi - lo);
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
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

    #[test]
    fn every_histogram_equals_one_built_through_the_reference_selectivity() {
        // tpch memoises the date-lag tables; `selectivity_reference`
        // works from a table it builds itself.
        for sf in [0.01, 0.1, 1.0] {
            for t in tpch::schema::ALL_TABLES {
                for &name in t.columns() {
                    let c = col(t, name);
                    let sel = distributions::selectivity_reference(c, sf);
                    let reference =
                        Histogram::build_from_cdf(c, sf, 1, DEFAULT_BUCKETS, |v| sel(CmpOp::Le, v));
                    let built = Histogram::build(c, sf, 1);
                    let bits = |h: &Histogram| h.bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&built), bits(&reference), "{c} at sf {sf}");
                }
            }
        }
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
