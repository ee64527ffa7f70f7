//! The system catalog: per-table and per-column statistics as ANALYZE
//! would have collected them, plus the index inventory.
//!
//! The catalog is the *estimator's* knowledge of the database. Its distinct
//! counts carry the characteristic errors of sampling-based ANALYZE —
//! in particular, high-cardinality non-unique columns (like
//! `l_orderkey` inside LINEITEM) are strongly *under*-estimated, which is
//! what produced the paper's template-18 group-count anecdote
//! (estimated 399 521 groups vs 84 actual; Section 5.3.3).

use crate::histogram::Histogram;
use std::sync::OnceLock;
use tpch::distributions::{self, Distribution};
use tpch::schema::{ColRef, TableId, N_COLUMNS};

/// Index inventory: the TPC-H primary keys plus the customary foreign-key
/// index on `l_partkey` used by the correlated-subquery templates.
pub(crate) fn has_index(col: ColRef) -> bool {
    col.table.primary_key() == col.name() || col.name() == "l_partkey"
}

/// Catalog of statistics at one scale factor.
#[derive(Debug)]
pub struct Catalog {
    /// Scale factor.
    pub sf: f64,
    seed: u64,
    /// One slot per column of the schema, at the column's [`ColRef::id`],
    /// filled on first use: a lookup is an index, takes no lock and hands
    /// out a reference.
    histograms: [OnceLock<Histogram>; N_COLUMNS],
}

impl Catalog {
    /// Creates a catalog for scale factor `sf`. `seed` controls the
    /// deterministic ANALYZE-noise.
    pub fn new(sf: f64, seed: u64) -> Catalog {
        assert!(sf > 0.0, "scale factor must be positive");
        Catalog {
            sf,
            seed,
            histograms: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Row count of a table (accurate — PostgreSQL keeps `reltuples`
    /// reasonably current for read-only data).
    pub(crate) fn rows(&self, table: TableId) -> f64 {
        table.row_count(self.sf) as f64
    }

    /// Heap pages of a table.
    pub(crate) fn pages(&self, table: TableId) -> f64 {
        table.pages(self.sf) as f64
    }

    /// Average tuple width in bytes.
    pub(crate) fn width(&self, table: TableId) -> f64 {
        table.tuple_width() as f64
    }

    /// *Estimated* distinct count of a column.
    ///
    /// Unique (serial-key) columns are exact; high-cardinality foreign-key
    /// columns are under-estimated by roughly an order of magnitude,
    /// mirroring sample-based distinct estimation; everything else gets a
    /// small deterministic relative error.
    pub fn ndistinct_est(&self, col: ColRef) -> f64 {
        let truth = distributions::ndistinct(col, self.sf);
        let rows = self.rows(col.table);
        match distributions::column_distribution(col) {
            Distribution::SerialKey => truth,
            Distribution::ForeignKey(_) if truth > 1000.0 => {
                // Sample-based estimators (PostgreSQL's Haas–Stokes
                // variant) extrapolate from duplicate counts in the
                // sample. Lightly-duplicated high-cardinality columns
                // (l_orderkey: ~4 rows per key) look almost unique in the
                // sample and get underestimated by an order of magnitude —
                // the template-18 regime. Heavily-duplicated keys
                // (l_partkey: ~30 rows per key) are merely a factor ~2 low.
                let rows_per_key = rows / truth;
                let factor = if rows_per_key <= 8.0 {
                    0.06 + 0.06 * self.unit_noise(col)
                } else {
                    0.45 + 0.1 * self.unit_noise(col)
                };
                (truth * factor).max(2.0)
            }
            _ => {
                let factor = 0.9 + 0.2 * self.unit_noise(col);
                (truth * factor).clamp(1.0, rows)
            }
        }
    }

    /// Histogram of a column (built lazily, cached).
    pub fn histogram(&self, col: ColRef) -> &Histogram {
        self.histograms[col.id()].get_or_init(|| Histogram::build(col, self.sf, self.seed))
    }

    /// Whether anything has asked for — and so built — `col`'s histogram.
    #[cfg(test)]
    pub(crate) fn has_histogram(&self, col: ColRef) -> bool {
        self.histograms[col.id()].get().is_some()
    }

    /// Deterministic per-column noise in [0, 1), from the table, the
    /// column's name and the seed.
    fn unit_noise(&self, col: ColRef) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        col.table.hash(&mut h);
        col.name().hash(&mut h);
        self.seed.hash(&mut h);
        (h.finish() % 10_000) as f64 / 10_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::schema::col;

    #[test]
    fn rows_and_pages_follow_schema() {
        let c = Catalog::new(1.0, 1);
        assert_eq!(c.rows(TableId::Orders), 1_500_000.0);
        assert!(c.pages(TableId::Lineitem) > 10_000.0);
    }

    #[test]
    fn serial_keys_have_exact_ndistinct() {
        let c = Catalog::new(1.0, 1);
        assert_eq!(c.ndistinct_est(col(TableId::Orders, "o_orderkey")), 1_500_000.0);
    }

    #[test]
    fn fk_columns_are_underestimated() {
        let c = Catalog::new(10.0, 1);
        let est = c.ndistinct_est(col(TableId::Lineitem, "l_orderkey"));
        let truth = distributions::ndistinct(col(TableId::Lineitem, "l_orderkey"), 10.0);
        assert_eq!(truth, 15_000_000.0);
        // Roughly an order of magnitude low — the template-18 regime.
        assert!(est < truth / 5.0, "est = {est}");
        assert!(est > truth / 30.0, "est = {est}");
    }

    #[test]
    fn small_columns_are_nearly_exact() {
        let c = Catalog::new(1.0, 1);
        let est = c.ndistinct_est(col(TableId::Lineitem, "l_quantity"));
        assert!((est - 50.0).abs() < 10.0, "est = {est}");
    }

    #[test]
    fn index_inventory() {
        assert!(has_index(col(TableId::Orders, "o_orderkey")));
        assert!(has_index(col(TableId::Lineitem, "l_orderkey")));
        assert!(has_index(col(TableId::Lineitem, "l_partkey")));
        assert!(!has_index(col(TableId::Lineitem, "l_shipdate")));
        assert!(!has_index(col(TableId::Orders, "o_custkey")));
    }

    #[test]
    fn histograms_are_cached() {
        let c = Catalog::new(1.0, 1);
        let a = c.histogram(col(TableId::Lineitem, "l_shipdate"));
        let b = c.histogram(col(TableId::Lineitem, "l_shipdate"));
        assert!(std::ptr::eq(a, b), "the second lookup must not rebuild");
        assert_eq!(*a, Histogram::build(col(TableId::Lineitem, "l_shipdate"), 1.0, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_sf() {
        Catalog::new(-1.0, 0);
    }
}
