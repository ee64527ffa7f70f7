//! The eight TPC-H tables: identities, columns, primary keys, row widths.


/// The TPC-H tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TableId {
    /// REGION (5 rows).
    Region,
    /// NATION (25 rows).
    Nation,
    /// SUPPLIER (SF × 10 000 rows).
    Supplier,
    /// CUSTOMER (SF × 150 000 rows).
    Customer,
    /// PART (SF × 200 000 rows).
    Part,
    /// PARTSUPP (SF × 800 000 rows).
    Partsupp,
    /// ORDERS (SF × 1 500 000 rows).
    Orders,
    /// LINEITEM (≈ SF × 6 000 000 rows).
    Lineitem,
}

/// All tables in dependency order (referenced tables first).
pub const ALL_TABLES: [TableId; 8] = [
    TableId::Region,
    TableId::Nation,
    TableId::Supplier,
    TableId::Customer,
    TableId::Part,
    TableId::Partsupp,
    TableId::Orders,
    TableId::Lineitem,
];

impl TableId {
    /// Lower-case table name as it appears in the TPC-H specification.
    pub fn name(&self) -> &'static str {
        match self {
            TableId::Region => "region",
            TableId::Nation => "nation",
            TableId::Supplier => "supplier",
            TableId::Customer => "customer",
            TableId::Part => "part",
            TableId::Partsupp => "partsupp",
            TableId::Orders => "orders",
            TableId::Lineitem => "lineitem",
        }
    }

    /// Exact row count at the given scale factor, per the specification
    /// (LINEITEM is approximately 6M × SF; we use the per-order line-count
    /// model of the generator: an average of slightly over 4 lines/order).
    pub fn row_count(&self, sf: f64) -> u64 {
        let scaled = |base: f64| (base * sf).round().max(1.0) as u64;
        match self {
            TableId::Region => 5,
            TableId::Nation => 25,
            TableId::Supplier => scaled(10_000.0),
            TableId::Customer => scaled(150_000.0),
            TableId::Part => scaled(200_000.0),
            TableId::Partsupp => scaled(800_000.0),
            TableId::Orders => scaled(1_500_000.0),
            TableId::Lineitem => scaled(6_001_215.0),
        }
    }

    /// Average tuple width in bytes (including per-tuple header overhead),
    /// approximating the widths PostgreSQL reports for TPC-H tables.
    pub fn tuple_width(&self) -> u32 {
        match self {
            TableId::Region => 120,
            TableId::Nation => 128,
            TableId::Supplier => 160,
            TableId::Customer => 180,
            TableId::Part => 160,
            TableId::Partsupp => 150,
            TableId::Orders => 110,
            TableId::Lineitem => 112,
        }
    }

    /// Number of 8 KiB heap pages at the given scale factor (90% fill).
    pub fn pages(&self, sf: f64) -> u64 {
        let bytes = self.row_count(sf) as f64 * self.tuple_width() as f64;
        (bytes / (8192.0 * 0.9)).ceil().max(1.0) as u64
    }

    /// Primary-key column (for composite keys, the leading column).
    pub fn primary_key(&self) -> &'static str {
        match self {
            TableId::Region => "r_regionkey",
            TableId::Nation => "n_nationkey",
            TableId::Supplier => "s_suppkey",
            TableId::Customer => "c_custkey",
            TableId::Part => "p_partkey",
            TableId::Partsupp => "ps_partkey",
            TableId::Orders => "o_orderkey",
            TableId::Lineitem => "l_orderkey",
        }
    }

    /// Columns of this table (the subset used by the 22 query templates).
    pub fn columns(&self) -> &'static [&'static str] {
        match self {
            TableId::Region => &["r_regionkey", "r_name"],
            TableId::Nation => &["n_nationkey", "n_name", "n_regionkey"],
            TableId::Supplier => &[
                "s_suppkey",
                "s_name",
                "s_nationkey",
                "s_phone",
                "s_acctbal",
                "s_comment",
            ],
            TableId::Customer => &[
                "c_custkey",
                "c_name",
                "c_nationkey",
                "c_phone",
                "c_acctbal",
                "c_mktsegment",
                "c_comment",
            ],
            TableId::Part => &[
                "p_partkey",
                "p_name",
                "p_mfgr",
                "p_brand",
                "p_type",
                "p_size",
                "p_container",
                "p_retailprice",
            ],
            TableId::Partsupp => &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
            TableId::Orders => &[
                "o_orderkey",
                "o_custkey",
                "o_orderstatus",
                "o_totalprice",
                "o_orderdate",
                "o_orderpriority",
                "o_clerk",
                "o_shippriority",
                "o_comment",
            ],
            TableId::Lineitem => &[
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_linenumber",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_returnflag",
                "l_linestatus",
                "l_shipdate",
                "l_commitdate",
                "l_receiptdate",
                "l_shipinstruct",
                "l_shipmode",
                "l_comment",
            ],
        }
    }

    /// Whether the named column belongs to this table.
    pub fn has_column(&self, column: &str) -> bool {
        self.columns().contains(&column)
    }
}

/// A (table, column) reference used throughout the query IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Owning table.
    pub table: TableId,
    /// Column name (static — all columns are known at compile time).
    pub column: &'static str,
}

impl ColRef {
    /// Creates a reference, validating that the column exists in debug
    /// builds.
    pub fn new(table: TableId, column: &'static str) -> Self {
        debug_assert!(
            table.has_column(column),
            "{} has no column {}",
            table.name(),
            column
        );
        ColRef { table, column }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table.name(), self.column)
    }
}

/// Shorthand constructor used heavily by template definitions.
pub fn col(table: TableId, column: &'static str) -> ColRef {
    ColRef::new(table, column)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_scale_linearly() {
        assert_eq!(TableId::Lineitem.row_count(1.0), 6_001_215);
        assert_eq!(TableId::Orders.row_count(10.0), 15_000_000);
        assert_eq!(TableId::Region.row_count(10.0), 5);
        assert_eq!(TableId::Nation.row_count(0.01), 25);
        assert_eq!(TableId::Customer.row_count(0.01), 1_500);
    }

    #[test]
    fn pages_are_positive_and_scale() {
        for t in ALL_TABLES {
            assert!(t.pages(0.01) >= 1);
            assert!(t.pages(10.0) >= t.pages(1.0));
        }
        // SF-1 lineitem should be on the order of 10^5 pages.
        let p = TableId::Lineitem.pages(1.0);
        assert!((50_000..200_000).contains(&p), "pages = {p}");
    }

    #[test]
    fn primary_keys_are_columns() {
        for t in ALL_TABLES {
            assert!(t.has_column(t.primary_key()), "{}", t.name());
        }
    }

    #[test]
    fn colref_display_and_validation() {
        let c = col(TableId::Lineitem, "l_shipdate");
        assert_eq!(c.to_string(), "lineitem.l_shipdate");
        assert!(TableId::Lineitem.has_column("l_quantity"));
        assert!(!TableId::Lineitem.has_column("o_orderdate"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "has no column")]
    fn colref_rejects_unknown_column() {
        ColRef::new(TableId::Region, "l_shipdate");
    }
}
