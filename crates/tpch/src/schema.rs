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
    pub const fn columns(&self) -> &'static [&'static str] {
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
}

/// Dense id of each table's first column, in [`ALL_TABLES`] order, then
/// one past the last column.
const FIRST_COLUMN: [usize; ALL_TABLES.len() + 1] = {
    let mut first = [0; ALL_TABLES.len() + 1];
    let mut t = 0;
    while t < ALL_TABLES.len() {
        first[t + 1] = first[t] + ALL_TABLES[t].columns().len();
        t += 1;
    }
    first
};

/// Columns across all tables: the range of [`ColRef::id`].
pub const N_COLUMNS: usize = FIRST_COLUMN[ALL_TABLES.len()];

/// A (table, column) reference used throughout the query IR: the column is
/// its position in [`TableId::columns`], so a reference is two bytes and
/// every plan, predicate and aggregate that carries one stays small.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Owning table.
    pub table: TableId,
    /// Position in `table.columns()`; [`ColRef::lookup`] is the only way in.
    column: u8,
}

impl ColRef {
    /// The column `name` of `table`.
    ///
    /// # Panics
    /// Panics if `table` has no such column.
    pub(crate) fn new(table: TableId, name: &str) -> Self {
        Self::lookup(table, name).unwrap_or_else(|| panic!("{} has no column {name}", table.name()))
    }

    /// The column `name` of `table`, or `None` if the table has none.
    pub fn lookup(table: TableId, name: &str) -> Option<Self> {
        let column = table.columns().iter().position(|&c| c == name)?;
        Some(ColRef {
            table,
            column: column as u8,
        })
    }

    /// Column name.
    pub fn name(self) -> &'static str {
        self.table.columns()[usize::from(self.column)]
    }

    /// Dense id over every column of every table, in `0..N_COLUMNS`.
    pub fn id(self) -> usize {
        FIRST_COLUMN[self.table as usize] + usize::from(self.column)
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table.name(), self.name())
    }
}

impl std::fmt::Debug for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// Shorthand constructor used heavily by template definitions.
pub fn col(table: TableId, name: &str) -> ColRef {
    ColRef::new(table, name)
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
            assert!(ColRef::lookup(t, t.primary_key()).is_some(), "{}", t.name());
        }
    }

    #[test]
    fn colref_display_and_validation() {
        let c = col(TableId::Lineitem, "l_shipdate");
        assert_eq!(c.to_string(), "lineitem.l_shipdate");
        assert_eq!(format!("{c:?}"), "lineitem.l_shipdate");
        assert_eq!(c.name(), "l_shipdate");
        assert_eq!(
            ColRef::lookup(TableId::Lineitem, "l_quantity").map(ColRef::name),
            Some("l_quantity")
        );
        assert_eq!(ColRef::lookup(TableId::Lineitem, "o_orderdate"), None);
    }

    #[test]
    #[should_panic(expected = "region has no column l_shipdate")]
    fn colref_rejects_unknown_column() {
        ColRef::new(TableId::Region, "l_shipdate");
    }

    #[test]
    fn ids_number_every_column_once() {
        let ids: Vec<usize> = ALL_TABLES
            .iter()
            .flat_map(|&t| t.columns().iter().map(move |c| col(t, c).id()))
            .collect();
        assert_eq!(ids, (0..N_COLUMNS).collect::<Vec<_>>());
    }
}
