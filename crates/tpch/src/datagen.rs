//! A dbgen-like row generator.
//!
//! Generates the eight TPC-H tables at a given scale factor into columnar
//! in-memory storage, following the same generative distributions described
//! in [`crate::distributions`]. It is used at tiny scale factors (SF ≤ 0.05)
//! to validate the analytic cardinality model against actual row counts and
//! to feed the mini executor; the performance experiments themselves run on
//! analytic statistics, not materialized rows.
//!
//! Categorical columns are stored as dictionary codes, dates as day numbers
//! and discounts/taxes as integer percent codes — exactly the numeric view
//! the predicate math in [`crate::distributions`] uses.

use crate::dicts;
use crate::schema::TableId;
use rng::StdRng;
use std::collections::HashMap;

/// One column of generated values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers (keys, quantities, sizes, discount codes).
    Int(Vec<i64>),
    /// Floats (prices, balances).
    Float(Vec<f64>),
    /// Dates as day numbers.
    Date(Vec<i32>),
    /// Categorical dictionary codes.
    Cat(Vec<u32>),
}

impl ColumnData {
    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Cat(v) => v.len(),
        }
    }

    /// Value at `i` on the numeric comparison scale.
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Float(v) => v[i],
            ColumnData::Date(v) => v[i] as f64,
            ColumnData::Cat(v) => v[i] as f64,
        }
    }
}

/// A generated table: named columns of equal length.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    columns: Vec<(&'static str, ColumnData)>,
    n_rows: usize,
}

impl TableData {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Borrow a column by name.
    ///
    /// # Panics
    /// Panics if the column does not exist.
    pub fn column(&self, name: &str) -> &ColumnData {
        self.columns
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("no generated column {name}"))
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<&'static str> {
        self.columns.iter().map(|(n, _)| *n).collect()
    }

    fn push(&mut self, name: &'static str, data: ColumnData) {
        if self.columns.is_empty() {
            self.n_rows = data.len();
        } else {
            assert_eq!(self.n_rows, data.len(), "ragged column {name}");
        }
        self.columns.push((name, data));
    }
}

/// A complete generated database.
#[derive(Debug, Clone)]
pub struct GeneratedDb {
    /// Scale factor the data was generated at.
    pub sf: f64,
    tables: HashMap<TableId, TableData>,
}

impl GeneratedDb {
    /// Generates all eight tables at the given scale factor with a
    /// deterministic seed.
    ///
    /// # Panics
    /// Panics for `sf <= 0`.
    pub fn generate(sf: f64, seed: u64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = HashMap::new();
        tables.insert(TableId::Region, gen_region());
        tables.insert(TableId::Nation, gen_nation());
        tables.insert(TableId::Supplier, gen_supplier(sf, &mut rng));
        tables.insert(TableId::Customer, gen_customer(sf, &mut rng));
        tables.insert(TableId::Part, gen_part(sf, &mut rng));
        tables.insert(TableId::Partsupp, gen_partsupp(sf, &mut rng));
        let (orders, lineitem) = gen_orders_lineitem(sf, &mut rng);
        tables.insert(TableId::Orders, orders);
        tables.insert(TableId::Lineitem, lineitem);
        GeneratedDb { sf, tables }
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> &TableData {
        &self.tables[&id]
    }
}

fn gen_region() -> TableData {
    let mut t = TableData::default();
    t.push("r_regionkey", ColumnData::Int((1..=5).collect()));
    t.push("r_name", ColumnData::Cat((0..5).collect()));
    t
}

fn gen_nation() -> TableData {
    let mut t = TableData::default();
    t.push("n_nationkey", ColumnData::Int((1..=25).collect()));
    t.push("n_name", ColumnData::Cat((0..25).collect()));
    t.push(
        "n_regionkey",
        ColumnData::Int(dicts::NATION_REGION.iter().map(|&r| r as i64 + 1).collect()),
    );
    t
}

fn acctbal(rng: &mut StdRng) -> f64 {
    rng.gen_range(-999.99..9999.99)
}

fn gen_supplier(sf: f64, rng: &mut StdRng) -> TableData {
    let n = TableId::Supplier.row_count(sf) as i64;
    let mut t = TableData::default();
    t.push("s_suppkey", ColumnData::Int((1..=n).collect()));
    t.push(
        "s_nationkey",
        ColumnData::Int((0..n).map(|_| rng.gen_range(1..=25)).collect()),
    );
    t.push(
        "s_acctbal",
        ColumnData::Float((0..n).map(|_| acctbal(rng)).collect()),
    );
    t
}

fn gen_customer(sf: f64, rng: &mut StdRng) -> TableData {
    let n = TableId::Customer.row_count(sf) as i64;
    let mut t = TableData::default();
    t.push("c_custkey", ColumnData::Int((1..=n).collect()));
    t.push(
        "c_nationkey",
        ColumnData::Int((0..n).map(|_| rng.gen_range(1..=25)).collect()),
    );
    t.push(
        "c_acctbal",
        ColumnData::Float((0..n).map(|_| acctbal(rng)).collect()),
    );
    t.push(
        "c_mktsegment",
        ColumnData::Cat((0..n).map(|_| rng.gen_range(0..5)).collect()),
    );
    t
}

/// Samples a color code from the skewed popularity distribution used by
/// part names (matches `distributions::color_weight`).
fn sample_color(rng: &mut StdRng) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for c in 0..dicts::N_COLORS {
        acc += crate::distributions::color_weight(c);
        if u < acc {
            return c;
        }
    }
    dicts::N_COLORS - 1
}

fn gen_part(sf: f64, rng: &mut StdRng) -> TableData {
    let n = TableId::Part.row_count(sf) as i64;
    let mut t = TableData::default();
    t.push("p_partkey", ColumnData::Int((1..=n).collect()));
    // p_name is 5 colors; store the set compactly as one representative
    // color per word position in auxiliary columns used by LIKE evaluation.
    for w in 0..dicts::NAME_WORDS {
        // These per-word columns are internal to the generator; LIKE
        // evaluation checks membership across them.
        let name: &'static str = match w {
            0 => "p_name",
            1 => "p_name_w1",
            2 => "p_name_w2",
            3 => "p_name_w3",
            _ => "p_name_w4",
        };
        let data = ColumnData::Cat((0..n).map(|_| sample_color(rng)).collect());
        if w == 0 {
            t.push("p_name", data);
        } else {
            t.push(name, data);
        }
    }
    t.push(
        "p_mfgr",
        ColumnData::Cat((0..n).map(|_| rng.gen_range(0..5)).collect()),
    );
    t.push(
        "p_brand",
        ColumnData::Cat((0..n).map(|_| rng.gen_range(0..dicts::N_BRANDS)).collect()),
    );
    t.push(
        "p_type",
        ColumnData::Cat((0..n).map(|_| rng.gen_range(0..dicts::N_TYPES)).collect()),
    );
    t.push(
        "p_size",
        ColumnData::Int((0..n).map(|_| rng.gen_range(1..=50)).collect()),
    );
    t.push(
        "p_container",
        ColumnData::Cat(
            (0..n)
                .map(|_| rng.gen_range(0..dicts::N_CONTAINERS))
                .collect(),
        ),
    );
    t.push(
        "p_retailprice",
        ColumnData::Float((0..n).map(|_| rng.gen_range(900.0..2100.0)).collect()),
    );
    t
}

fn gen_partsupp(sf: f64, rng: &mut StdRng) -> TableData {
    let n_part = TableId::Part.row_count(sf) as i64;
    let n_supp = TableId::Supplier.row_count(sf) as i64;
    let mut partkey = Vec::new();
    let mut suppkey = Vec::new();
    for p in 1..=n_part {
        for _ in 0..4 {
            partkey.push(p);
            suppkey.push(rng.gen_range(1..=n_supp));
        }
    }
    let n = partkey.len();
    let mut t = TableData::default();
    t.push("ps_partkey", ColumnData::Int(partkey));
    t.push("ps_suppkey", ColumnData::Int(suppkey));
    t.push(
        "ps_availqty",
        ColumnData::Int((0..n).map(|_| rng.gen_range(1..=9999)).collect()),
    );
    t.push(
        "ps_supplycost",
        ColumnData::Float((0..n).map(|_| rng.gen_range(1.0..1000.0)).collect()),
    );
    t
}

fn gen_orders_lineitem(sf: f64, rng: &mut StdRng) -> (TableData, TableData) {
    use crate::distributions::{COMMIT_LAG, LINES_PER_ORDER, ORDERDATE_VALUES, RECEIPT_LAG, SHIP_LAG_MAX};
    let n_orders = TableId::Orders.row_count(sf) as i64;
    let n_cust = TableId::Customer.row_count(sf) as i64;
    let n_part = TableId::Part.row_count(sf) as i64;
    let n_supp = TableId::Supplier.row_count(sf) as i64;

    let mut o_key = Vec::with_capacity(n_orders as usize);
    let mut o_cust = Vec::with_capacity(n_orders as usize);
    let mut o_status = Vec::with_capacity(n_orders as usize);
    let mut o_total = Vec::with_capacity(n_orders as usize);
    let mut o_date = Vec::with_capacity(n_orders as usize);
    let mut o_prio = Vec::with_capacity(n_orders as usize);
    let mut o_shipprio = Vec::with_capacity(n_orders as usize);

    let mut l_order = Vec::new();
    let mut l_part = Vec::new();
    let mut l_supp = Vec::new();
    let mut l_lineno = Vec::new();
    let mut l_qty = Vec::new();
    let mut l_extprice = Vec::new();
    let mut l_disc = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_retflag = Vec::new();
    let mut l_status = Vec::new();
    let mut l_ship = Vec::new();
    let mut l_commit = Vec::new();
    let mut l_receipt = Vec::new();
    let mut l_instruct = Vec::new();
    let mut l_mode = Vec::new();

    for okey in 1..=n_orders {
        let odate = rng.gen_range(0..ORDERDATE_VALUES);
        o_key.push(okey);
        o_cust.push(rng.gen_range(1..=n_cust));
        o_status.push(rng.gen_range(0..3u32));
        o_date.push(odate);
        o_prio.push(rng.gen_range(0..5u32));
        o_shipprio.push(0i64);

        let k = rng.gen_range(LINES_PER_ORDER.0..=LINES_PER_ORDER.1);
        let mut total = 0.0;
        for line in 1..=k {
            let qty = rng.gen_range(1..=50i64);
            let unit_price: f64 = rng.gen_range(900.0..2100.0);
            let ext = qty as f64 * unit_price;
            let ship = odate + rng.gen_range(1..=SHIP_LAG_MAX);
            let commit = odate + rng.gen_range(COMMIT_LAG.0..=COMMIT_LAG.1);
            let receipt = ship + rng.gen_range(RECEIPT_LAG.0..=RECEIPT_LAG.1);
            l_order.push(okey);
            l_part.push(rng.gen_range(1..=n_part));
            l_supp.push(rng.gen_range(1..=n_supp));
            l_lineno.push(line as i64);
            l_qty.push(qty);
            l_extprice.push(ext);
            l_disc.push(rng.gen_range(0..=10i64));
            l_tax.push(rng.gen_range(0..=8i64));
            l_retflag.push(rng.gen_range(0..3u32));
            l_status.push(rng.gen_range(0..2u32));
            l_ship.push(ship);
            l_commit.push(commit);
            l_receipt.push(receipt);
            l_instruct.push(rng.gen_range(0..4u32));
            l_mode.push(rng.gen_range(0..7u32));
            total += ext;
        }
        o_total.push(total);
    }

    let mut orders = TableData::default();
    orders.push("o_orderkey", ColumnData::Int(o_key));
    orders.push("o_custkey", ColumnData::Int(o_cust));
    orders.push("o_orderstatus", ColumnData::Cat(o_status));
    orders.push("o_totalprice", ColumnData::Float(o_total));
    orders.push("o_orderdate", ColumnData::Date(o_date));
    orders.push("o_orderpriority", ColumnData::Cat(o_prio));
    orders.push("o_shippriority", ColumnData::Int(o_shipprio));

    let mut li = TableData::default();
    li.push("l_orderkey", ColumnData::Int(l_order));
    li.push("l_partkey", ColumnData::Int(l_part));
    li.push("l_suppkey", ColumnData::Int(l_supp));
    li.push("l_linenumber", ColumnData::Int(l_lineno));
    li.push("l_quantity", ColumnData::Int(l_qty));
    li.push("l_extendedprice", ColumnData::Float(l_extprice));
    li.push("l_discount", ColumnData::Int(l_disc));
    li.push("l_tax", ColumnData::Int(l_tax));
    li.push("l_returnflag", ColumnData::Cat(l_retflag));
    li.push("l_linestatus", ColumnData::Cat(l_status));
    li.push("l_shipdate", ColumnData::Date(l_ship));
    li.push("l_commitdate", ColumnData::Date(l_commit));
    li.push("l_receiptdate", ColumnData::Date(l_receipt));
    li.push("l_shipinstruct", ColumnData::Cat(l_instruct));
    li.push("l_shipmode", ColumnData::Cat(l_mode));
    (orders, li)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::p_commit_before_receipt;

    fn small_db() -> GeneratedDb {
        GeneratedDb::generate(0.01, 42)
    }

    #[test]
    fn generates_expected_row_counts() {
        let db = small_db();
        assert_eq!(db.table(TableId::Region).n_rows(), 5);
        assert_eq!(db.table(TableId::Nation).n_rows(), 25);
        assert_eq!(db.table(TableId::Supplier).n_rows(), 100);
        assert_eq!(db.table(TableId::Customer).n_rows(), 1_500);
        assert_eq!(db.table(TableId::Part).n_rows(), 2_000);
        assert_eq!(db.table(TableId::Partsupp).n_rows(), 8_000);
        assert_eq!(db.table(TableId::Orders).n_rows(), 15_000);
        // Lineitem is 1..7 lines per order: expect ≈ 4× orders.
        let li = db.table(TableId::Lineitem).n_rows();
        assert!((45_000..75_000).contains(&li), "lineitem rows = {li}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = GeneratedDb::generate(0.002, 7);
        let b = GeneratedDb::generate(0.002, 7);
        let ca = a.table(TableId::Lineitem).column("l_quantity");
        let cb = b.table(TableId::Lineitem).column("l_quantity");
        for i in 0..ca.len().min(100) {
            assert_eq!(ca.get_f64(i), cb.get_f64(i));
        }
    }

    #[test]
    fn shipdate_respects_order_date_lag() {
        let db = small_db();
        let orders = db.table(TableId::Orders);
        let li = db.table(TableId::Lineitem);
        // Build order date lookup by key.
        let okeys = orders.column("o_orderkey");
        let odates = orders.column("o_orderdate");
        let mut by_key = std::collections::HashMap::new();
        for i in 0..orders.n_rows() {
            by_key.insert(okeys.get_f64(i) as i64, odates.get_f64(i) as i32);
        }
        let lkeys = li.column("l_orderkey");
        let lship = li.column("l_shipdate");
        let lcommit = li.column("l_commitdate");
        let lreceipt = li.column("l_receiptdate");
        for i in 0..li.n_rows() {
            let od = by_key[&(lkeys.get_f64(i) as i64)];
            let ship = lship.get_f64(i) as i32;
            let commit = lcommit.get_f64(i) as i32;
            let receipt = lreceipt.get_f64(i) as i32;
            assert!((1..=121).contains(&(ship - od)), "ship lag");
            assert!((30..=90).contains(&(commit - od)), "commit lag");
            assert!((1..=30).contains(&(receipt - ship)), "receipt lag");
        }
    }

    #[test]
    fn late_line_fraction_matches_analytic_probability() {
        let db = small_db();
        let li = db.table(TableId::Lineitem);
        let commit = li.column("l_commitdate");
        let receipt = li.column("l_receiptdate");
        let late = (0..li.n_rows())
            .filter(|&i| commit.get_f64(i) < receipt.get_f64(i))
            .count();
        let observed = late as f64 / li.n_rows() as f64;
        let analytic = p_commit_before_receipt();
        assert!(
            (observed - analytic).abs() < 0.02,
            "observed {observed}, analytic {analytic}"
        );
    }

    #[test]
    fn quantity_is_uniform_1_to_50() {
        let db = small_db();
        let q = db.table(TableId::Lineitem).column("l_quantity");
        let n = q.len();
        let low = (0..n).filter(|&i| q.get_f64(i) <= 25.0).count();
        let frac = low as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "P(q <= 25) = {frac}");
        for i in 0..n {
            let v = q.get_f64(i);
            assert!((1.0..=50.0).contains(&v));
        }
    }

    #[test]
    fn partsupp_has_four_suppliers_per_part() {
        let db = small_db();
        let ps = db.table(TableId::Partsupp);
        let pk = ps.column("ps_partkey");
        let mut counts = std::collections::HashMap::new();
        for i in 0..ps.n_rows() {
            *counts.entry(pk.get_f64(i) as i64).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 4));
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn rejects_non_positive_sf() {
        GeneratedDb::generate(0.0, 1);
    }
}
