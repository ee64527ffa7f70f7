//! The 22 TPC-H query templates as parameterized logical plans.
//!
//! Each template samples its substitution parameters per the TPC-H
//! specification (dates, segments, brands, quantities, ...) and builds a
//! [`Query`] whose join order mirrors the plans PostgreSQL 8.4 chooses
//! for these queries. [`instantiate`] keeps an instance as its draw, a
//! [`QuerySpec`] (the generator's position before the parameters), and
//! moves the stream past it; [`QuerySpec::query`] builds the plan from the
//! draw wherever it is needed. Templates also compute the *exact* truth
//! selectivities of any correlated predicate combinations from the
//! generative model (the estimator side never sees these — it works from
//! histograms and independence assumptions, like a real optimizer).
//!
//! Template subsets used by the paper's experiments:
//! - [`EIGHTEEN`]: the 18 templates that finish within the 1-hour limit at
//!   10 GB (excludes 16, 17, 20, 21).
//! - [`FOURTEEN`]: the 14 of those without PostgreSQL INITPLAN/SUBQUERY
//!   structures (operator-level modeling; excludes 2, 11, 15, 22).
//! - [`TWELVE`]: the 12 used in the dynamic-workload experiment
//!   (FOURTEEN minus 13 and 18).

use crate::dicts;
use crate::distributions::{
    self, joint_order_before_ship_after, joint_t12_chain, p_commit_before_receipt,
    p_name_contains_color, p_order_has_late_line, LINES_PER_ORDER,
};
use crate::schema::{col, ColRef, TableId};
use crate::spec::{
    AggFunc, AggregateSpec, GroupCount, Having, JoinKind, Predicate, Query, QuerySpec, RelExpr,
};
use crate::types::{date, format_date, CmpOp, Scalar};
use rng::StdRng;
use TableId::*;

/// All 22 template numbers.
pub const ALL_TEMPLATES: [u8; 22] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

/// The 18 templates that complete within the paper's 1-hour limit at 10 GB.
pub const EIGHTEEN: [u8; 18] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 19, 22,
];

/// The 14 templates usable with operator-level models (no INITPLAN /
/// SUBQUERY structures).
pub const FOURTEEN: [u8; 14] = [1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 18, 19];

/// The 12 templates of the dynamic-workload experiment (Figure 9).
pub const TWELVE: [u8; 12] = [1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 19];

/// Draws an instance of a template at the given scale factor: the
/// instance is where `rng` stands, and `rng` moves past the parameters the
/// instance draws (the template body runs once and its plan is dropped), so
/// a stream of draws equals a stream of built queries bit for bit.
/// [`QuerySpec::query`] builds the plan again from the recorded position.
///
/// # Panics
/// Panics if `template` is not in `1..=22`.
pub fn instantiate(template: u8, sf: f64, rng: &mut StdRng) -> QuerySpec {
    let draw = rng.clone();
    build(template, sf, rng);
    QuerySpec { template, sf, draw }
}

/// Builds a template's instance from the parameters `rng` draws next.
///
/// # Panics
/// Panics if `template` is not in `1..=22`.
pub(crate) fn build(template: u8, sf: f64, rng: &mut StdRng) -> Query {
    match template {
        1 => t1(rng),
        2 => t2(rng),
        3 => t3(rng),
        4 => t4(rng),
        5 => t5(rng),
        6 => t6(rng),
        7 => t7(rng),
        8 => t8(rng),
        9 => t9(rng),
        10 => t10(rng),
        11 => t11(sf, rng),
        12 => t12(rng),
        13 => t13(rng),
        14 => t14(rng),
        15 => t15(sf, rng),
        16 => t16(rng),
        17 => t17(rng),
        18 => t18(rng),
        19 => t19(rng),
        20 => t20(sf, rng),
        21 => t21(rng),
        22 => t22(rng),
        other => panic!("unknown TPC-H template {other}"),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

fn cmp(c: ColRef, op: CmpOp, v: Scalar) -> Predicate {
    Predicate::Cmp { col: c, op, value: v }
}

fn between(c: ColRef, lo: Scalar, hi: Scalar) -> Predicate {
    Predicate::Between { col: c, lo, hi }
}

fn agg(input: RelExpr, spec: AggregateSpec) -> RelExpr {
    RelExpr::Aggregate {
        input: Box::new(input),
        spec,
    }
}

fn sort(input: RelExpr, keys: u32) -> RelExpr {
    RelExpr::Sort {
        input: Box::new(input),
        keys,
    }
}

fn limit(input: RelExpr, count: u64) -> RelExpr {
    RelExpr::Limit {
        input: Box::new(input),
        count,
    }
}

fn join_kind(
    kind: JoinKind,
    left: RelExpr,
    right: RelExpr,
    on: (ColRef, ColRef),
    truth_correction: f64,
    extra_filter_sel: f64,
) -> RelExpr {
    RelExpr::Join {
        kind,
        on,
        left: Box::new(left),
        right: Box::new(right),
        truth_correction,
        extra_filter_sel,
    }
}

/// A year window `[Jan 1 Y, Jan 1 Y+1)` as inclusive day bounds.
fn year_window(y: i32) -> (i32, i32) {
    (date(y, 1, 1), date(y + 1, 1, 1) - 1)
}

/// A window of `months` starting at (y, m), inclusive day bounds.
fn month_window(y: i32, m: u32, months: u32) -> (i32, i32) {
    let end_m = m + months;
    let (ey, em) = if end_m > 12 {
        (y + ((end_m - 1) / 12) as i32, (end_m - 1) % 12 + 1)
    } else {
        (y, end_m)
    };
    (date(y, m, 1), date(ey, em, 1) - 1)
}

/// Expected fraction of rows that are the minimum of their group when each
/// of `group_size` candidate members independently survives with
/// probability `member_sel` (template 2's min-cost-supplier filter):
/// `E[1/k | k >= 1]` with `k = 1 + Binomial(group_size - 1, member_sel)`.
fn min_fraction(group_size: u32, member_sel: f64) -> f64 {
    let m = group_size.saturating_sub(1);
    let mut total = 0.0;
    for j in 0..=m {
        let combos = binomial(m, j);
        let p = combos * member_sel.powi(j as i32) * (1.0 - member_sel).powi((m - j) as i32);
        total += p / (1.0 + j as f64);
    }
    total
}

fn binomial(n: u32, k: u32) -> f64 {
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Exact P(sum of the line quantities of an order > q): the order has
/// `k ~ U{1..7}` lines with quantities `U{1..50}` — computed by dynamic
/// programming over the discrete convolution (template 18's HAVING truth).
pub fn p_order_quantity_sum_gt(q: f64) -> f64 {
    let (klo, khi) = LINES_PER_ORDER;
    let mut total = 0.0;
    let pk = 1.0 / (khi - klo + 1) as f64;
    // dist[s] = P(sum == s) for the current k.
    let mut dist = vec![1.0f64]; // sum = 0 with probability 1 at k = 0.
    for k in 1..=khi {
        let mut next = vec![0.0f64; dist.len() + 50];
        for (s, &p) in dist.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for v in 1..=50usize {
                next[s + v] += p / 50.0;
            }
        }
        dist = next;
        if k >= klo {
            let above: f64 = dist
                .iter()
                .enumerate()
                .filter(|&(s, _)| s as f64 > q)
                .map(|(_, &p)| p)
                .sum();
            total += pk * above;
        }
    }
    total
}

/// Monte-Carlo estimate (fixed seed, deterministic) of template 11's HAVING
/// truth: P(a part's total `ps_supplycost × ps_availqty` over its surviving
/// suppliers exceeds `fraction` of the grand total), where each of the four
/// suppliers survives the nation filter with probability 1/25.
fn t11_having_fraction(sf: f64, fraction: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x0071_1711);
    let n_parts = (200_000.0 * sf) as usize;
    let expected_rows = 800_000.0 * sf / 25.0;
    let mean_value = 500.5 * 5000.0;
    let threshold = fraction * expected_rows * mean_value;
    let samples = 20_000usize;
    let mut pass = 0usize;
    let mut nonempty = 0usize;
    for _ in 0..samples {
        let mut sum = 0.0;
        let mut k = 0;
        for _ in 0..4 {
            if rng.gen_range(0..25) == 0 {
                k += 1;
                let cost: f64 = rng.gen_range(1.0..1000.0);
                let qty: f64 = rng.gen_range(1.0..9999.0);
                sum += cost * qty;
            }
        }
        if k > 0 {
            nonempty += 1;
            if sum > threshold {
                pass += 1;
            }
        }
    }
    let _ = n_parts;
    if nonempty == 0 {
        0.0
    } else {
        (pass as f64 / nonempty as f64).max(1e-9)
    }
}

// ---------------------------------------------------------------------------
// Template definitions.
// ---------------------------------------------------------------------------

/// Q1 — pricing summary report. Scan LINEITEM below a shipdate cutoff and
/// compute eight numeric aggregates per (returnflag, linestatus).
fn t1(rng: &mut StdRng) -> Query {
    let delta = rng.gen_range(60..=120);
    let cutoff = date(1998, 12, 1) - delta;
    let scan = RelExpr::scan_where(
        Lineitem,
        vec![cmp(
            col(Lineitem, "l_shipdate"),
            CmpOp::Le,
            Scalar::Date(cutoff),
        )],
    );
    let aggregated = agg(
        scan,
        AggregateSpec {
            group_by: vec![col(Lineitem, "l_returnflag"), col(Lineitem, "l_linestatus")],
            aggs: vec![
                AggFunc::Sum(col(Lineitem, "l_quantity")),
                AggFunc::Sum(col(Lineitem, "l_extendedprice")),
                AggFunc::Sum(col(Lineitem, "l_extendedprice")),
                AggFunc::Sum(col(Lineitem, "l_extendedprice")),
                AggFunc::Avg(col(Lineitem, "l_quantity")),
                AggFunc::Avg(col(Lineitem, "l_extendedprice")),
                AggFunc::Avg(col(Lineitem, "l_discount")),
                AggFunc::Count,
            ],
            // Eight aggregates, several with multi-term numeric expressions
            // (disc_price, charge) — the paper's example of software
            // numeric arithmetic dominating CPU time.
            numeric_ops: 20,
            groups: GroupCount::Fixed(6.0),
            having: None,
        },
    );
    Query {
        template: 1,
        params: vec![("delta".into(), delta.to_string())],
        root: sort(aggregated, 2),
    }
}

/// Q2 — minimum-cost supplier, with a correlated MIN subquery (SubPlan).
fn t2(rng: &mut StdRng) -> Query {
    let size = rng.gen_range(1..=50i64);
    let suffix = rng.gen_range(0..5u32);
    let region = rng.gen_range(0..5u32);
    let type_codes: Vec<Scalar> = (0..dicts::N_TYPES)
        .filter(|&t| t % 5 == suffix)
        .map(Scalar::Cat)
        .collect();
    let part = RelExpr::scan_where(
        Part,
        vec![
            cmp(col(Part, "p_size"), CmpOp::Eq, Scalar::Int(size)),
            Predicate::InSet {
                col: col(Part, "p_type"),
                values: type_codes,
            },
        ],
    );
    let main = RelExpr::inner_join(
        RelExpr::inner_join(
            RelExpr::inner_join(
                RelExpr::inner_join(
                    part,
                    RelExpr::scan(Partsupp),
                    (col(Part, "p_partkey"), col(Partsupp, "ps_partkey")),
                ),
                RelExpr::scan(Supplier),
                (col(Partsupp, "ps_suppkey"), col(Supplier, "s_suppkey")),
            ),
            RelExpr::scan(Nation),
            (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
        ),
        RelExpr::scan_where(
            Region,
            vec![cmp(col(Region, "r_name"), CmpOp::Eq, Scalar::Cat(region))],
        ),
        (col(Nation, "n_regionkey"), col(Region, "r_regionkey")),
    );
    // The correlated MIN subquery probes PARTSUPP by its part key (an
    // index probe of ~4 rows per outer part under PostgreSQL's SubPlan
    // execution); the supplier/nation/region restriction of the subquery
    // is folded into `truth_sel` below.
    let subquery = agg(
        RelExpr::scan_where(
            Partsupp,
            vec![cmp(col(Partsupp, "ps_partkey"), CmpOp::Eq, Scalar::Int(1))],
        ),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Min(col(Partsupp, "ps_supplycost"))],
            numeric_ops: 1,
            groups: GroupCount::One,
            having: None,
        },
    );
    let filtered = RelExpr::ScalarSubqueryFilter {
        input: Box::new(main),
        subquery: Box::new(subquery),
        truth_sel: min_fraction(4, 1.0 / 5.0),
        correlated: true,
    };
    Query {
        template: 2,
        params: vec![
            ("size".into(), size.to_string()),
            ("type_suffix".into(), suffix.to_string()),
            ("region".into(), dicts::REGIONS[region as usize].into()),
        ],
        root: limit(sort(filtered, 4), 100),
    }
}

/// Q3 — shipping-priority: customer ⋈ orders ⋈ lineitem with correlated
/// order/ship date cutoffs.
fn t3(rng: &mut StdRng) -> Query {
    let segment = rng.gen_range(0..5u32);
    let day = rng.gen_range(1..=31u32);
    let cut = date(1995, 3, day.min(31));
    let sel_o = distributions::selectivity(col(Orders, "o_orderdate"), CmpOp::Lt, cut as f64, 1.0);
    let sel_l =
        distributions::selectivity(col(Lineitem, "l_shipdate"), CmpOp::Gt, cut as f64, 1.0);
    let joint = joint_order_before_ship_after(cut);
    let correction = if sel_o * sel_l > 0.0 {
        joint / (sel_o * sel_l)
    } else {
        1.0
    };
    let customer = RelExpr::scan_where(
        Customer,
        vec![cmp(
            col(Customer, "c_mktsegment"),
            CmpOp::Eq,
            Scalar::Cat(segment),
        )],
    );
    let orders = RelExpr::scan_where(
        Orders,
        vec![cmp(col(Orders, "o_orderdate"), CmpOp::Lt, Scalar::Date(cut))],
    );
    let lineitem = RelExpr::scan_where(
        Lineitem,
        vec![cmp(
            col(Lineitem, "l_shipdate"),
            CmpOp::Gt,
            Scalar::Date(cut),
        )],
    );
    let co = RelExpr::inner_join(
        customer,
        orders,
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
    );
    let col_join = join_kind(
        JoinKind::Inner,
        co,
        lineitem,
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
        correction,
        1.0,
    );
    let aggregated = agg(
        col_join,
        AggregateSpec {
            group_by: vec![
                col(Lineitem, "l_orderkey"),
                col(Orders, "o_orderdate"),
                col(Orders, "o_shippriority"),
            ],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 3,
            groups: GroupCount::DistinctOf(col(Lineitem, "l_orderkey")),
            having: None,
        },
    );
    Query {
        template: 3,
        params: vec![
            ("segment".into(), dicts::SEGMENTS[segment as usize].into()),
            ("date".into(), format_date(cut)),
        ],
        root: limit(sort(aggregated, 2), 10),
    }
}

/// Q4 — order-priority checking: EXISTS (late line) per order in a quarter.
fn t4(rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1997);
    let month = [1u32, 4, 7, 10][rng.gen_range(0..4)];
    let (lo, hi) = month_window(year, month, 3);
    let orders = RelExpr::scan_where(
        Orders,
        vec![between(
            col(Orders, "o_orderdate"),
            Scalar::Date(lo),
            Scalar::Date(hi),
        )],
    );
    let lineitem = RelExpr::scan_where(
        Lineitem,
        vec![Predicate::ColCmp {
            left: col(Lineitem, "l_commitdate"),
            op: CmpOp::Lt,
            right: col(Lineitem, "l_receiptdate"),
        }],
    );
    let semi = join_kind(
        JoinKind::Semi,
        orders,
        lineitem,
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
        p_order_has_late_line(),
        1.0,
    );
    let aggregated = agg(
        semi,
        AggregateSpec {
            group_by: vec![col(Orders, "o_orderpriority")],
            aggs: vec![AggFunc::Count],
            numeric_ops: 1,
            groups: GroupCount::Fixed(5.0),
            having: None,
        },
    );
    Query {
        template: 4,
        params: vec![("quarter".into(), format!("{year}-{month:02}"))],
        root: sort(aggregated, 1),
    }
}

/// Q5 — local-supplier volume: six-way join filtered by region and year.
fn t5(rng: &mut StdRng) -> Query {
    let region = rng.gen_range(0..5u32);
    let year = rng.gen_range(1993..=1997);
    let (lo, hi) = year_window(year);
    let rn = RelExpr::inner_join(
        RelExpr::scan_where(
            Region,
            vec![cmp(col(Region, "r_name"), CmpOp::Eq, Scalar::Cat(region))],
        ),
        RelExpr::scan(Nation),
        (col(Region, "r_regionkey"), col(Nation, "n_regionkey")),
    );
    let rnc = RelExpr::inner_join(
        rn,
        RelExpr::scan(Customer),
        (col(Nation, "n_nationkey"), col(Customer, "c_nationkey")),
    );
    let rnco = RelExpr::inner_join(
        rnc,
        RelExpr::scan_where(
            Orders,
            vec![between(
                col(Orders, "o_orderdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            )],
        ),
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
    );
    let rncol = RelExpr::inner_join(
        rnco,
        RelExpr::scan(Lineitem),
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
    );
    // s_nationkey = c_nationkey is an extra join predicate both sides know:
    // 1/25 of supplier matches are local.
    let full = join_kind(
        JoinKind::Inner,
        rncol,
        RelExpr::scan(Supplier),
        (col(Lineitem, "l_suppkey"), col(Supplier, "s_suppkey")),
        1.0,
        1.0 / 25.0,
    );
    let aggregated = agg(
        full,
        AggregateSpec {
            group_by: vec![col(Nation, "n_name")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 3,
            groups: GroupCount::Fixed(5.0),
            having: None,
        },
    );
    Query {
        template: 5,
        params: vec![
            ("region".into(), dicts::REGIONS[region as usize].into()),
            ("year".into(), year.to_string()),
        ],
        root: sort(aggregated, 1),
    }
}

/// Q6 — forecasting revenue change: single-table scan + scalar aggregate.
fn t6(rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1997);
    let (lo, hi) = year_window(year);
    let disc = rng.gen_range(2..=9i64); // discount code (percent)
    let qty = rng.gen_range(24..=25i64);
    let scan = RelExpr::scan_where(
        Lineitem,
        vec![
            between(col(Lineitem, "l_shipdate"), Scalar::Date(lo), Scalar::Date(hi)),
            between(
                col(Lineitem, "l_discount"),
                Scalar::Int(disc - 1),
                Scalar::Int(disc + 1),
            ),
            cmp(col(Lineitem, "l_quantity"), CmpOp::Lt, Scalar::Int(qty)),
        ],
    );
    let aggregated = agg(
        scan,
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 2,
            groups: GroupCount::One,
            having: None,
        },
    );
    Query {
        template: 6,
        params: vec![
            ("year".into(), year.to_string()),
            ("discount".into(), format!("0.0{disc}")),
            ("quantity".into(), qty.to_string()),
        ],
        root: aggregated,
    }
}

/// Q7 — volume shipping between two nations over 1995–1996.
fn t7(rng: &mut StdRng) -> Query {
    let n1 = rng.gen_range(0..25u32);
    let mut n2 = rng.gen_range(0..25u32);
    while n2 == n1 {
        n2 = rng.gen_range(0..25u32);
    }
    let (lo, _) = year_window(1995);
    let (_, hi) = year_window(1996);
    let pair = vec![Scalar::Cat(n1), Scalar::Cat(n2)];
    // The nation restrictions are pushed below the big joins, as
    // PostgreSQL's join-order search does for Q7.
    let sn = RelExpr::inner_join(
        RelExpr::scan(Supplier),
        RelExpr::scan_where(
            Nation,
            vec![Predicate::InSet {
                col: col(Nation, "n_name"),
                values: pair.clone(),
            }],
        ),
        (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
    );
    let snl = RelExpr::inner_join(
        sn,
        RelExpr::scan_where(
            Lineitem,
            vec![between(
                col(Lineitem, "l_shipdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            )],
        ),
        (col(Supplier, "s_suppkey"), col(Lineitem, "l_suppkey")),
    );
    let snlo = RelExpr::inner_join(
        snl,
        RelExpr::scan(Orders),
        (col(Lineitem, "l_orderkey"), col(Orders, "o_orderkey")),
    );
    let cn = RelExpr::inner_join(
        RelExpr::scan(Customer),
        RelExpr::scan_where(
            Nation,
            vec![Predicate::InSet {
                col: col(Nation, "n_name"),
                values: pair,
            }],
        ),
        (col(Customer, "c_nationkey"), col(Nation, "n_nationkey")),
    );
    // Only the (n1, n2) / (n2, n1) combinations remain of the four
    // possible nation pairings.
    let full = join_kind(
        JoinKind::Inner,
        snlo,
        cn,
        (col(Orders, "o_custkey"), col(Customer, "c_custkey")),
        1.0,
        0.5,
    );
    let aggregated = agg(
        full,
        AggregateSpec {
            group_by: vec![col(Nation, "n_name")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 4,
            groups: GroupCount::Fixed(4.0),
            having: None,
        },
    );
    Query {
        template: 7,
        params: vec![
            ("nation1".into(), dicts::NATIONS[n1 as usize].into()),
            ("nation2".into(), dicts::NATIONS[n2 as usize].into()),
        ],
        root: sort(aggregated, 3),
    }
}

/// Q8 — national market share of a part type in a region, 1995–1996.
fn t8(rng: &mut StdRng) -> Query {
    let ptype = rng.gen_range(0..dicts::N_TYPES);
    let region = rng.gen_range(0..5u32);
    let (lo, _) = year_window(1995);
    let (_, hi) = year_window(1996);
    let pl = RelExpr::inner_join(
        RelExpr::scan_where(
            Part,
            vec![cmp(col(Part, "p_type"), CmpOp::Eq, Scalar::Cat(ptype))],
        ),
        RelExpr::scan(Lineitem),
        (col(Part, "p_partkey"), col(Lineitem, "l_partkey")),
    );
    let pls = RelExpr::inner_join(
        pl,
        RelExpr::scan(Supplier),
        (col(Lineitem, "l_suppkey"), col(Supplier, "s_suppkey")),
    );
    let plso = RelExpr::inner_join(
        pls,
        RelExpr::scan_where(
            Orders,
            vec![between(
                col(Orders, "o_orderdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            )],
        ),
        (col(Lineitem, "l_orderkey"), col(Orders, "o_orderkey")),
    );
    let plsoc = RelExpr::inner_join(
        plso,
        RelExpr::scan(Customer),
        (col(Orders, "o_custkey"), col(Customer, "c_custkey")),
    );
    let with_cn = RelExpr::inner_join(
        plsoc,
        RelExpr::scan(Nation),
        (col(Customer, "c_nationkey"), col(Nation, "n_nationkey")),
    );
    let with_region = RelExpr::inner_join(
        with_cn,
        RelExpr::scan_where(
            Region,
            vec![cmp(col(Region, "r_name"), CmpOp::Eq, Scalar::Cat(region))],
        ),
        (col(Nation, "n_regionkey"), col(Region, "r_regionkey")),
    );
    let with_sn = RelExpr::inner_join(
        with_region,
        RelExpr::scan(Nation),
        (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
    );
    let aggregated = agg(
        with_sn,
        AggregateSpec {
            group_by: vec![col(Orders, "o_orderdate")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 6,
            groups: GroupCount::Fixed(2.0),
            having: None,
        },
    );
    Query {
        template: 8,
        params: vec![
            ("type".into(), dicts::type_name(ptype)),
            ("region".into(), dicts::REGIONS[region as usize].into()),
        ],
        root: sort(aggregated, 1),
    }
}

/// Q9 — product-type profit: the heaviest join pipeline (part by name color,
/// all of lineitem, partsupp, orders, nation).
fn t9(rng: &mut StdRng) -> Query {
    let color = rng.gen_range(0..dicts::N_COLORS);
    let pl = RelExpr::inner_join(
        RelExpr::scan_where(
            Part,
            vec![Predicate::NameLike {
                col: col(Part, "p_name"),
                color,
            }],
        ),
        RelExpr::scan(Lineitem),
        (col(Part, "p_partkey"), col(Lineitem, "l_partkey")),
    );
    let pls = RelExpr::inner_join(
        pl,
        RelExpr::scan(Supplier),
        (col(Lineitem, "l_suppkey"), col(Supplier, "s_suppkey")),
    );
    // partsupp joins on (partkey, suppkey): each lineitem matches exactly
    // one of the four partsupp rows of its part.
    let plsps = join_kind(
        JoinKind::Inner,
        pls,
        RelExpr::scan(Partsupp),
        (col(Lineitem, "l_partkey"), col(Partsupp, "ps_partkey")),
        1.0,
        0.25,
    );
    let plspso = RelExpr::inner_join(
        plsps,
        RelExpr::scan(Orders),
        (col(Lineitem, "l_orderkey"), col(Orders, "o_orderkey")),
    );
    let full = RelExpr::inner_join(
        plspso,
        RelExpr::scan(Nation),
        (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
    );
    let aggregated = agg(
        full,
        AggregateSpec {
            group_by: vec![col(Nation, "n_name"), col(Orders, "o_orderdate")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 6,
            groups: GroupCount::Fixed(175.0),
            having: None,
        },
    );
    Query {
        template: 9,
        params: vec![("color".into(), color.to_string())],
        root: sort(aggregated, 2),
    }
}

/// Q10 — returned items in a quarter, grouped per customer.
fn t10(rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1994);
    let month = rng.gen_range(1..=12u32);
    let (lo, hi) = month_window(year, month, 3);
    let co = RelExpr::inner_join(
        RelExpr::scan(Customer),
        RelExpr::scan_where(
            Orders,
            vec![between(
                col(Orders, "o_orderdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            )],
        ),
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
    );
    let col_ = RelExpr::inner_join(
        co,
        RelExpr::scan_where(
            Lineitem,
            vec![cmp(
                col(Lineitem, "l_returnflag"),
                CmpOp::Eq,
                Scalar::Cat(0), // "R"
            )],
        ),
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
    );
    let full = RelExpr::inner_join(
        col_,
        RelExpr::scan(Nation),
        (col(Customer, "c_nationkey"), col(Nation, "n_nationkey")),
    );
    let aggregated = agg(
        full,
        AggregateSpec {
            group_by: vec![col(Customer, "c_custkey"), col(Nation, "n_name")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 3,
            groups: GroupCount::DistinctOf(col(Customer, "c_custkey")),
            having: None,
        },
    );
    Query {
        template: 10,
        params: vec![("quarter".into(), format!("{year}-{month:02}"))],
        root: limit(sort(aggregated, 1), 20),
    }
}

/// Q11 — important stock identification: HAVING against an InitPlan scalar.
fn t11(sf: f64, rng: &mut StdRng) -> Query {
    let nation = rng.gen_range(0..25u32);
    let fraction = 0.0001 / sf.max(1e-6);
    let join_tree = |alias: u32| {
        let _ = alias;
        RelExpr::inner_join(
            RelExpr::inner_join(
                RelExpr::scan(Partsupp),
                RelExpr::scan(Supplier),
                (col(Partsupp, "ps_suppkey"), col(Supplier, "s_suppkey")),
            ),
            RelExpr::scan_where(
                Nation,
                vec![cmp(col(Nation, "n_name"), CmpOp::Eq, Scalar::Cat(nation))],
            ),
            (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
        )
    };
    let grouped = agg(
        join_tree(0),
        AggregateSpec {
            group_by: vec![col(Partsupp, "ps_partkey")],
            aggs: vec![AggFunc::Sum(col(Partsupp, "ps_supplycost"))],
            numeric_ops: 3,
            groups: GroupCount::DistinctOf(col(Partsupp, "ps_partkey")),
            having: None,
        },
    );
    let total = agg(
        join_tree(1),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Sum(col(Partsupp, "ps_supplycost"))],
            numeric_ops: 3,
            groups: GroupCount::One,
            having: None,
        },
    );
    let filtered = RelExpr::ScalarSubqueryFilter {
        input: Box::new(grouped),
        subquery: Box::new(total),
        truth_sel: t11_having_fraction(sf, fraction),
        correlated: false,
    };
    Query {
        template: 11,
        params: vec![
            ("nation".into(), dicts::NATIONS[nation as usize].into()),
            ("fraction".into(), format!("{fraction:e}")),
        ],
        root: sort(filtered, 1),
    }
}

/// Q12 — shipping modes and delivery priority: the correlated date chain.
fn t12(rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1997);
    let (lo, hi) = year_window(year);
    let m1 = rng.gen_range(0..7u32);
    let mut m2 = rng.gen_range(0..7u32);
    while m2 == m1 {
        m2 = rng.gen_range(0..7u32);
    }
    let chain_truth = joint_t12_chain(lo) * (2.0 / 7.0);
    let lineitem = RelExpr::Scan {
        table: Lineitem,
        filters: vec![
            Predicate::InSet {
                col: col(Lineitem, "l_shipmode"),
                values: vec![Scalar::Cat(m1), Scalar::Cat(m2)],
            },
            Predicate::ColCmp {
                left: col(Lineitem, "l_shipdate"),
                op: CmpOp::Lt,
                right: col(Lineitem, "l_commitdate"),
            },
            Predicate::ColCmp {
                left: col(Lineitem, "l_commitdate"),
                op: CmpOp::Lt,
                right: col(Lineitem, "l_receiptdate"),
            },
            between(
                col(Lineitem, "l_receiptdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            ),
        ],
        truth_sel_override: Some(chain_truth),
    };
    let joined = RelExpr::inner_join(
        RelExpr::scan(Orders),
        lineitem,
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
    );
    let aggregated = agg(
        joined,
        AggregateSpec {
            group_by: vec![col(Lineitem, "l_shipmode")],
            aggs: vec![AggFunc::Count, AggFunc::Count],
            numeric_ops: 4,
            groups: GroupCount::Fixed(2.0),
            having: None,
        },
    );
    Query {
        template: 12,
        params: vec![
            ("shipmode1".into(), dicts::SHIP_MODES[m1 as usize].into()),
            ("shipmode2".into(), dicts::SHIP_MODES[m2 as usize].into()),
            ("year".into(), year.to_string()),
        ],
        root: sort(aggregated, 1),
    }
}

/// Q13 — customer order-count distribution: the left-outer join whose
/// Materialize sub-plan stars in the paper's hybrid example.
fn t13(rng: &mut StdRng) -> Query {
    // Word pairs for the NOT LIKE; all have comparable generative truth.
    let words = [
        ("special", "requests", 0.9852),
        ("pending", "deposits", 0.9870),
        ("unusual", "accounts", 0.9861),
        ("express", "packages", 0.9845),
    ];
    let (w1, w2, keep) = words[rng.gen_range(0..words.len())];
    let orders = RelExpr::scan_where(
        Orders,
        vec![Predicate::TextNotLike {
            col: col(Orders, "o_comment"),
            truth: keep,
        }],
    );
    let outer = join_kind(
        JoinKind::LeftOuter,
        RelExpr::scan(Customer),
        orders,
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
        1.0,
        1.0,
    );
    let per_customer = agg(
        outer,
        AggregateSpec {
            group_by: vec![col(Customer, "c_custkey")],
            aggs: vec![AggFunc::Count],
            numeric_ops: 1,
            groups: GroupCount::DistinctOf(col(Customer, "c_custkey")),
            having: None,
        },
    );
    let distribution = agg(
        per_customer,
        AggregateSpec {
            group_by: vec![col(Customer, "c_custkey")],
            aggs: vec![AggFunc::Count],
            numeric_ops: 1,
            groups: GroupCount::Fixed(42.0),
            having: None,
        },
    );
    Query {
        template: 13,
        params: vec![
            ("word1".into(), w1.into()),
            ("word2".into(), w2.into()),
        ],
        root: sort(distribution, 2),
    }
}

/// Q14 — promotion effect over one month.
fn t14(rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1997);
    let month = rng.gen_range(1..=12u32);
    let (lo, hi) = month_window(year, month, 1);
    let joined = RelExpr::inner_join(
        RelExpr::scan_where(
            Lineitem,
            vec![between(
                col(Lineitem, "l_shipdate"),
                Scalar::Date(lo),
                Scalar::Date(hi),
            )],
        ),
        RelExpr::scan(Part),
        (col(Lineitem, "l_partkey"), col(Part, "p_partkey")),
    );
    let aggregated = agg(
        joined,
        AggregateSpec {
            group_by: vec![],
            aggs: vec![
                AggFunc::Sum(col(Lineitem, "l_extendedprice")),
                AggFunc::Sum(col(Lineitem, "l_extendedprice")),
            ],
            numeric_ops: 6,
            groups: GroupCount::One,
            having: None,
        },
    );
    Query {
        template: 14,
        params: vec![("month".into(), format!("{year}-{month:02}"))],
        root: aggregated,
    }
}

/// Q15 — top supplier via a revenue view and a MAX InitPlan.
fn t15(sf: f64, rng: &mut StdRng) -> Query {
    let year = rng.gen_range(1993..=1997);
    let month = [1u32, 4, 7, 10][rng.gen_range(0..4)];
    let (lo, hi) = month_window(year, month, 3);
    let revenue_view = |_: u32| {
        agg(
            RelExpr::scan_where(
                Lineitem,
                vec![between(
                    col(Lineitem, "l_shipdate"),
                    Scalar::Date(lo),
                    Scalar::Date(hi),
                )],
            ),
            AggregateSpec {
                group_by: vec![col(Lineitem, "l_suppkey")],
                aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
                numeric_ops: 3,
                groups: GroupCount::DistinctOf(col(Lineitem, "l_suppkey")),
                having: None,
            },
        )
    };
    let max_rev = agg(
        revenue_view(1),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Max(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 1,
            groups: GroupCount::One,
            having: None,
        },
    );
    let n_suppliers = TableId::Supplier.row_count(sf) as f64;
    let filtered = RelExpr::ScalarSubqueryFilter {
        input: Box::new(revenue_view(0)),
        subquery: Box::new(max_rev),
        truth_sel: 1.0 / n_suppliers,
        correlated: false,
    };
    let joined = RelExpr::inner_join(
        RelExpr::scan(Supplier),
        filtered,
        (col(Supplier, "s_suppkey"), col(Lineitem, "l_suppkey")),
    );
    Query {
        template: 15,
        params: vec![("quarter".into(), format!("{year}-{month:02}"))],
        root: sort(joined, 1),
    }
}

/// Q16 — parts/supplier relationship with an anti-join against complainers.
fn t16(rng: &mut StdRng) -> Query {
    let brand = rng.gen_range(0..dicts::N_BRANDS);
    let prefix = rng.gen_range(0..6u32);
    let mut sizes = Vec::new();
    while sizes.len() < 8 {
        let s = rng.gen_range(1..=50i64);
        if !sizes.contains(&s) {
            sizes.push(s);
        }
    }
    let part = RelExpr::scan_where(
        Part,
        vec![
            cmp(col(Part, "p_brand"), CmpOp::Ne, Scalar::Cat(brand)),
            Predicate::TextNotLike {
                col: col(Part, "p_type"),
                truth: 125.0 / 150.0, // NOT LIKE 'PREFIX%': 25 of 150 types match.
            },
            Predicate::InSet {
                col: col(Part, "p_size"),
                values: sizes.iter().map(|&s| Scalar::Int(s)).collect(),
            },
        ],
    );
    let joined = RelExpr::inner_join(
        part,
        RelExpr::scan(Partsupp),
        (col(Part, "p_partkey"), col(Partsupp, "ps_partkey")),
    );
    let anti = join_kind(
        JoinKind::Anti,
        joined,
        RelExpr::scan_where(
            Supplier,
            vec![Predicate::TextNotLike {
                col: col(Supplier, "s_comment"),
                truth: 0.0005, // suppliers *with* complaints
            }],
        ),
        (col(Partsupp, "ps_suppkey"), col(Supplier, "s_suppkey")),
        0.9995,
        1.0,
    );
    let aggregated = agg(
        anti,
        AggregateSpec {
            group_by: vec![col(Part, "p_brand"), col(Part, "p_type"), col(Part, "p_size")],
            aggs: vec![AggFunc::Count],
            numeric_ops: 2,
            groups: GroupCount::Fixed(27_840.0),
            having: None,
        },
    );
    Query {
        template: 16,
        params: vec![
            ("brand".into(), dicts::brand_name(brand)),
            ("type_prefix".into(), prefix.to_string()),
        ],
        root: sort(aggregated, 4),
    }
}

/// Q17 — small-quantity-order revenue: a correlated AVG SubPlan per row.
fn t17(rng: &mut StdRng) -> Query {
    let brand = rng.gen_range(0..dicts::N_BRANDS);
    let container = rng.gen_range(0..dicts::N_CONTAINERS);
    let joined = RelExpr::inner_join(
        RelExpr::scan_where(
            Part,
            vec![
                cmp(col(Part, "p_brand"), CmpOp::Eq, Scalar::Cat(brand)),
                cmp(col(Part, "p_container"), CmpOp::Eq, Scalar::Cat(container)),
            ],
        ),
        RelExpr::scan(Lineitem),
        (col(Part, "p_partkey"), col(Lineitem, "l_partkey")),
    );
    // Correlated per-part average-quantity subquery: an index probe of
    // lineitem per outer row under PostgreSQL 8.4's SubPlan execution.
    let subquery = agg(
        RelExpr::scan_where(
            Lineitem,
            vec![cmp(col(Lineitem, "l_partkey"), CmpOp::Eq, Scalar::Int(1))],
        ),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Avg(col(Lineitem, "l_quantity"))],
            numeric_ops: 2,
            groups: GroupCount::One,
            having: None,
        },
    );
    let filtered = RelExpr::ScalarSubqueryFilter {
        input: Box::new(joined),
        subquery: Box::new(subquery),
        truth_sel: 0.1, // P(quantity < 0.2 × avg quantity ≈ 5.1) = 5/50
        correlated: true,
    };
    let aggregated = agg(
        filtered,
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 2,
            groups: GroupCount::One,
            having: None,
        },
    );
    Query {
        template: 17,
        params: vec![
            ("brand".into(), dicts::brand_name(brand)),
            ("container".into(), container.to_string()),
        ],
        root: aggregated,
    }
}

/// Q18 — large-volume customers: the HAVING sum(l_quantity) estimation-error
/// showcase (Section 5.3.3).
fn t18(rng: &mut StdRng) -> Query {
    let q = rng.gen_range(312..=315) as f64;
    let truth_fraction = p_order_quantity_sum_gt(q);
    let heavy_orders = agg(
        RelExpr::scan(Lineitem),
        AggregateSpec {
            group_by: vec![col(Lineitem, "l_orderkey")],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_quantity"))],
            numeric_ops: 1,
            groups: GroupCount::DistinctOf(col(Lineitem, "l_orderkey")),
            having: Some(Having {
                op: CmpOp::Gt,
                value: q,
                truth_fraction,
            }),
        },
    );
    let orders_semi = join_kind(
        JoinKind::Semi,
        RelExpr::scan(Orders),
        heavy_orders,
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
        truth_fraction,
        1.0,
    );
    let with_customer = RelExpr::inner_join(
        RelExpr::scan(Customer),
        orders_semi,
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
    );
    let with_lines = RelExpr::inner_join(
        with_customer,
        RelExpr::scan(Lineitem),
        (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
    );
    let aggregated = agg(
        with_lines,
        AggregateSpec {
            group_by: vec![
                col(Customer, "c_custkey"),
                col(Orders, "o_orderkey"),
                col(Orders, "o_orderdate"),
                col(Orders, "o_totalprice"),
            ],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_quantity"))],
            numeric_ops: 2,
            groups: GroupCount::DistinctOf(col(Orders, "o_orderkey")),
            having: None,
        },
    );
    Query {
        template: 18,
        params: vec![("quantity".into(), q.to_string())],
        root: limit(sort(aggregated, 2), 100),
    }
}

/// Q19 — discounted revenue: disjunctive brand/container/quantity branches
/// (modeled as their union).
fn t19(rng: &mut StdRng) -> Query {
    let q1 = rng.gen_range(1..=10i64);
    let brands: Vec<Scalar> = (0..3)
        .map(|_| Scalar::Cat(rng.gen_range(0..dicts::N_BRANDS)))
        .collect();
    let containers: Vec<Scalar> = (0..12)
        .map(|_| Scalar::Cat(rng.gen_range(0..dicts::N_CONTAINERS)))
        .collect();
    let lineitem = RelExpr::scan_where(
        Lineitem,
        vec![
            Predicate::InSet {
                col: col(Lineitem, "l_shipmode"),
                values: vec![Scalar::Cat(0), Scalar::Cat(1)], // REG AIR / AIR
            },
            cmp(
                col(Lineitem, "l_shipinstruct"),
                CmpOp::Eq,
                Scalar::Cat(0), // DELIVER IN PERSON
            ),
            between(
                col(Lineitem, "l_quantity"),
                Scalar::Int(q1),
                Scalar::Int(q1 + 30),
            ),
        ],
    );
    let part = RelExpr::scan_where(
        Part,
        vec![
            Predicate::InSet {
                col: col(Part, "p_brand"),
                values: brands,
            },
            Predicate::InSet {
                col: col(Part, "p_container"),
                values: containers,
            },
            between(col(Part, "p_size"), Scalar::Int(1), Scalar::Int(15)),
        ],
    );
    // Branch-consistency between the three OR arms: roughly 1/3 of the
    // cross product of matching brands × quantity windows qualifies.
    let joined = join_kind(
        JoinKind::Inner,
        lineitem,
        part,
        (col(Lineitem, "l_partkey"), col(Part, "p_partkey")),
        1.0,
        1.0 / 3.0,
    );
    let aggregated = agg(
        joined,
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice"))],
            numeric_ops: 3,
            groups: GroupCount::One,
            having: None,
        },
    );
    Query {
        template: 19,
        params: vec![("quantity1".into(), q1.to_string())],
        root: aggregated,
    }
}

/// Q20 — potential part promotion: nested semi-joins with a correlated SUM
/// SubPlan.
fn t20(sf: f64, rng: &mut StdRng) -> Query {
    let color = rng.gen_range(0..dicts::N_COLORS);
    let nation = rng.gen_range(0..25u32);
    let year = rng.gen_range(1993..=1997);
    let (lo, hi) = year_window(year);
    // partsupp rows whose availqty beats half the part+supplier's shipped
    // quantity in the year (correlated subquery; truth ≈ 0.5).
    let subquery = agg(
        RelExpr::scan_where(
            Lineitem,
            vec![
                cmp(col(Lineitem, "l_partkey"), CmpOp::Eq, Scalar::Int(1)),
                between(col(Lineitem, "l_shipdate"), Scalar::Date(lo), Scalar::Date(hi)),
            ],
        ),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Sum(col(Lineitem, "l_quantity"))],
            numeric_ops: 1,
            groups: GroupCount::One,
            having: None,
        },
    );
    let ps_filtered = RelExpr::ScalarSubqueryFilter {
        input: Box::new(RelExpr::scan(Partsupp)),
        subquery: Box::new(subquery),
        truth_sel: 0.5,
        correlated: true,
    };
    let ps_color = join_kind(
        JoinKind::Semi,
        ps_filtered,
        RelExpr::scan_where(
            Part,
            vec![Predicate::NameLike {
                col: col(Part, "p_name"),
                color,
            }],
        ),
        (col(Partsupp, "ps_partkey"), col(Part, "p_partkey")),
        p_name_contains_color(color),
        1.0,
    );
    // Fraction of suppliers with ≥ 1 qualifying partsupp row.
    let rows_per_supplier = 80.0 * sf.max(1e-6) * p_name_contains_color(color) * 0.5;
    let supplier_fraction = 1.0 - (-rows_per_supplier).exp();
    let suppliers = join_kind(
        JoinKind::Semi,
        RelExpr::scan(Supplier),
        ps_color,
        (col(Supplier, "s_suppkey"), col(Partsupp, "ps_suppkey")),
        supplier_fraction,
        1.0,
    );
    let with_nation = RelExpr::inner_join(
        suppliers,
        RelExpr::scan_where(
            Nation,
            vec![cmp(col(Nation, "n_name"), CmpOp::Eq, Scalar::Cat(nation))],
        ),
        (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
    );
    Query {
        template: 20,
        params: vec![
            ("color".into(), color.to_string()),
            ("nation".into(), dicts::NATIONS[nation as usize].into()),
            ("year".into(), year.to_string()),
        ],
        root: sort(with_nation, 1),
    }
}

/// Q21 — suppliers who kept orders waiting: triple self-join of LINEITEM
/// with EXISTS and NOT EXISTS arms.
fn t21(rng: &mut StdRng) -> Query {
    let nation = rng.gen_range(0..25u32);
    let p_late = p_commit_before_receipt();
    let sl = RelExpr::inner_join(
        RelExpr::scan(Supplier),
        RelExpr::scan_where(
            Lineitem,
            vec![Predicate::ColCmp {
                left: col(Lineitem, "l_commitdate"),
                op: CmpOp::Lt,
                right: col(Lineitem, "l_receiptdate"),
            }],
        ),
        (col(Supplier, "s_suppkey"), col(Lineitem, "l_suppkey")),
    );
    let slo = RelExpr::inner_join(
        sl,
        RelExpr::scan_where(
            Orders,
            vec![cmp(
                col(Orders, "o_orderstatus"),
                CmpOp::Eq,
                Scalar::Cat(0), // "F"
            )],
        ),
        (col(Lineitem, "l_orderkey"), col(Orders, "o_orderkey")),
    );
    let slon = RelExpr::inner_join(
        slo,
        RelExpr::scan_where(
            Nation,
            vec![cmp(col(Nation, "n_name"), CmpOp::Eq, Scalar::Cat(nation))],
        ),
        (col(Supplier, "s_nationkey"), col(Nation, "n_nationkey")),
    );
    // PostgreSQL 8.4 executes Q21's EXISTS / NOT EXISTS arms as per-row
    // SubPlans probing LINEITEM by order key — which is why the template
    // never finished within the hour at 10 GB. EXISTS (another line of the
    // same order from a different supplier): P(order has ≥ 2 lines) ≈ 6/7.
    let per_order_probe = || {
        agg(
            RelExpr::scan_where(
                Lineitem,
                vec![cmp(col(Lineitem, "l_orderkey"), CmpOp::Eq, Scalar::Int(1))],
            ),
            AggregateSpec {
                group_by: vec![],
                aggs: vec![AggFunc::Count],
                numeric_ops: 1,
                groups: GroupCount::One,
                having: None,
            },
        )
    };
    let exists_other = RelExpr::ScalarSubqueryFilter {
        input: Box::new(slon),
        subquery: Box::new(per_order_probe()),
        truth_sel: 6.0 / 7.0,
        correlated: true,
    };
    // NOT EXISTS another *late* line from a different supplier: keep if no
    // other line of the order is late, ≈ E[(1 − p_late)^(k−1)].
    let keep = {
        let (klo, khi) = LINES_PER_ORDER;
        let nk = (khi - klo + 1) as f64;
        (klo..=khi)
            .map(|k| (1.0 - p_late).powi(k - 1) / nk)
            .sum::<f64>()
    };
    let not_exists_late = RelExpr::ScalarSubqueryFilter {
        input: Box::new(exists_other),
        subquery: Box::new(per_order_probe()),
        truth_sel: keep,
        correlated: true,
    };
    let aggregated = agg(
        not_exists_late,
        AggregateSpec {
            group_by: vec![col(Supplier, "s_name")],
            aggs: vec![AggFunc::Count],
            numeric_ops: 1,
            groups: GroupCount::DistinctOf(col(Supplier, "s_suppkey")),
            having: None,
        },
    );
    Query {
        template: 21,
        params: vec![("nation".into(), dicts::NATIONS[nation as usize].into())],
        root: limit(sort(aggregated, 2), 100),
    }
}

/// Q22 — global sales opportunity: InitPlan average + anti-join on orders.
fn t22(rng: &mut StdRng) -> Query {
    // Seven distinct country codes, modeled on c_nationkey.
    let mut codes = Vec::new();
    while codes.len() < 7 {
        let c = rng.gen_range(1..=25i64);
        if !codes.contains(&c) {
            codes.push(c);
        }
    }
    let customers = RelExpr::scan_where(
        Customer,
        vec![Predicate::InSet {
            col: col(Customer, "c_nationkey"),
            values: codes.iter().map(|&c| Scalar::Int(c)).collect(),
        }],
    );
    let avg_bal = agg(
        RelExpr::scan_where(
            Customer,
            vec![cmp(
                col(Customer, "c_acctbal"),
                CmpOp::Gt,
                Scalar::Float(0.0),
            )],
        ),
        AggregateSpec {
            group_by: vec![],
            aggs: vec![AggFunc::Avg(col(Customer, "c_acctbal"))],
            numeric_ops: 1,
            groups: GroupCount::One,
            having: None,
        },
    );
    // P(bal > mean of positives ≈ 5000) on U[-999.99, 9999.99].
    let rich = RelExpr::ScalarSubqueryFilter {
        input: Box::new(customers),
        subquery: Box::new(avg_bal),
        truth_sel: (9999.99 - 5000.0) / 10999.98,
        correlated: false,
    };
    // Customers with no orders: every customer key is drawn uniformly for
    // ~10 orders each, so the no-order fraction is e^{-10}.
    let no_orders = join_kind(
        JoinKind::Anti,
        rich,
        RelExpr::scan(Orders),
        (col(Customer, "c_custkey"), col(Orders, "o_custkey")),
        (-10.0f64).exp(),
        1.0,
    );
    let aggregated = agg(
        no_orders,
        AggregateSpec {
            group_by: vec![col(Customer, "c_nationkey")],
            aggs: vec![AggFunc::Count, AggFunc::Sum(col(Customer, "c_acctbal"))],
            numeric_ops: 2,
            groups: GroupCount::Fixed(7.0),
            having: None,
        },
    );
    Query {
        template: 22,
        params: vec![(
            "codes".into(),
            codes
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )],
        root: sort(aggregated, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn all_templates_instantiate() {
        let mut r = rng();
        for t in ALL_TEMPLATES {
            let q = instantiate(t, 1.0, &mut r).query();
            assert_eq!(q.template, t);
            assert!(!q.params.is_empty() || t == 1, "template {t} has params");
            assert!(!q.root.tables().is_empty(), "template {t} scans tables");
        }
    }

    #[test]
    fn subquery_templates_are_flagged() {
        let mut r = rng();
        let with_subquery: Vec<u8> = ALL_TEMPLATES
            .iter()
            .copied()
            .filter(|&t| instantiate(t, 1.0, &mut r).query().root.has_subquery())
            .collect();
        assert_eq!(with_subquery, vec![2, 11, 15, 17, 20, 21, 22]);
        // The paper's operator-level subset must be subquery-free.
        for t in FOURTEEN {
            let q = instantiate(t, 1.0, &mut rng()).query();
            assert!(!q.root.has_subquery(), "template {t} in FOURTEEN");
        }
    }

    #[test]
    fn template_subsets_are_consistent() {
        for t in FOURTEEN {
            assert!(EIGHTEEN.contains(&t));
        }
        for t in TWELVE {
            assert!(FOURTEEN.contains(&t));
        }
        assert!(!FOURTEEN.contains(&2));
        assert!(!EIGHTEEN.contains(&17));
        assert!(!TWELVE.contains(&13) && !TWELVE.contains(&18));
    }

    #[test]
    fn t18_having_truth_is_tiny() {
        let p = p_order_quantity_sum_gt(314.0);
        // Only 7-line orders can top 314; the fraction is ~1e-5..1e-4 of
        // orders — matching the paper's 84 of 15M distinct keys story.
        assert!(p > 1e-7 && p < 1e-3, "p = {p}");
    }

    #[test]
    fn t18_having_truth_monotone_in_threshold() {
        assert!(p_order_quantity_sum_gt(312.0) >= p_order_quantity_sum_gt(315.0));
        assert!(p_order_quantity_sum_gt(0.0) > 0.99);
        assert_eq!(p_order_quantity_sum_gt(350.0), 0.0);
    }

    #[test]
    fn parameters_vary_across_instances() {
        let mut r = rng();
        let a = instantiate(6, 1.0, &mut r).query();
        let b = instantiate(6, 1.0, &mut r).query();
        let c = instantiate(6, 1.0, &mut r).query();
        let all_same = a.params == b.params && b.params == c.params;
        assert!(!all_same, "template 6 parameters never vary");
    }

    #[test]
    fn min_fraction_behaves() {
        // Sole member: always the minimum.
        assert!((min_fraction(1, 0.5) - 1.0).abs() < 1e-12);
        // With more surviving competitors the fraction drops.
        assert!(min_fraction(4, 0.9) < min_fraction(4, 0.1));
        let f = min_fraction(4, 0.2);
        assert!((f - 0.738).abs() < 0.01, "f = {f}");
    }

    #[test]
    fn t3_correction_shrinks_the_join() {
        let mut r = rng();
        let q = instantiate(3, 1.0, &mut r).query();
        // Find the orders ⋈ lineitem join and check its correction < 1.
        let mut found = false;
        q.root.visit(&mut |e| {
            if let RelExpr::Join {
                truth_correction, ..
            } = e
            {
                if *truth_correction < 0.999 {
                    found = true;
                }
            }
        });
        assert!(found, "template 3 must carry a date-correlation correction");
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let a = instantiate(3, 1.0, &mut StdRng::seed_from_u64(5)).query();
        let b = instantiate(3, 1.0, &mut StdRng::seed_from_u64(5)).query();
        assert_eq!(a.params, b.params);
    }

    /// Every template's scans only reference columns of their own table, and
    /// every join connects columns of the two sides' base tables.
    #[test]
    fn predicates_and_joins_are_well_typed() {
        for t in ALL_TEMPLATES {
            let mut rng = StdRng::seed_from_u64(t as u64 * 31);
            for _ in 0..5 {
                let q = instantiate(t, 1.0, &mut rng).query();
                q.root.visit(&mut |e| {
                    if let RelExpr::Scan { table, filters, .. } = e {
                        for f in filters {
                            assert_eq!(
                                f.column().table,
                                *table,
                                "t{t}: filter column from another table"
                            );
                            if let Predicate::ColCmp { left, right, .. } = f {
                                assert_eq!(left.table, right.table, "t{t}: cross-table ColCmp");
                            }
                        }
                    }
                });
            }
        }
    }

    /// Truth overrides and corrections are valid probabilities/multipliers.
    #[test]
    fn truth_knobs_are_sane() {
        for t in ALL_TEMPLATES {
            let mut rng = StdRng::seed_from_u64(t as u64 * 17);
            let q = instantiate(t, 1.0, &mut rng).query();
            q.root.visit(&mut |e| match e {
                RelExpr::Scan {
                    truth_sel_override: Some(s),
                    ..
                } => {
                    assert!((0.0..=1.0).contains(s), "t{t}: override {s}");
                }
                RelExpr::Join {
                    kind,
                    truth_correction,
                    extra_filter_sel,
                    ..
                } => {
                    assert!(*truth_correction >= 0.0, "t{t}");
                    assert!(
                        (0.0..=1.0).contains(extra_filter_sel),
                        "t{t}: extra {extra_filter_sel}"
                    );
                    if matches!(kind, crate::JoinKind::Semi | crate::JoinKind::Anti) {
                        assert!(
                            *truth_correction <= 1.0,
                            "t{t}: semi/anti retains at most all rows"
                        );
                    }
                }
                RelExpr::ScalarSubqueryFilter { truth_sel, .. } => {
                    assert!((0.0..=1.0).contains(truth_sel), "t{t}: {truth_sel}");
                }
                RelExpr::Aggregate { spec, .. } => {
                    if let Some(h) = &spec.having {
                        assert!((0.0..=1.0).contains(&h.truth_fraction), "t{t}");
                    }
                    if let GroupCount::Fixed(f) = spec.groups {
                        assert!(f >= 1.0, "t{t}: fixed groups {f}");
                    }
                }
                _ => {}
            });
        }
    }
}
