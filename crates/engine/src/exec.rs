//! A small reference executor over generated data.
//!
//! Executes logical [`RelExpr`] trees directly against a
//! [`GeneratedDb`] (tiny scale factors). It exists to *validate* the
//! analytic truth model — scan selectivities, join cardinalities, group
//! counts, HAVING fractions — against real row counts, and to power the
//! runnable examples. It is row-exact for every construct except
//! [`RelExpr::ScalarSubqueryFilter`], whose comparison column is not part
//! of the IR; there it applies a deterministic pseudo-random filter at the
//! declared truth selectivity (documented, and excluded from validation
//! tests).

use std::collections::HashMap;
use tpch::datagen::{GeneratedDb, TableData};
use tpch::dicts;
use tpch::schema::{ColRef, TableId};
use tpch::spec::{AggFunc, JoinKind, Predicate, RelExpr};

/// Column identity inside an intermediate relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ColKey {
    /// A base-table column carried through the pipeline.
    Col(ColRef),
    /// The i-th aggregate output of the nearest Aggregate below.
    Agg(usize),
}

/// An intermediate relation: equal-length numeric columns.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    columns: Vec<(ColKey, Vec<f64>)>,
    n_rows: usize,
}

impl Relation {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Borrow a column.
    ///
    /// # Panics
    /// Panics if the key is absent.
    pub(crate) fn column(&self, key: ColKey) -> &[f64] {
        self.columns
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("relation has no column {key:?}"))
    }

    /// Whether the relation carries the column.
    pub(crate) fn has_column(&self, key: ColKey) -> bool {
        self.columns.iter().any(|(k, _)| *k == key)
    }

    fn push(&mut self, key: ColKey, data: Vec<f64>) {
        if self.columns.is_empty() {
            self.n_rows = data.len();
        } else {
            assert_eq!(self.n_rows, data.len(), "ragged relation column");
        }
        // First writer wins on collisions (self-joins carry the left copy).
        if !self.has_column(key) {
            self.columns.push((key, data));
        }
    }

    fn select(&self, rows: &[usize]) -> Relation {
        let mut out = Relation::default();
        for (k, v) in &self.columns {
            out.push(*k, rows.iter().map(|&i| v[i]).collect());
        }
        out.n_rows = rows.len();
        out
    }
}

/// Executes a logical expression against generated data.
pub fn execute(expr: &RelExpr, db: &GeneratedDb) -> Relation {
    match expr {
        RelExpr::Scan { table, filters, .. } => scan(*table, filters, db),
        RelExpr::Join {
            kind,
            on,
            left,
            right,
            ..
        } => join(*kind, *on, &execute(left, db), &execute(right, db)),
        RelExpr::Aggregate { input, spec } => aggregate(&execute(input, db), spec),
        RelExpr::Sort { input, keys } => sort(&execute(input, db), *keys),
        RelExpr::Limit { input, count } => {
            let rel = execute(input, db);
            let take: Vec<usize> = (0..rel.n_rows().min(*count as usize)).collect();
            rel.select(&take)
        }
        RelExpr::ScalarSubqueryFilter {
            input, truth_sel, ..
        } => {
            // The IR does not carry the compared column; apply the declared
            // selectivity deterministically (see module docs).
            let rel = execute(input, db);
            let keep: Vec<usize> = (0..rel.n_rows())
                .filter(|&i| pseudo_uniform(i as u64, 0xF117E4) < *truth_sel)
                .collect();
            rel.select(&keep)
        }
    }
}

fn scan(table: TableId, filters: &[Predicate], db: &GeneratedDb) -> Relation {
    let data = db.table(table);
    let keep: Vec<usize> = (0..data.n_rows())
        .filter(|&i| filters.iter().all(|f| eval_predicate(f, data, i)))
        .collect();
    let mut out = Relation::default();
    for name in data.column_names() {
        // Skip generator-internal helper columns (p_name word slots).
        let Some(key) = ColRef::lookup(table, name) else {
            continue;
        };
        let col = data.column(name);
        out.push(
            ColKey::Col(key),
            keep.iter().map(|&i| col.get_f64(i)).collect(),
        );
    }
    out.n_rows = keep.len();
    out
}

fn eval_predicate(p: &Predicate, data: &TableData, i: usize) -> bool {
    match p {
        Predicate::Cmp { col, op, value } => {
            op.eval(data.column(col.name()).get_f64(i), value.as_f64())
        }
        Predicate::Between { col, lo, hi } => {
            let v = data.column(col.name()).get_f64(i);
            v >= lo.as_f64() && v <= hi.as_f64()
        }
        Predicate::InSet { col, values } => {
            let v = data.column(col.name()).get_f64(i);
            values.iter().any(|s| s.as_f64() == v)
        }
        Predicate::ColCmp { left, op, right } => op.eval(
            data.column(left.name()).get_f64(i),
            data.column(right.name()).get_f64(i),
        ),
        Predicate::NameLike { color, .. } => {
            let c = *color as f64;
            let mut words = vec!["p_name"];
            for w in 1..dicts::NAME_WORDS {
                words.push(match w {
                    1 => "p_name_w1",
                    2 => "p_name_w2",
                    3 => "p_name_w3",
                    _ => "p_name_w4",
                });
            }
            words.iter().any(|w| data.column(w).get_f64(i) == c)
        }
        // Synthetic comment matching: the deterministic hash *defines*
        // which rows contain the pattern, consistently across queries.
        Predicate::TextNotLike { col, truth } => {
            pseudo_uniform(i as u64, hash_str(col.name())) < *truth
        }
    }
}

fn join(kind: JoinKind, on: (ColRef, ColRef), left: &Relation, right: &Relation) -> Relation {
    let lkey = left.column(ColKey::Col(on.0)).to_vec();
    let rkey = right.column(ColKey::Col(on.1)).to_vec();
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, v) in rkey.iter().enumerate() {
        index.entry(v.to_bits()).or_default().push(i);
    }
    match kind {
        JoinKind::Inner | JoinKind::LeftOuter => {
            let mut lrows = Vec::new();
            let mut rrows: Vec<Option<usize>> = Vec::new();
            for (i, v) in lkey.iter().enumerate() {
                match index.get(&v.to_bits()) {
                    Some(matches) => {
                        for &j in matches {
                            lrows.push(i);
                            rrows.push(Some(j));
                        }
                    }
                    None if kind == JoinKind::LeftOuter => {
                        lrows.push(i);
                        rrows.push(None);
                    }
                    None => {}
                }
            }
            let mut out = left.select(&lrows);
            for (k, v) in &right.columns {
                let data: Vec<f64> = rrows
                    .iter()
                    .map(|r| r.map(|j| v[j]).unwrap_or(f64::NAN))
                    .collect();
                out.push(*k, data);
            }
            out
        }
        JoinKind::Semi | JoinKind::Anti => {
            let want_match = kind == JoinKind::Semi;
            let keep: Vec<usize> = lkey
                .iter()
                .enumerate()
                .filter(|(_, v)| index.contains_key(&v.to_bits()) == want_match)
                .map(|(i, _)| i)
                .collect();
            left.select(&keep)
        }
    }
}

fn aggregate(input: &Relation, spec: &tpch::spec::AggregateSpec) -> Relation {
    // Group rows by the tuple of group-by values.
    let group_cols: Vec<&[f64]> = spec
        .group_by
        .iter()
        .map(|c| input.column(ColKey::Col(*c)))
        .collect();
    let mut groups: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
    for i in 0..input.n_rows() {
        let key: Vec<u64> = group_cols.iter().map(|c| c[i].to_bits()).collect();
        groups.entry(key).or_default().push(i);
    }
    if input.n_rows() == 0 && spec.group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    // Deterministic output order for reproducibility.
    let mut entries: Vec<(Vec<u64>, Vec<usize>)> = groups.into_iter().collect();
    entries.sort();

    let mut out_cols: Vec<Vec<f64>> = vec![Vec::new(); spec.group_by.len() + spec.aggs.len()];
    let mut kept = 0usize;
    for (key, members) in &entries {
        let agg_values: Vec<f64> = spec
            .aggs
            .iter()
            .map(|a| eval_agg(a, input, members))
            .collect();
        if let Some(h) = &spec.having {
            if !h.op.eval(agg_values[0], h.value) {
                continue;
            }
        }
        for (j, bits) in key.iter().enumerate() {
            out_cols[j].push(f64::from_bits(*bits));
        }
        for (j, v) in agg_values.iter().enumerate() {
            out_cols[spec.group_by.len() + j].push(*v);
        }
        kept += 1;
    }
    let mut out = Relation::default();
    for (j, c) in spec.group_by.iter().enumerate() {
        out.push(ColKey::Col(*c), std::mem::take(&mut out_cols[j]));
    }
    for j in 0..spec.aggs.len() {
        out.push(
            ColKey::Agg(j),
            std::mem::take(&mut out_cols[spec.group_by.len() + j]),
        );
    }
    out.n_rows = kept;
    out
}

fn eval_agg(agg: &AggFunc, input: &Relation, rows: &[usize]) -> f64 {
    let col = |c: &ColRef| input.column(ColKey::Col(*c));
    match agg {
        AggFunc::Count => rows.len() as f64,
        AggFunc::Sum(c) => rows.iter().map(|&i| col(c)[i]).sum(),
        AggFunc::Avg(c) => {
            if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|&i| col(c)[i]).sum::<f64>() / rows.len() as f64
            }
        }
        AggFunc::Min(c) => rows
            .iter()
            .map(|&i| col(c)[i])
            .fold(f64::INFINITY, f64::min),
        AggFunc::Max(c) => rows
            .iter()
            .map(|&i| col(c)[i])
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

fn sort(input: &Relation, keys: u32) -> Relation {
    let n_keys = (keys as usize).min(input.columns.len());
    let mut order: Vec<usize> = (0..input.n_rows()).collect();
    order.sort_by(|&a, &b| {
        for (_, col) in input.columns.iter().take(n_keys) {
            match col[a].partial_cmp(&col[b]) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(o) => return o,
            }
        }
        std::cmp::Ordering::Equal
    });
    input.select(&order)
}

/// Deterministic pseudo-uniform value in [0, 1) from (row, salt).
fn pseudo_uniform(i: u64, salt: u64) -> f64 {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % (1 << 52)) as f64 / (1u64 << 52) as f64
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(1469598103934665603u64, |h, b| {
        (h ^ b as u64).wrapping_mul(1099511628211)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::schema::col;
    use tpch::spec::{AggregateSpec, GroupCount};
    use tpch::types::{date, CmpOp, Scalar};
    use TableId::*;

    fn db() -> GeneratedDb {
        GeneratedDb::generate(0.01, 42)
    }

    #[test]
    fn scan_filter_matches_truth_selectivity() {
        let db = db();
        let expr = RelExpr::scan_where(
            Lineitem,
            vec![Predicate::Cmp {
                col: col(Lineitem, "l_quantity"),
                op: CmpOp::Lt,
                value: Scalar::Int(25),
            }],
        );
        let rel = execute(&expr, &db);
        let total = db.table(Lineitem).n_rows() as f64;
        let frac = rel.n_rows() as f64 / total;
        assert!((frac - 24.0 / 50.0).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn fk_join_count_equals_fact_side() {
        let db = db();
        let expr = RelExpr::inner_join(
            RelExpr::scan(Orders),
            RelExpr::scan(Lineitem),
            (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
        );
        let rel = execute(&expr, &db);
        assert_eq!(rel.n_rows(), db.table(Lineitem).n_rows());
        // Both sides' columns are present.
        assert!(rel.has_column(ColKey::Col(col(Orders, "o_orderdate"))));
        assert!(rel.has_column(ColKey::Col(col(Lineitem, "l_shipdate"))));
    }

    #[test]
    fn semi_and_anti_partition_the_left() {
        let db = db();
        let filtered_lines = RelExpr::scan_where(
            Lineitem,
            vec![Predicate::ColCmp {
                left: col(Lineitem, "l_commitdate"),
                op: CmpOp::Lt,
                right: col(Lineitem, "l_receiptdate"),
            }],
        );
        let semi = execute(
            &RelExpr::Join {
                kind: JoinKind::Semi,
                on: (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
                left: Box::new(RelExpr::scan(Orders)),
                right: Box::new(filtered_lines.clone()),
                truth_correction: 1.0,
                extra_filter_sel: 1.0,
            },
            &db,
        );
        let anti = execute(
            &RelExpr::Join {
                kind: JoinKind::Anti,
                on: (col(Orders, "o_orderkey"), col(Lineitem, "l_orderkey")),
                left: Box::new(RelExpr::scan(Orders)),
                right: Box::new(filtered_lines),
                truth_correction: 1.0,
                extra_filter_sel: 1.0,
            },
            &db,
        );
        assert_eq!(semi.n_rows() + anti.n_rows(), db.table(Orders).n_rows());
        // Semi fraction should match the analytic EXISTS probability.
        let frac = semi.n_rows() as f64 / db.table(Orders).n_rows() as f64;
        let analytic = tpch::distributions::p_order_has_late_line();
        assert!((frac - analytic).abs() < 0.02, "frac {frac} vs {analytic}");
    }

    #[test]
    fn group_by_and_having_are_exact() {
        let db = db();
        let expr = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan(Lineitem)),
            spec: AggregateSpec {
                group_by: vec![col(Lineitem, "l_orderkey")],
                aggs: vec![AggFunc::Sum(col(Lineitem, "l_quantity"))],
                numeric_ops: 1,
                groups: GroupCount::DistinctOf(col(Lineitem, "l_orderkey")),
                having: Some(tpch::spec::Having {
                    op: CmpOp::Gt,
                    value: 200.0,
                    truth_fraction: 0.0,
                }),
            },
        };
        let rel = execute(&expr, &db);
        let analytic = tpch::templates::p_order_quantity_sum_gt(200.0)
            * db.table(Orders).n_rows() as f64;
        let observed = rel.n_rows() as f64;
        assert!(
            (observed - analytic).abs() < analytic * 0.25 + 10.0,
            "observed {observed}, analytic {analytic}"
        );
    }

    #[test]
    fn ungrouped_aggregate_yields_one_row() {
        let db = db();
        let expr = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan_where(
                Lineitem,
                vec![Predicate::Between {
                    col: col(Lineitem, "l_shipdate"),
                    lo: Scalar::Date(date(1994, 1, 1)),
                    hi: Scalar::Date(date(1994, 12, 31)),
                }],
            )),
            spec: AggregateSpec {
                group_by: vec![],
                aggs: vec![AggFunc::Sum(col(Lineitem, "l_extendedprice")), AggFunc::Count],
                numeric_ops: 2,
                groups: GroupCount::One,
                having: None,
            },
        };
        let rel = execute(&expr, &db);
        assert_eq!(rel.n_rows(), 1);
        assert!(rel.column(ColKey::Agg(0))[0] > 0.0);
        assert!(rel.column(ColKey::Agg(1))[0] > 0.0);
    }

    #[test]
    fn sort_orders_and_limit_truncates() {
        let db = db();
        let expr = RelExpr::Limit {
            input: Box::new(RelExpr::Sort {
                input: Box::new(RelExpr::scan(Customer)),
                keys: 1,
            }),
            count: 5,
        };
        let rel = execute(&expr, &db);
        assert_eq!(rel.n_rows(), 5);
        let keys = rel.column(ColKey::Col(col(Customer, "c_custkey")));
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn name_like_matches_weighted_color_probability() {
        let db = db();
        let color = 0u32; // the most popular color
        let expr = RelExpr::scan_where(
            Part,
            vec![Predicate::NameLike {
                col: col(Part, "p_name"),
                color,
            }],
        );
        let rel = execute(&expr, &db);
        let frac = rel.n_rows() as f64 / db.table(Part).n_rows() as f64;
        let analytic = tpch::distributions::p_name_contains_color(color);
        // 2 000 parts → sampling σ ≈ 0.011; allow ~3.5σ.
        assert!((frac - analytic).abs() < 0.04, "frac {frac} vs {analytic}");
    }
}
