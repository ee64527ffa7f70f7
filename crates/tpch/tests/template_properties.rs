//! Property checks over the 22 template definitions: parameter ranges and
//! structural stability. (The checks that need the crate's own walk of a
//! template's expression tree are `templates`' unit tests.)

use rng::StdRng;
use tpch::{instantiate, RelExpr, TableId, ALL_TEMPLATES};

/// The tables an expression scans (with repeats for self-joins), in scan
/// order: a pre-order walk over the public variants.
fn tables(e: &RelExpr) -> Vec<TableId> {
    fn walk(e: &RelExpr, out: &mut Vec<TableId>) {
        match e {
            RelExpr::Scan { table, .. } => out.push(*table),
            RelExpr::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            RelExpr::Aggregate { input, .. }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. } => walk(input, out),
            RelExpr::ScalarSubqueryFilter {
                input, subquery, ..
            } => {
                walk(input, out);
                walk(subquery, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

/// Plan structure (table multiset) is stable across parameterizations of
/// the same template; only parameters vary.
#[test]
fn structure_is_parameter_independent() {
    for t in ALL_TEMPLATES {
        let mut rng = StdRng::seed_from_u64(t as u64);
        let sorted_tables = |q: &tpch::Query| {
            let mut v = tables(&q.root);
            v.sort();
            v
        };
        let first = sorted_tables(&instantiate(t, 1.0, &mut rng).query());
        for _ in 0..6 {
            assert_eq!(
                sorted_tables(&instantiate(t, 1.0, &mut rng).query()),
                first,
                "t{t}"
            );
        }
    }
}

/// The lineitem-heavy templates actually touch LINEITEM; the tiny lookups
/// don't.
#[test]
fn table_footprints_match_the_spec() {
    use tpch::TableId::*;
    let mut rng = StdRng::seed_from_u64(5);
    for (t, must_touch) in [(1u8, Lineitem), (9, Partsupp), (13, Orders), (22, Customer)] {
        let q = instantiate(t, 1.0, &mut rng).query();
        assert!(tables(&q.root).contains(&must_touch), "t{t}");
    }
    // Template 11 never touches lineitem.
    let q11 = instantiate(11, 1.0, &mut rng).query();
    assert!(!tables(&q11.root).contains(&Lineitem));
}

/// Parameters drawn per the spec stay within the spec's windows.
#[test]
fn parameters_stay_in_spec_windows() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..30 {
        let q1 = instantiate(1, 1.0, &mut rng).query();
        let delta: i32 = q1.params[0].1.parse().unwrap();
        assert!((60..=120).contains(&delta));

        let q6 = instantiate(6, 1.0, &mut rng).query();
        let qty: i32 = q6
            .params
            .iter()
            .find(|(k, _)| k == "quantity")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!((24..=25).contains(&qty));

        let q18 = instantiate(18, 1.0, &mut rng).query();
        let q: f64 = q18.params[0].1.parse().unwrap();
        assert!((312.0..=315.0).contains(&q));
    }
}

/// Workload instances of the same template differ in parameters (no
/// degenerate constant workloads) for the parameterized templates.
#[test]
fn instances_vary() {
    for t in [1u8, 3, 4, 5, 6, 8, 10, 12, 14, 19] {
        let w = tpch::Workload::generate(&[t], 12, 1.0, 3);
        let distinct: std::collections::HashSet<String> = w
            .queries
            .iter()
            .map(|q| format!("{:?}", q.query().params))
            .collect();
        assert!(distinct.len() > 1, "t{t}: constant parameters");
    }
}
