//! A tour of the DBMS substrate: plan a TPC-H query, inspect EXPLAIN and
//! EXPLAIN ANALYZE output, compare optimizer estimates against the truth,
//! and validate cardinalities against actually-generated rows with the
//! reference executor.
//!
//! ```text
//! cargo run --release --example explain_analyze [template]
//! ```

use engine::exec::execute;
use engine::{explain_analyze, Catalog, Planner, Simulator};
use rng::StdRng;
use tpch::GeneratedDb;

fn main() {
    let template: u8 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let sf = 0.02;

    let catalog = Catalog::new(sf, 1);
    let planner = Planner::new(&catalog);
    let simulator = Simulator::new();
    let mut rng = StdRng::seed_from_u64(11);
    let spec = tpch::instantiate(template, sf, &mut rng);
    let query = spec.query();

    println!("TPC-H template {template} with parameters:");
    for (k, v) in &query.params {
        println!("  {k} = {v}");
    }

    let planned = planner.plan(&spec);
    let trace = simulator.execute(&planned, sf, 5);
    let (plan, truth) = (&planned.plan, &planned.truth);
    println!("\nEXPLAIN ANALYZE (simulated, SF {sf}):\n");
    println!("{}", explain_analyze(plan, truth, &trace));

    // Ground-truth check against actually generated rows.
    println!("generating a {sf}-scale database to validate cardinalities...");
    let db = GeneratedDb::generate(sf, 7);
    let result = execute(&query.root, &db);
    println!(
        "reference executor result: {} rows (analytic truth at the root: {:.1})",
        result.n_rows(),
        truth[0].rows
    );
    println!(
        "\nestimate vs truth at the root: {:.1} vs {:.1} rows — the models\n\
         must learn around exactly this kind of estimation error",
        plan.est.rows, truth[0].rows
    );
}
