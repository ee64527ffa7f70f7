//! Model materialization: pre-build models offline, write them to disk,
//! and reload them in a fresh "session" without retraining (Section 1 of
//! the paper).
//!
//! ```text
//! cargo run --release --example materialize_models
//! ```

use engine::{Catalog, Simulator};
use qpp::{ExecutedQuery, MaterializedModels, Method, PlanOrdering, QppConfig, QppPredictor, QueryDataset};
use tpch::Workload;

fn main() {
    let sf = 0.1;
    let catalog = Catalog::new(sf, 1);
    let simulator = Simulator::new();

    // ---- offline session: execute training workload, train, materialize.
    let workload = Workload::generate(&[1, 3, 6, 14], 10, sf, 42);
    let ds = QueryDataset::execute(&catalog, &workload, &simulator, 7, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    let materialized = MaterializedModels::from_predictor(&qpp);
    let snapshot = qpp::encode_snapshot(&materialized);

    let path = std::env::temp_dir().join("qpp_models.qppsnap");
    std::fs::write(&path, &snapshot).expect("write models");
    println!(
        "materialized {} bytes of models to {} ({} sub-plan models)",
        snapshot.len(),
        path.display(),
        materialized.hybrid_plan_models.len()
    );

    // ---- new session: reload and predict immediately; no training data
    // or sample runs needed.
    let reloaded =
        qpp::decode_snapshot(&std::fs::read(&path).expect("read models")).expect("valid snapshot");
    std::fs::remove_file(&path).expect("remove the snapshot file");
    let hybrid = reloaded.hybrid();

    let incoming = Workload::generate(&[3, 14], 3, sf, 4321);
    let queries = QueryDataset::execute(&catalog, &incoming, &simulator, 17, f64::INFINITY);
    println!("\npredictions from reloaded models:");
    for q in &queries.queries {
        println!(
            "template {:>2}: actual {:>7.2}s, plan-level {:>7.2}s, hybrid {:>7.2}s",
            q.template,
            q.latency(),
            reloaded.plan_level.predict(q),
            hybrid.predict(q),
        );
    }

    // The reloaded models agree exactly with the in-memory ones.
    let q = &queries.queries[0];
    let orig = qpp.predict(q, Method::Hybrid(PlanOrdering::ErrorBased));
    let re = hybrid.predict(q);
    assert_eq!(orig.to_bits(), re.to_bits(), "orig {orig} vs reloaded {re}");
    println!("\nreloaded models agree exactly with the originals");
}
