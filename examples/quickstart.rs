//! Quickstart: train the QPP models on a small workload and predict the
//! latency of new queries before "running" them.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use engine::{explain, Catalog, Simulator};
use qpp::{ExecutedQuery, Method, PlanOrdering, QppConfig, QppPredictor, QueryDataset};
use tpch::Workload;

fn main() {
    // A 100 MB-scale TPC-H database and a training workload of five
    // templates, twelve parameterized instances each.
    let sf = 0.1;
    let catalog = Catalog::new(sf, 1);
    let simulator = Simulator::new();
    let train_workload = Workload::generate(&[1, 3, 6, 10, 14], 12, sf, 42);

    println!("executing {} training queries (cold start)...", train_workload.queries.len());
    let dataset = QueryDataset::execute(&catalog, &train_workload, &simulator, 7, f64::INFINITY);

    // Train all model families: plan-level, operator-level, hybrid.
    let refs: Vec<&ExecutedQuery> = dataset.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    println!(
        "trained: plan-level (features: {:?}), operator-level, hybrid ({} sub-plan models)\n",
        qpp.plan_level.selected_feature_names(),
        qpp.hybrid.plan_models.len()
    );

    // Predict fresh, unseen instances of the same templates.
    let test_workload = Workload::generate(&[3, 6, 14], 2, sf, 4242);
    let test = QueryDataset::execute(&catalog, &test_workload, &simulator, 99, f64::INFINITY);

    for q in &test.queries {
        println!("--- template {} ---", q.template);
        println!("{}", explain(&q.plan));
        let plan = qpp.predict(q, Method::PlanLevel);
        let op = qpp.predict(q, Method::OperatorLevel);
        let hybrid = qpp.predict(q, Method::Hybrid(PlanOrdering::ErrorBased));
        println!(
            "actual {:>8.2}s | plan-level {:>8.2}s | operator-level {:>8.2}s | hybrid {:>8.2}s\n",
            q.latency(),
            plan,
            op,
            hybrid
        );
    }
}
