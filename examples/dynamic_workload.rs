//! Dynamic workloads: predicting queries whose plan shape was never seen
//! in training (Section 4 of the paper).
//!
//! Trains on a set of templates, then receives queries from a *new*
//! template. The plan-level model collapses (out-of-distribution), the
//! operator-level models generalize, and online model building patches
//! the shared sub-plans for the best accuracy — the paper's Figure 9
//! story at example scale.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use engine::{Catalog, SimConfig, Simulator};
use ml::metrics::mean_relative_error;
use qpp::hybrid::{HybridConfig, HybridModel};
use qpp::online::OnlinePredictor;
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use qpp::{ExecutedQuery, QueryDataset};
use tpch::Workload;

fn main() {
    let sf = 0.1;
    let catalog = Catalog::new(sf, 1);
    // Small DB → keep the absolute jitter proportional.
    let simulator = Simulator::with_config(SimConfig {
        additive_noise_secs: 0.1,
        ..SimConfig::default()
    });

    // Known workload: five templates. Template 10 has never been seen.
    let known = Workload::generate(&[1, 3, 5, 6, 14], 12, sf, 21);
    let train_ds = QueryDataset::execute(&catalog, &known, &simulator, 3, f64::INFINITY);
    let train: Vec<&ExecutedQuery> = train_ds.queries.iter().collect();

    let unseen = Workload::generate(&[10], 8, sf, 2121);
    let test_ds = QueryDataset::execute(&catalog, &unseen, &simulator, 9, f64::INFINITY);
    let test: Vec<&ExecutedQuery> = test_ds.queries.iter().collect();
    let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();

    println!(
        "trained on templates 1,3,5,6,14 ({} queries); predicting unseen template 10\n",
        train.len()
    );

    let plan_model = PlanLevelModel::train(&train, &PlanModelConfig::default()).expect("plan");
    let plan_preds: Vec<f64> = test.iter().map(|q| plan_model.predict(q)).collect();

    let op_model = OpLevelModel::train(&train, &OpModelConfig::default()).expect("op");
    let op_preds: Vec<f64> = test.iter().map(|q| op_model.predict(q)).collect();

    let mut online = OnlinePredictor::new(
        train.clone(),
        HybridModel::operator_only(op_model),
        HybridConfig {
            min_frequency: 4,
            ..HybridConfig::default()
        },
    );
    let online_preds: Vec<f64> = test.iter().map(|q| online.predict_query(q)).collect();

    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "query", "actual(s)", "plan-level", "op-level", "online"
    );
    for (i, q) in test.iter().enumerate() {
        println!(
            "{:<8} {:>10.2} {:>12.2} {:>12.2} {:>12.2}",
            format!("#{i}"),
            q.latency(),
            plan_preds[i],
            op_preds[i],
            online_preds[i]
        );
    }
    println!(
        "\nmean relative error: plan-level {:.0}%, operator-level {:.0}%, online {:.0}%",
        mean_relative_error(&actual, &plan_preds) * 100.0,
        mean_relative_error(&actual, &op_preds) * 100.0,
        mean_relative_error(&actual, &online_preds) * 100.0,
    );
    println!("(plan-level models do not generalize to unseen plan shapes;\n operator-level and online models do)");
}
