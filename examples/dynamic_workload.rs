//! Dynamic workloads: predicting queries whose plan shape was never seen
//! in training (Section 4 of the paper).
//!
//! Trains on a set of templates, then receives queries from a *new*
//! template, and compares plan-level, operator-level and online
//! predictions on them — the paper's Figure 9 question at example scale.
//! The paper finds the plan-level model collapses out of distribution and
//! online building patches the shared sub-plans; at this scale the
//! methods land close together, so the example prints the order it
//! measured instead of asserting one.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use engine::{Catalog, PlanNode, SimConfig, Simulator};
use ml::metrics::mean_relative_error;
use qpp::hybrid::{HybridConfig, HybridModel};
use qpp::online;
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

    // Online building: sub-plan models for the incoming plans' fragments
    // that also occur in the training log, added to the operator-level
    // models per query where they apply.
    let source = op_model.source();
    let base = HybridModel::operator_only(op_model);
    let config = HybridConfig {
        min_frequency: 4,
        ..HybridConfig::default()
    };
    let incoming: Vec<&[PlanNode]> = test.iter().map(|q| &q.plan[..]).collect();
    let built = online::build_models(&base, &train, &config, &incoming);
    let online_preds: Vec<f64> = test
        .iter()
        .map(|q| {
            let views = q.views(source);
            online::extend(&base, &built, &q.plan, &views)
                .predict_plan(&q.plan, &views)
                .latency
        })
        .collect();

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
    let mut errors = [
        ("plan-level", mean_relative_error(&actual, &plan_preds)),
        ("operator-level", mean_relative_error(&actual, &op_preds)),
        ("online", mean_relative_error(&actual, &online_preds)),
    ];
    println!(
        "\nmean relative error: {}",
        errors
            .map(|(name, e)| format!("{name} {:.0}%", e * 100.0))
            .join(", ")
    );
    println!(
        "online building kept {} sub-plan model(s) for the unseen template",
        built.len()
    );
    errors.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "best to worst on this run: {}",
        errors.map(|(name, _)| name).join(" < ")
    );
}
