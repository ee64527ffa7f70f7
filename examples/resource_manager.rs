//! Workload allocation with QPP — the paper's motivating use case.
//!
//! A resource manager receives a queue of ad-hoc analytical queries and
//! must route them to an *interactive* pool (answer in under a minute) or
//! a *batch* pool, before running anything. Analytical cost estimates
//! order plans but do not predict latency (Section 5.2), so routing on
//! cost misclassifies; routing on learned QPP predictions does far better.
//!
//! The history here is collected under fault injection (aborts,
//! stragglers, corrupted optimizer estimates), so the manager routes on
//! `predict_checked`: degraded predictions are not trusted with the
//! interactive SLA and the query goes to the batch pool instead.
//!
//! ```text
//! cargo run --release --example resource_manager
//! ```

use engine::faults::{DriftPlan, FaultPlan};
use engine::{Catalog, Simulator};
use qpp::{
    CollectionConfig, ExecutedQuery, Method, QppConfig, QppPredictor, QueryDataset,
};
use tpch::Workload;

/// Queries predicted under this latency go to the interactive pool.
const INTERACTIVE_SLA_SECS: f64 = 60.0;

fn main() {
    let sf = 0.1;
    let catalog = Catalog::new(sf, 1);
    let simulator = Simulator::new();

    // Historical workload: what the system has executed before — collected
    // on a flaky cluster, with retries and outlier quarantine.
    let history = Workload::generate(&[1, 3, 5, 6, 10, 12, 14, 19], 12, sf, 1);
    let faults = FaultPlan {
        abort_prob: 0.08,
        straggler_prob: 0.04,
        corrupt_prob: 0.03,
        seed: 42,
        ..FaultPlan::none()
    };
    let (dataset, report) = QueryDataset::execute_drifted(
        &catalog,
        &history,
        &simulator,
        5,
        f64::INFINITY,
        &faults,
        &CollectionConfig::default(),
        &DriftPlan::none(),
    );
    println!(
        "collected history: {}/{} queries ({} retries, {} dropped, {} quarantined)\n",
        report.succeeded,
        report.attempted,
        report.retried,
        report.dropped(),
        report.quarantined
    );
    let refs: Vec<&ExecutedQuery> = dataset.queries.iter().collect();
    let qpp = match QppPredictor::train(&refs, QppConfig::default()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot train the router: {e}");
            std::process::exit(1);
        }
    };

    // Incoming queue: fresh instances.
    let queue = Workload::generate(&[1, 3, 5, 6, 10, 12, 14, 19], 4, sf, 999);
    let incoming = QueryDataset::execute(&catalog, &queue, &simulator, 77, f64::INFINITY);

    // Cost-threshold baseline: calibrate the cost cutoff on history so the
    // same *fraction* of queries routes interactive.
    let mut costs: Vec<f64> = dataset.queries.iter().map(|q| q.plan.est.total_cost).collect();
    costs.sort_by(f64::total_cmp);
    let interactive_frac = dataset
        .queries
        .iter()
        .filter(|q| q.latency() < INTERACTIVE_SLA_SECS)
        .count() as f64
        / dataset.len() as f64;
    let cost_cutoff = costs[(interactive_frac * (costs.len() - 1) as f64) as usize];

    let mut qpp_correct = 0;
    let mut cost_correct = 0;
    let mut degraded_routes = 0;
    println!(
        "routing {} incoming queries (SLA: {}s)\n",
        incoming.len(),
        INTERACTIVE_SLA_SECS
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "template", "actual(s)", "qpp-pred(s)", "cost-est", "qpp", "cost"
    );
    for q in &incoming.queries {
        let actually_interactive = q.latency() < INTERACTIVE_SLA_SECS;
        let pred = qpp.predict_checked(q, Method::PlanLevel);
        // A degraded prediction means the model tiers could not be
        // trusted; the safe routing choice is the batch pool.
        let qpp_route = !pred.degraded && pred.value < INTERACTIVE_SLA_SECS;
        if pred.degraded {
            degraded_routes += 1;
        }
        let cost_route = q.plan.est.total_cost < cost_cutoff;
        if qpp_route == actually_interactive {
            qpp_correct += 1;
        }
        if cost_route == actually_interactive {
            cost_correct += 1;
        }
        println!(
            "{:<10} {:>10.1} {:>12.1} {:>12.0} {:>8} {:>8}",
            format!("t{}", q.template),
            q.latency(),
            pred.value,
            q.plan.est.total_cost,
            mark(qpp_route == actually_interactive),
            mark(cost_route == actually_interactive),
        );
    }
    let n = incoming.len() as f64;
    println!(
        "\nrouting accuracy: QPP {:.0}%  vs cost-threshold {:.0}%  ({} degraded → batch)",
        qpp_correct as f64 / n * 100.0,
        cost_correct as f64 / n * 100.0,
        degraded_routes
    );
}

fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISS"
    }
}
