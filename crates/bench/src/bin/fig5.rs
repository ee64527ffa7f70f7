//! Figure 5 / Section 5.2 — prediction with optimizer cost models.
//!
//! Fits a linear regression from the optimizer's total-cost estimate to
//! query latency (the analytical-cost baseline) and reports the paper's
//! headline numbers: min / mean / max relative error and the predictive
//! risk footnote, plus the cost-vs-latency scatter.

use ml::metrics::{mean_relative_error, predictive_risk, relative_error};
use ml::{Dataset, Learner, LearnerKind};
use qpp_bench::report::print_xy;
use qpp_bench::{build_dataset_sized, PER_TEMPLATE};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let per_template = args
        .iter()
        .position(|a| a == "--per-template")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(PER_TEMPLATE);

    let ds = build_dataset_sized(10.0, &tpch::EIGHTEEN, per_template);
    let costs: Vec<f64> = ds
        .queries
        .iter()
        .map(|q| q.plan.est.total_cost)
        .collect();
    let latencies = ds.latencies();

    // Least-squares fit of latency on optimizer cost.
    let x = Dataset::from_rows(costs.iter().map(|&c| vec![c]).collect());
    let model = LearnerKind::Linear { ridge: 1e-9 }
        .fit(&x, &latencies)
        .expect("cost regression");
    let preds: Vec<f64> = costs.iter().map(|&c| model.predict(&[c]).max(0.01)).collect();

    let rels: Vec<f64> = latencies
        .iter()
        .zip(&preds)
        .map(|(a, e)| relative_error(*a, *e))
        .collect();
    let min = rels.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rels.iter().cloned().fold(0.0, f64::max);
    let mean = mean_relative_error(&latencies, &preds);
    let risk = predictive_risk(&latencies, &preds);

    println!("== Section 5.2: predicting with the optimizer cost model (10GB) ==");
    println!("queries: {}", ds.len());
    println!("min relative error:  {:>8.0}%   (paper:   30%)", min * 100.0);
    println!("mean relative error: {:>8.0}%   (paper:  120%)", mean * 100.0);
    println!("max relative error:  {:>8.0}%   (paper: 1744%)", max * 100.0);
    println!("predictive risk:     {:>8.2}    (paper: ~0.93)", risk);

    let pairs: Vec<(f64, f64)> = costs.iter().cloned().zip(latencies.iter().cloned()).collect();
    print_xy(
        "Fig 5: optimizer cost vs execution time",
        "cost estimate",
        "latency (s)",
        &pairs,
        40,
    );
    // The paper's anecdote: queries with similar latencies but cost
    // estimates an order of magnitude apart.
    let mut by_latency: Vec<(f64, f64)> = pairs.clone();
    by_latency.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut best: Option<(f64, f64, f64)> = None;
    for w in by_latency.windows(8) {
        let (lo_c, hi_c) = w.iter().fold((f64::INFINITY, 0.0f64), |acc, (c, _)| {
            (acc.0.min(*c), acc.1.max(*c))
        });
        let spread = hi_c / lo_c.max(1e-9);
        let lat = w[0].1;
        if best.map(|(s, _, _)| spread > s).unwrap_or(true) {
            best = Some((spread, lat, w[7].1));
        }
    }
    if let Some((spread, lat_lo, lat_hi)) = best {
        println!(
            "\nqueries with latencies {:.0}-{:.0}s differ by {:.1}x in estimated cost —\n\
             cost orders plans, it does not predict latency",
            lat_lo, lat_hi, spread
        );
    }
}
