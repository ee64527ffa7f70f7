//! The CPU cost of plan-level selection: the minimum thread CPU time of
//! Figure 6's plan-level cross-validation (18 templates × 55 instances,
//! 5 stratified folds, ε-SVR forward selection in every fold) at 10 GB
//! and at 1 GB, on one thread, over a few repetitions.
//!
//! ```text
//! cargo run --release --offline -p qpp-bench --example plan_cv_cpu
//! ```
//!
//! The dataset is built once per scale and outside the measurement. Each
//! repetition reads the calling thread's on-CPU nanoseconds from
//! `/proc/thread-self/schedstat` (first field; it advances in scheduler
//! ticks, a few ms) before and after one cross-validation, with `ml::par`
//! pinned to one thread so all of the work runs on the calling thread.
//! The minimum over repetitions is the number to compare between builds:
//! alternate ten processes of each, and the CV error printed beside it
//! shows both ran the same computation.

use ml::cv::stratified_kfold;
use ml::mean_relative_error;
use qpp::{PlanLevelModel, PlanModelConfig};
use qpp_bench::build_dataset_sized;

/// Repetitions per scale; the minimum is reported.
const REPS: usize = 3;

/// Figure 6's instances per template, folds and plan-level fold seed.
const PER_TEMPLATE: usize = 55;
const FOLDS: usize = 5;
const FOLD_SEED: u64 = 42;

/// On-CPU nanoseconds of the calling thread so far.
fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("reads /proc/thread-self/schedstat (Linux only)");
    stat.split_whitespace().next().and_then(|ns| ns.parse().ok()).expect("schedstat's first field")
}

/// Out-of-fold mean relative error of the default plan-level model.
fn plan_level_cv(ds: &qpp::QueryDataset) -> f64 {
    let folds = stratified_kfold(&ds.strata(), FOLDS, FOLD_SEED);
    let mut actual = vec![0.0; ds.len()];
    let mut predicted = vec![0.0; ds.len()];
    for fold in &folds {
        let model = PlanLevelModel::train(&ds.subset(&fold.train), &PlanModelConfig::default())
            .expect("plan-level training");
        for &i in &fold.test {
            actual[i] = ds.queries[i].latency();
            predicted[i] = model.predict(&ds.queries[i]);
        }
    }
    mean_relative_error(&actual, &predicted)
}

fn main() {
    ml::par::set_threads(1);
    for (label, sf) in [("10gb", 10.0), ("1gb", 1.0)] {
        let ds = build_dataset_sized(sf, &tpch::EIGHTEEN, PER_TEMPLATE, 0);
        let mut best = u64::MAX;
        let mut error = f64::NAN;
        for _ in 0..REPS {
            let start = thread_cpu_ns();
            error = plan_level_cv(&ds);
            best = best.min(thread_cpu_ns() - start);
        }
        println!("plan_cv/{label}/min_cpu_ms {:.1}", best as f64 / 1e6);
        println!("plan_cv/{label}/mre {error:.6}");
    }
}
