//! Work that is too small to share stays on the thread that holds it
//! (DESIGN.md §7, "Threading model"):
//!
//! - a fit is serial — the fits of a training run side by side, and nothing
//!   below one (the Gram build, the working-set scans, the gradient set-up)
//!   asks `ml::par` for help;
//! - hybrid training walks its training queries on the calling thread: a
//!   walk is a few microseconds, and only the sub-plan fits fan out;
//! - a coalesced serve batch is a handful of requests, a few microseconds
//!   of arithmetic, and waking a parked helper costs more than all of it,
//!   so every inference batch path fans out only from `PAR_BATCH_MIN`
//!   queries up.
//!
//! `ml::par` starts its workers the first time a fan-out wants them and
//! names them `qpp-par-N`. Everything here is collected and trained with
//! one thread allowed, so after a 200-row fit, a hybrid training that
//! judges no candidate and an 8-query batch with four allowed the process
//! must hold no thread of that name. One `#[test]`
//! in the file: the pool and the thread count are process-wide.

use engine::{Catalog, Simulator};
use ml::{Dataset, Svr, SvrParams};
use qpp::{
    ExecutedQuery, HybridConfig, Method, PlanOrdering, PredictionCache, QppConfig, QppPredictor,
    QueryDataset,
};
use std::path::Path;
use std::sync::Arc;
use tpch::Workload;

/// Names of this process's `ml::par` workers, from `/proc/self/task`.
fn pool_threads(tasks: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(tasks)
        .expect("listing the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("qpp-par"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_fit_and_an_eight_query_batch_start_no_pool_worker() {
    let tasks = Path::new("/proc/self/task");
    if !tasks.exists() {
        return;
    }
    let none = Vec::<String>::new();
    ml::par::set_threads(1);
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 8, 0.1, 7);
    let ds = QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let qpp = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    assert_eq!(pool_threads(tasks), none, "the set-up fanned out");

    ml::par::set_threads(4);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            (0..5)
                .map(|k| ((i * (k + 3)) as f64 * 0.37).sin() * 10.0 + i as f64 * 0.01)
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>() * 0.3).collect();
    Svr::new(SvrParams::default())
        .fit(&Dataset::from_rows(rows), &y)
        .expect("fits");
    assert_eq!(pool_threads(tasks), none, "a 200-row RBF fit fanned out");

    // The views and the walk of all 32 queries, and no candidate.
    let walk_only = HybridConfig {
        max_iterations: 0,
        ..HybridConfig::default()
    };
    qpp::train_hybrid(&refs, Arc::clone(&qpp.hybrid.op_model), &walk_only)
        .expect("hybrid training");
    assert_eq!(
        pool_threads(tasks),
        none,
        "hybrid training's walk fanned out"
    );

    let cache = PredictionCache::default();
    let mut served = Vec::new();
    for method in [
        Method::Hybrid(PlanOrdering::ErrorBased),
        Method::OperatorLevel,
        Method::PlanLevel,
    ] {
        served.extend(qpp.predict_checked_batch_cached(&refs[..8], method, &cache));
    }
    assert!(served.iter().all(|p| !p.degraded && p.value.is_finite()));
    assert_eq!(pool_threads(tasks), none, "an 8-query batch fanned out");
}
