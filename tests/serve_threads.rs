//! Tenant workers start when work needs them (DESIGN.md §7, "Threading
//! model"): `TenantServer::start` starts none, a blocking predict on an
//! idle server needs none, and the first queued request starts one. (The
//! front door counts the connection workers it starts itself,
//! `NetStatsSnapshot::workers_started`; `tests/caller_serves.rs` reads
//! it.) The threads are counted by name under `/proc/self/task`, so the
//! file holds one `#[test]`: a second test's servers would be counted too.

use engine::{Catalog, Simulator};
use qpp::{ExecutedQuery, Method, ModelRegistry, QppConfig, QppPredictor, QueryDataset};
use serve::{TenantBudget, TenantServeConfig, TenantServer, TenantSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tpch::Workload;

/// This process's threads whose name starts with `prefix`.
fn threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("listing the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn tenant_workers_start_on_demand() {
    if !Path::new("/proc/self/task").exists() {
        return;
    }
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 4, 0.1, 7);
    let ds = QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    let dir = TempDir::new();
    let registry =
        ModelRegistry::create(&dir.0, predictor, QppConfig::default()).expect("registry");
    let query = Arc::new(ds.queries[0].clone());

    let server = TenantServer::start(
        vec![TenantSpec {
            name: "t".to_string(),
            registry: Arc::new(registry),
            budget: TenantBudget::default(),
        }],
        TenantServeConfig {
            workers: Some(2),
            ..TenantServeConfig::default()
        },
    );
    assert_eq!(threads("qpp-serve"), 0, "start starts no worker");
    server
        .predict("t", Arc::clone(&query), Method::PlanLevel, None)
        .expect("served in place");
    assert_eq!(
        threads("qpp-serve"),
        0,
        "an idle server's predict needs no worker"
    );
    server
        .submit("t", Arc::clone(&query), Method::PlanLevel, None)
        .expect("admitted")
        .wait()
        .expect("served by a worker");
    assert_eq!(threads("qpp-serve"), 1, "one queued request, one worker");

    assert!(server.shutdown().reconciles());
}

/// The registry's per-process temp directory, removed when the guard
/// drops: after a passing test, and while a failing one unwinds.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!("qpp_serve_threads_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
