//! Tenant workers start when work needs them (DESIGN.md §7, "Threading
//! model"): `TenantServer::start` starts none, a blocking predict on an
//! idle server needs none, and the first queued request starts one. (The
//! front door counts the connection workers it starts itself,
//! `NetStatsSnapshot::workers_started`; `tests/all/caller_serves.rs` reads
//! it.) The threads are counted by name under `/proc/self/task`, so the
//! file holds one `#[test]`: a second test's servers would be counted too.

#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use qpp::Method;
use serve::{TenantServeConfig, TenantServer};
use std::path::Path;
use std::sync::Arc;
use support::{log, registry_over, spec, TempDir};

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
    let (ds, dir) = (log(4), TempDir::new("serve-threads"));
    let registry = registry_over(&ds, &dir);
    let query = Arc::new(ds.queries[0].clone());

    let server = TenantServer::start(
        vec![spec("t", &registry)],
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
