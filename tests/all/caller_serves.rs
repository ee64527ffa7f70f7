//! A blocking prediction on an idle server is served by the thread that
//! asks (DESIGN.md §10, "The caller serves when it can"):
//!
//! 1. on an idle server, `TenantServer::predict` runs on the caller, and
//!    its answers are bit-identical to `predict_checked`;
//! 2. a `predict` that finds a request queued is queued behind it and
//!    waits its weighted-fair turn; `submit` never serves in place;
//! 3. a caller serving in place counts as in service: `shutdown` waits
//!    for it before the final ledger read, and after `shutdown` nothing
//!    is served in place;
//! 4. the front door's connection workers start as connections arrive;
//! 5. the ledgers reconcile exactly under mixed caller and queued traffic.

use crate::support::{arcs, log, registry_over, spec, TempDir, METHODS};
use qpp::{Method, QppError};
use serve::{Client, NetConfig, NetServer, Request, TenantServeConfig, TenantServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn one_worker(stall: Duration) -> TenantServeConfig {
    TenantServeConfig {
        workers: Some(1),
        max_batch: 1,
        worker_stall: stall,
        ..TenantServeConfig::default()
    }
}

#[test]
fn an_idle_server_serves_predict_on_the_caller_bit_for_bit() {
    let (ds, dir) = (log(6), TempDir::new("caller-idle"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let direct = registry.current();
    let server = TenantServer::start(vec![spec("t", &registry)], one_worker(Duration::ZERO));
    let mut asked = 0u64;
    for q in &queries {
        for method in METHODS {
            let got = server
                .predict("t", Arc::clone(q), method, None)
                .expect("served");
            let want = direct.predict_checked(q, method);
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(got.method_used, want.method_used);
            assert_eq!(got.degraded, want.degraded);
            asked += 1;
        }
    }
    // A budget that has run out is refused in place, as a worker would.
    match server.predict(
        "t",
        Arc::clone(&queries[0]),
        METHODS[0],
        Some(Duration::ZERO),
    ) {
        Err(QppError::DeadlineExceeded { budget_secs }) => assert_eq!(budget_secs, 0.0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = server.stats("t").unwrap();
    assert_eq!(stats.submitted, asked + 1);
    assert_eq!(stats.served, asked);
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.caller_batches, asked + 1, "{stats:?}");
    assert_eq!(stats.batches, stats.caller_batches, "no worker served");
    assert_eq!(stats.largest_batch, 1);

    // After shutdown nothing is served in place: the request is refused
    // and the ledger still balances.
    assert!(server.shutdown().reconciles());
    match server.predict("t", Arc::clone(&queries[0]), METHODS[0], None) {
        Err(QppError::Internal(msg)) => assert_eq!(msg, "tenant server is shutting down"),
        other => panic!("expected a shutdown refusal, got {other:?}"),
    }
    let after = server.stats("t").unwrap();
    assert_eq!(after.caller_batches, stats.caller_batches);
    assert_eq!(after.shed_shutdown, 1);
    assert!(server.shutdown().reconciles());
}

#[test]
fn a_predict_behind_a_queued_request_waits_its_wfq_turn() {
    let (ds, dir) = (log(6), TempDir::new("caller-behind"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let stall = Duration::from_millis(200);
    let server = TenantServer::start(vec![spec("t", &registry)], one_worker(stall));
    let submit = || {
        server
            .submit("t", Arc::clone(&queries[0]), Method::PlanLevel, None)
            .expect("admitted")
    };
    // The one worker pops the first request and stalls on it; the second
    // waits in the lane behind it.
    let first = submit();
    while server.stats("t").unwrap().batches == 0 {
        std::thread::yield_now();
    }
    let second = submit();
    let (second_done, third_done) = std::thread::scope(|scope| {
        let third = scope.spawn(|| {
            let got = server
                .predict("t", Arc::clone(&queries[1]), Method::PlanLevel, None)
                .expect("served in its turn");
            (got, Instant::now())
        });
        first.wait().expect("first served");
        second.wait().expect("second served");
        let second_done = Instant::now();
        let (got, third_done) = third.join().expect("predict thread");
        let want = registry
            .current()
            .predict_checked(&queries[1], Method::PlanLevel);
        assert_eq!(got.value.to_bits(), want.value.to_bits());
        (second_done, third_done)
    });
    // The queued predict was served after the request ahead of it, by the
    // worker, one stall later.
    assert!(third_done > second_done);
    let stats = server.stats("t").unwrap();
    assert_eq!(stats.caller_batches, 0, "{stats:?}");
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.stalls_injected, 3);
    assert_eq!(stats.served, 3);
}

#[test]
fn shutdown_waits_for_a_caller_serving_in_place() {
    let (ds, dir) = (log(6), TempDir::new("caller-shutdown"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let server = TenantServer::start(
        vec![spec("t", &registry)],
        one_worker(Duration::from_millis(200)),
    );
    let report = std::thread::scope(|scope| {
        let caller = scope.spawn(|| server.predict("t", Arc::clone(&queries[0]), METHODS[0], None));
        // The caller's batch is recorded before its stall starts.
        while server.stats("t").unwrap().caller_batches == 0 {
            std::thread::yield_now();
        }
        let report = server.shutdown();
        caller.join().unwrap().expect("served in place");
        report
    });
    let (name, stats) = &report.tenants[0];
    assert_eq!(name, "t");
    assert_eq!(stats.caller_batches, 1);
    assert_eq!(stats.served, 1, "the final ledger waited for the caller");
    assert!(report.reconciles());
}

#[test]
fn a_door_serving_one_client_starts_one_connection_worker() {
    let (ds, dir) = (log(6), TempDir::new("caller-door"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let server = Arc::new(TenantServer::start(
        vec![spec("t", &registry)],
        TenantServeConfig::default(),
    ));
    let mut net = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&server),
        NetConfig {
            max_connections: 8,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    assert_eq!(
        net.stats().workers_started,
        0,
        "bind starts only the acceptor"
    );
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let direct = registry.current();
    for (i, q) in queries.iter().enumerate() {
        let method = METHODS[i % METHODS.len()];
        let request = Request {
            id: i as u64,
            tenant: "t".to_string(),
            method,
            deadline_micros: None,
            query: (**q).clone(),
        };
        let got = client.request(request).expect("transport").expect("served");
        assert_eq!(
            got.value.to_bits(),
            direct.predict_checked(q, method).value.to_bits()
        );
    }
    drop(client);
    let ledger = net.shutdown();
    assert!(ledger.reconciles(), "{ledger:?}");
    assert_eq!(ledger.served, queries.len() as u64);
    assert_eq!(ledger.workers_started, 1, "{ledger:?}");
    // One connection on an idle server: its worker served every request.
    let stats = server.stats("t").unwrap();
    assert_eq!(stats.caller_batches, queries.len() as u64, "{stats:?}");
    assert!(server.shutdown().reconciles());
}

#[test]
fn ledgers_reconcile_under_mixed_caller_and_queued_traffic() {
    let (ds, dirs) = (
        log(6),
        [
            TempDir::new("caller-mixed-a"),
            TempDir::new("caller-mixed-b"),
        ],
    );
    let (registries, queries) = (
        dirs.each_ref().map(|dir| registry_over(&ds, dir)),
        arcs(&ds),
    );
    for threads in [1usize, 8] {
        let server = TenantServer::start(
            vec![spec("a", &registries[0]), spec("b", &registries[1])],
            TenantServeConfig {
                workers: Some(threads),
                ..TenantServeConfig::default()
            },
        );
        // Alone on an idle server, a predict is served in place.
        server
            .predict("a", Arc::clone(&queries[0]), METHODS[0], None)
            .expect("served");
        let per_thread = 60usize;
        std::thread::scope(|scope| {
            for t in 0..threads.max(2) {
                let (server, queries) = (&server, &queries);
                scope.spawn(move || {
                    let tenant = ["a", "b"][t % 2];
                    for i in 0..per_thread {
                        let q = Arc::clone(&queries[(t * per_thread + i) % queries.len()]);
                        let method = METHODS[i % METHODS.len()];
                        let answer = if i % 3 == 0 {
                            server
                                .submit(tenant, q, method, None)
                                .and_then(|p| p.wait())
                        } else {
                            server.predict(tenant, q, method, None)
                        };
                        answer.expect("nothing is shed under the default budget");
                    }
                });
            }
        });
        let report = server.shutdown();
        assert!(report.reconciles());
        let mut caller_batches = 0;
        for (name, stats) in &report.tenants {
            assert_eq!(
                stats.served, stats.submitted,
                "{name} at {threads}: {stats:?}"
            );
            assert_eq!(stats.batched_jobs, stats.served, "{name} at {threads}");
            assert!(stats.caller_batches <= stats.batches);
            caller_batches += stats.caller_batches;
        }
        assert!(caller_batches >= 1, "at {threads} threads");
    }
}
