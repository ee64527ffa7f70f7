//! Overload behaviour of the serving front-end.
//!
//! The contracts under test, from DESIGN.md §9:
//! 1. Serving is *value-transparent*: answers are bit-identical to calling
//!    the predictor directly, coalesced or not.
//! 2. Overload is *shed at the door* (typed `Overloaded`), never absorbed
//!    into an unbounded queue.
//! 3. Deadlines *refuse, they do not price*: a request whose budget has
//!    run out when a worker dequeues it is answered `DeadlineExceeded`, and
//!    every other one is served by the tier it asked for.
//! 4. Every submitted request is accounted exactly once:
//!    `submitted == shed + served + deadline_missed`.

#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use qpp::{Method, PlanOrdering, PredictionTier, QppError};
use serve::{PredictionServer, RateLimit, ServeConfig};
use std::sync::Arc;
use std::time::Duration;
use support::{arcs, log, registry_over, TempDir, METHODS};

#[test]
fn served_results_are_bit_identical_to_direct_prediction() {
    let (ds, dir) = (log(6), TempDir::new("serve-bitident"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let direct = registry.current();
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    for method in METHODS {
        // Sequential submits: every request is its own batch.
        for q in &queries {
            let got = server
                .predict(Arc::clone(q), method, None)
                .expect("sequential predict");
            let want = direct.predict_checked(q, method);
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(got.method_used, want.method_used);
        }
        // Flooded submits: one worker coalesces them into batches.
        let pending: Vec<_> = queries
            .iter()
            .map(|q| server.submit(Arc::clone(q), method, None).expect("submit"))
            .collect();
        for (q, p) in queries.iter().zip(pending) {
            let got = p.wait().expect("coalesced predict");
            let want = direct.predict_checked(q, method);
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "coalesced result diverged from direct prediction"
            );
        }
    }
    let snap = server.stats();
    assert_eq!(snap.submitted, 6 * queries.len() as u64);
    assert_eq!(snap.served, snap.submitted, "nothing shed or missed");
    assert_eq!(snap.shed(), 0);
    drop(server);
}

#[test]
fn burst_past_the_rate_limit_sheds_with_typed_overloaded() {
    let (ds, dir) = (log(6), TempDir::new("serve-ratelimit"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let burst = 8.0;
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            rate_limit: Some(RateLimit {
                rate: 10.0,
                burst,
            }),
            ..ServeConfig::default()
        },
    );
    // 64 submits land within a few milliseconds: the bucket can refill at
    // most a fraction of a token, so admissions stay near the burst size.
    let n = 64;
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for i in 0..n {
        let q = Arc::clone(&queries[i % queries.len()]);
        match server.submit(q, Method::PlanLevel, None) {
            Ok(p) => accepted.push(p),
            Err(QppError::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert!(
        accepted.len() as f64 <= burst + 2.0,
        "admissions {} blew past the burst allowance {burst}",
        accepted.len()
    );
    assert!(shed as usize >= n - (burst as usize + 2), "shed {shed}");
    for p in accepted {
        p.wait().expect("admitted requests are served");
    }
    let snap = server.stats();
    assert_eq!(snap.submitted, n as u64);
    assert_eq!(snap.shed(), shed);
    assert_eq!(snap.served + snap.shed(), snap.submitted);
    drop(server);
}

#[test]
fn a_budgeted_request_is_served_at_its_tier_or_refused_never_degraded() {
    let (ds, dir) = (log(6), TempDir::new("serve-deadline"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    // Budgets of 100-450 us: far above what a model tier costs (about a
    // microsecond), and tight enough that a budget-priced ladder would
    // have stepped down from Hybrid for every one of them.
    let n = 64u64;
    let (mut served, mut refused) = (0u64, 0u64);
    for i in 0..n {
        let budget = Duration::from_micros(100 + i * 350 / (n - 1));
        match server.predict(
            Arc::clone(&queries[i as usize % queries.len()]),
            Method::Hybrid(PlanOrdering::ErrorBased),
            Some(budget),
        ) {
            Ok(got) => {
                assert_eq!(got.method_used, PredictionTier::Hybrid, "budget {budget:?}");
                assert!(!got.degraded, "budget {budget:?}");
                served += 1;
            }
            // A busy host can delay the dequeue past a short budget.
            Err(QppError::DeadlineExceeded { .. }) => refused += 1,
            Err(other) => panic!("budget {budget:?}: unexpected error {other:?}"),
        }
    }
    assert!(served >= 1, "every budgeted request was refused");
    // A zero budget has expired before any worker sees it.
    match server.predict(
        Arc::clone(&queries[0]),
        Method::Hybrid(PlanOrdering::ErrorBased),
        Some(Duration::ZERO),
    ) {
        Err(QppError::DeadlineExceeded { budget_secs }) => {
            assert_eq!(budget_secs, 0.0)
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let snap = server.stats();
    assert_eq!(snap.served, served);
    assert_eq!(snap.deadline_missed, refused + 1);
    assert_eq!(snap.degraded, 0);
    drop(server);
}

#[test]
fn stalled_workers_expire_queued_deadlines_instead_of_serving_late() {
    let (ds, dir) = (log(6), TempDir::new("serve-stall"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            max_batch: 1,
            // Every batch stalls 20 ms; the deadline is 2 ms. Requests
            // always expire in the queue.
            worker_stall: Duration::from_millis(20),
            default_deadline: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    );
    let pending: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(
                    Arc::clone(&queries[i % queries.len()]),
                    Method::PlanLevel,
                    None,
                )
                .expect("queue has room")
        })
        .collect();
    let mut missed = 0;
    for p in pending {
        match p.wait() {
            Err(QppError::DeadlineExceeded { budget_secs }) => {
                assert!((budget_secs - 0.002).abs() < 1e-9);
                missed += 1;
            }
            Ok(pred) => panic!("request served despite expired deadline: {pred:?}"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(missed, 6);
    let snap = server.stats();
    assert_eq!(snap.deadline_missed, 6);
    assert!(snap.stalls_injected >= 1);
    assert_eq!(snap.served, 0);
    drop(server);
}

#[test]
fn sustained_overload_sheds_bounds_latency_and_reconciles_exactly() {
    let (ds, dir) = (log(6), TempDir::new("serve-overload"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let deadline = Duration::from_secs(5);
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            queue_capacity: 8,
            max_batch: 1,
            // ~2 ms injected service time per request; submitting as fast
            // as the loop runs is far beyond 4x that service rate.
            worker_stall: Duration::from_millis(2),
            default_deadline: Some(deadline),
            ..ServeConfig::default()
        },
    );
    let n = 200usize;
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for i in 0..n {
        match server.submit(
            Arc::clone(&queries[i % queries.len()]),
            Method::PlanLevel,
            None,
        ) {
            Ok(p) => pending.push(p),
            Err(QppError::Overloaded { queue_depth }) => {
                assert!(queue_depth <= 8, "queue grew past its bound");
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(shed > 0, "a bounded queue must shed under sustained overload");
    for p in pending {
        p.wait().expect("admitted requests served within the deadline");
    }
    let snap = server.stats();
    assert_eq!(snap.submitted, n as u64);
    assert_eq!(snap.shed(), shed);
    assert_eq!(
        snap.served + snap.deadline_missed + snap.shed(),
        snap.submitted,
        "every request accounted exactly once"
    );
    let slo = snap.endpoint(serve::Endpoint::PlanLevel);
    assert_eq!(slo.count(), snap.served);
    assert!(
        slo.quantile(0.99) <= deadline.as_secs_f64(),
        "p99 {} blew the deadline",
        slo.quantile(0.99)
    );
    assert!(slo.quantile(0.5) <= slo.quantile(0.99) && slo.quantile(0.99) <= slo.max() * 1.3);
    // Dropping the server joins all workers; a panicked worker would
    // propagate here and fail the test.
    drop(server);
}

#[test]
fn closed_loop_clients_drain_cleanly_across_worker_pool() {
    let (ds, dir) = (log(6), TempDir::new("serve-closedloop"));
    let (registry, queries) = (registry_over(&ds, &dir), arcs(&ds));
    let server = Arc::new(PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(2),
            ..ServeConfig::default()
        },
    ));
    let clients = 4;
    let per_client = 25;
    let direct = registry.current();
    std::thread::scope(|s| {
        for c in 0..clients {
            let server = Arc::clone(&server);
            let queries = &queries;
            let direct = &direct;
            s.spawn(move || {
                for i in 0..per_client {
                    let q = &queries[(c * per_client + i) % queries.len()];
                    let method = METHODS[i % METHODS.len()];
                    let got = server
                        .predict(Arc::clone(q), method, None)
                        .expect("closed-loop predict");
                    let want = direct.predict_checked(q, method);
                    assert_eq!(got.value.to_bits(), want.value.to_bits());
                }
            });
        }
    });
    let snap = server.stats();
    assert_eq!(snap.submitted, (clients * per_client) as u64);
    assert_eq!(snap.served, snap.submitted);
    assert_eq!(snap.shed(), 0);
    assert_eq!(snap.deadline_missed, 0);
    drop(server);
}
