//! Overload behaviour of the serving front-end.
//!
//! The contracts under test, from DESIGN.md §9:
//! 1. Serving is *value-transparent*: answers are bit-identical to calling
//!    the predictor directly, coalesced or not.
//! 2. Overload is *shed at the door* (typed `Overloaded`), never absorbed
//!    into an unbounded queue.
//! 3. Deadlines *degrade before they refuse*: a shrinking budget walks the
//!    tier chain in order, and only a budget that cannot afford the
//!    training prior is answered `DeadlineExceeded`.
//! 4. Every submitted request is accounted exactly once:
//!    `submitted == shed + served + deadline_missed`.

use engine::{Catalog, Simulator};
use qpp::{
    ExecutedQuery, Method, ModelRegistry, PlanOrdering, PredictionTier, QppConfig, QppError,
    QppPredictor, QueryDataset,
};
use serve::{PredictionServer, RateLimit, ServeConfig, TierCosts};
use std::sync::Arc;
use std::time::Duration;
use tpch::Workload;

fn dataset() -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpp_serve_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry_over(ds: &QueryDataset, tag: &str) -> (Arc<ModelRegistry>, Vec<Arc<ExecutedQuery>>) {
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    let registry =
        ModelRegistry::create(temp_dir(tag), predictor, QppConfig::default()).expect("registry");
    let queries = ds.queries.iter().cloned().map(Arc::new).collect();
    (Arc::new(registry), queries)
}

const METHODS: [Method; 3] = [
    Method::PlanLevel,
    Method::OperatorLevel,
    Method::Hybrid(PlanOrdering::ErrorBased),
];

#[test]
fn served_results_are_bit_identical_to_direct_prediction() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "bitident");
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
    let _ = std::fs::remove_dir_all(temp_dir("bitident"));
}

#[test]
fn burst_past_the_rate_limit_sheds_with_typed_overloaded() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "ratelimit");
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
    let _ = std::fs::remove_dir_all(temp_dir("ratelimit"));
}

#[test]
fn shrinking_deadlines_walk_the_tier_chain_in_order() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "deadline");
    // Absurdly inflated tier costs make the budget→tier mapping exact:
    // real service time (microseconds) cannot blur a decade boundary.
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: Some(1),
            tier_costs: TierCosts([1.0, 0.1, 0.01, 0.001, 0.0]),
            ..ServeConfig::default()
        },
    );
    let expectations = [
        (Duration::from_secs(10), PredictionTier::Hybrid, false),
        (Duration::from_millis(500), PredictionTier::OperatorLevel, true),
        (Duration::from_millis(50), PredictionTier::PlanLevel, true),
        (Duration::from_millis(5), PredictionTier::CostScaling, true),
        (Duration::from_micros(500), PredictionTier::TrainingPrior, true),
    ];
    let q = &queries[0];
    for (budget, want_tier, want_degraded) in expectations {
        let got = server
            .predict(
                Arc::clone(q),
                Method::Hybrid(PlanOrdering::ErrorBased),
                Some(budget),
            )
            .expect("within budget");
        assert_eq!(
            got.method_used, want_tier,
            "budget {budget:?} should enter at {want_tier:?}"
        );
        assert_eq!(got.degraded, want_degraded, "budget {budget:?}");
        assert!(got.value.is_finite() && got.value >= 0.0);
    }
    // A zero budget cannot afford anything, even the prior.
    match server.predict(
        Arc::clone(q),
        Method::Hybrid(PlanOrdering::ErrorBased),
        Some(Duration::ZERO),
    ) {
        Err(QppError::DeadlineExceeded { budget_secs }) => {
            assert_eq!(budget_secs, 0.0)
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let snap = server.stats();
    assert_eq!(snap.deadline_missed, 1);
    assert_eq!(snap.degraded, 4);
    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("deadline"));
}

#[test]
fn stalled_workers_expire_queued_deadlines_instead_of_serving_late() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "stall");
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
    let _ = std::fs::remove_dir_all(temp_dir("stall"));
}

#[test]
fn sustained_overload_sheds_bounds_latency_and_reconciles_exactly() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "overload");
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
    let _ = std::fs::remove_dir_all(temp_dir("overload"));
}

#[test]
fn closed_loop_clients_drain_cleanly_across_worker_pool() {
    let ds = dataset();
    let (registry, queries) = registry_over(&ds, "closedloop");
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
    let _ = std::fs::remove_dir_all(temp_dir("closedloop"));
}
