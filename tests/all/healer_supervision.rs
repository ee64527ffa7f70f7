//! The supervised healer thread and dynamic tenancy, end to end
//! (DESIGN.md §11):
//!
//! 1. A tenant whose Hybrid breaker is open needs a heal. A heal whose
//!    workload source panics is caught by the healer's per-round
//!    supervisor, backed off breaker-style, and retried — and once the
//!    source recovers, the same healer round shadow-retrains, promotes,
//!    and closes the breaker with the new model. No registry is poisoned
//!    and serving never stalls while the source is panicking. The panic /
//!    backoff / promotion counts are exactly deterministic because an open
//!    breaker stays open until a promotion and the backoff schedule is
//!    fixed.
//! 2. `remove_tenant` under live cross-tenant load drains the removed
//!    tenant's lane (its ledger balances exactly), detaches its name,
//!    hands back its registry — while the surviving tenants' requests
//!    all complete with p99 inside their deadline budget.
//! 3. Overload is not drift: a tenant whose accurate models shed most of
//!    every burst is never healed.

use crate::support::{arcs, collect, quiet_sim, registry_over, spec, TempDir};
use engine::faults::{DriftKind, DriftPlan};
use qpp::{ExecutedQuery, Method, ModelHealth, PredictionTier, QppError};
use serve::tenant::{TenantBudget, TenantServeConfig, TenantServer, TenantSpec};
use serve::{Endpoint, HealSource, Healer, HealerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpch::Workload;

/// A workload source that panics on its first `panics` calls, then
/// serves the drifted retrain window — the "flaky telemetry pipeline"
/// the healer must survive.
struct FlakySource {
    calls: AtomicU64,
    panics: u64,
    window: Vec<ExecutedQuery>,
}

impl HealSource for FlakySource {
    fn recent(&self, tenant: &str) -> Vec<ExecutedQuery> {
        assert_eq!(tenant, "analytics", "only the quarantined tenant heals");
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.panics {
            panic!("telemetry pipeline fell over");
        }
        self.window.clone()
    }
}

#[test]
fn panicking_heal_is_caught_backed_off_and_retried_to_promotion() {
    let sim = quiet_sim();
    let templates = [1u8, 3, 6];
    let clean = collect(&Workload::generate(&templates, 8, 0.1, 7), &sim, &DriftPlan::none());
    let queries = arcs(&clean);
    let dirs = [
        TempDir::new("healer-analytics"),
        TempDir::new("healer-reporting"),
    ];
    let [analytics, reporting] = dirs.each_ref().map(|dir| registry_over(&clean, dir));

    let server = Arc::new(TenantServer::start(
        vec![spec("analytics", &analytics), spec("reporting", &reporting)],
        TenantServeConfig {
            workers: Some(1),
            ..TenantServeConfig::default()
        },
    ));
    // Three invalid outputs in a row would open the breaker; the healer
    // cannot tell that from this.
    analytics.current().trip_breaker(PredictionTier::Hybrid);
    assert!(server.any_quarantined("analytics").unwrap());

    // The retrain window the source serves once it stops panicking: the
    // workload genuinely drifted (data grew 3x), so the shadow retrain
    // wins the held-out comparison and promotes.
    let drift = DriftPlan {
        kind: DriftKind::DataGrowth,
        onset: 0,
        ramp: 0,
        magnitude: 3.0,
        seed: 1,
    };
    let drifted = collect(&Workload::generate(&templates, 8, 0.1, 21), &sim, &drift);
    let source = Arc::new(FlakySource {
        calls: AtomicU64::new(0),
        panics: 2,
        window: drifted.queries.clone(),
    });

    let healer = Healer::spawn(
        Arc::clone(&server),
        Arc::clone(&source) as Arc<dyn HealSource>,
        HealerConfig {
            interval: Duration::from_millis(20),
            jitter: 0.2,
            seed: 0xA11CE,
            backoff_start: 1,
            backoff_cap: 4,
        },
    );

    // While the source is panicking, serving must not stall: predictions
    // keep flowing through the same server the healer is supervising.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probes = 0u64;
    loop {
        let p = server
            .predict(
                "analytics",
                Arc::clone(&queries[probes as usize % queries.len()]),
                Method::PlanLevel,
                None,
            )
            .expect("serving continues while heals panic");
        assert!(p.value.is_finite());
        probes += 1;
        if analytics.version() >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "healer never promoted: {:?}",
            server.stats("analytics").unwrap()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    healer.stop();
    drop(healer);

    // The supervision ledger is exactly deterministic: the open breaker is
    // sticky across panics, so the round sequence is panic #1, skip 1,
    // panic #2, skip 2 (twice), then the promoting heal.
    let stats = server.stats("analytics").unwrap();
    assert_eq!(stats.heal_panics, 2, "{stats:?}");
    assert_eq!(stats.heal_backoff_skips, 3, "{stats:?}");
    assert_eq!(stats.heal_promoted, 1, "{stats:?}");
    assert_eq!(source.calls.load(Ordering::SeqCst), 3);

    // Nothing was poisoned: the registry promoted cleanly, the new model's
    // breakers are closed, the other tenant never moved, and both keep
    // serving.
    assert_eq!(analytics.version(), 2);
    assert!(!server.any_quarantined("analytics").unwrap());
    assert_eq!(
        server.health("analytics", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );
    assert_eq!(reporting.version(), 1, "quiet tenant's registry moved");
    assert_eq!(server.stats("reporting").unwrap().heal_rounds, 0);
    for name in ["analytics", "reporting"] {
        let p = server
            .predict(name, Arc::clone(&queries[0]), Method::PlanLevel, None)
            .expect("post-heal predict");
        assert!(p.value.is_finite());
    }

    drop(server);
}

#[test]
fn remove_tenant_under_load_drains_its_lane_and_spares_the_rest() {
    let sim = quiet_sim();
    let ds = collect(&Workload::generate(&[1, 6], 6, 0.1, 7), &sim, &DriftPlan::none());
    let queries = arcs(&ds);
    let dirs = ["a", "b", "c"].map(|tag| TempDir::new(&format!("healer-dyn-{tag}")));
    let regs = dirs.each_ref().map(|dir| registry_over(&ds, dir));

    let server = Arc::new(TenantServer::start(
        vec![
            spec("a", &regs[0]),
            spec("b", &regs[1]),
            spec("c", &regs[2]),
        ],
        TenantServeConfig {
            workers: Some(2),
            ..TenantServeConfig::default()
        },
    ));

    // Survivor load: two threads hammer tenants a and c with deadline
    // budgets while b is removed out from under them.
    let deadline = Duration::from_secs(5);
    let loaders: Vec<_> = ["a", "c"]
        .iter()
        .map(|name| {
            let server = Arc::clone(&server);
            let queries = queries.clone();
            let name = name.to_string();
            std::thread::spawn(move || {
                for i in 0..200usize {
                    let q = Arc::clone(&queries[i % queries.len()]);
                    server
                        .predict(&name, q, Method::PlanLevel, Some(Duration::from_secs(5)))
                        .expect("survivor tenants must keep serving");
                }
            })
        })
        .collect();

    // Meanwhile, pile work into b's lane and remove it mid-flight.
    let mut b_pending = Vec::new();
    let mut b_submitted = 0u64;
    for i in 0..64usize {
        let q = Arc::clone(&queries[i % queries.len()]);
        match server.submit("b", q, Method::PlanLevel, None) {
            Ok(p) => {
                b_submitted += 1;
                b_pending.push(p);
            }
            Err(QppError::TenantOverloaded { .. }) => b_submitted += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    let removed = server.remove_tenant("b").expect("remove under load");
    assert_eq!(removed.name, "b");

    // Every handle resolves: served before/at removal, or a typed
    // removal abort — never a hang, never a dropped reply.
    for p in b_pending {
        match p.wait() {
            Ok(prediction) => assert!(prediction.value.is_finite()),
            Err(QppError::Internal(msg)) => {
                assert_eq!(msg, "tenant was removed while the request was in flight")
            }
            Err(other) => panic!("unexpected wait error {other:?}"),
        }
    }
    // The removed tenant's final ledger balances exactly.
    let b_stats = &removed.stats;
    assert_eq!(b_stats.submitted, b_submitted);
    assert_eq!(
        b_stats.accepted(),
        b_stats.served + b_stats.deadline_missed,
        "{b_stats:?}"
    );
    // Its registry survives the eviction, still at its serving version.
    assert_eq!(removed.registry.version(), 1);

    // The name is detached: submits fail softly, the listing shrinks,
    // and a healer listing tenants mid-removal would skip it the same way.
    assert_eq!(server.tenant_names(), vec!["a".to_string(), "c".to_string()]);
    match server.submit("b", Arc::clone(&queries[0]), Method::PlanLevel, None) {
        Err(QppError::Internal("unknown tenant")) => {}
        Err(other) => panic!("expected unknown tenant, got {other:?}"),
        Ok(_) => panic!("a removed tenant must not accept requests"),
    }

    for loader in loaders {
        loader.join().expect("survivor loader panicked");
    }
    // Survivors served everything within budget: zero sheds, zero
    // misses, p99 inside the deadline.
    for name in ["a", "c"] {
        let stats = server.stats(name).unwrap();
        assert_eq!(stats.submitted, 200);
        assert_eq!(stats.served, 200);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.deadline_missed, 0);
        let slo = stats.endpoint(Endpoint::PlanLevel);
        assert!(
            slo.quantile(0.99) <= deadline.as_secs_f64(),
            "{name} p99 {} blew its budget",
            slo.quantile(0.99)
        );
    }

    // Shutdown reconciles across live *and* removed shards.
    let report = server.shutdown();
    assert!(report.reconciles());
    assert_eq!(report.tenants.len(), 3, "removed shards keep their ledger");
}

#[test]
fn a_healer_never_retrains_a_tenant_that_is_only_overloaded() {
    let sim = quiet_sim();
    let clean = collect(&Workload::generate(&[1, 3, 6], 8, 0.1, 7), &sim, &DriftPlan::none());
    let queries = arcs(&clean);
    let dir = TempDir::new("healer-overload");
    let registry = registry_over(&clean, &dir);
    let server = Arc::new(TenantServer::start(
        vec![TenantSpec {
            name: "busy".into(),
            registry: Arc::clone(&registry),
            budget: TenantBudget {
                queue_quota: 8,
                ..TenantBudget::default()
            },
        }],
        TenantServeConfig {
            workers: Some(1),
            max_batch: 1,
            // ~2 ms per request: a burst of 64 overflows the quota of 8.
            worker_stall: Duration::from_millis(2),
            ..TenantServeConfig::default()
        },
    ));
    let window = clean.queries.clone();
    let healer = Healer::spawn(
        Arc::clone(&server),
        Arc::new(move |_: &str| window.clone()),
        HealerConfig {
            interval: Duration::from_millis(20),
            jitter: 0.0,
            ..HealerConfig::default()
        },
    );

    // 0.6 s of bursts, each awaited: most of every burst is shed, the
    // rest is served at the tier it asked for.
    let hybrid = Method::Hybrid(qpp::PlanOrdering::ErrorBased);
    let started = Instant::now();
    let mut next = 0usize;
    while started.elapsed() < Duration::from_millis(600) {
        let mut pending = Vec::new();
        for _ in 0..64 {
            next += 1;
            let q = Arc::clone(&queries[next % queries.len()]);
            match server.submit("busy", q, hybrid, None) {
                Ok(p) => pending.push(p),
                Err(QppError::TenantOverloaded { .. }) => {}
                Err(other) => panic!("unexpected admission error {other:?}"),
            }
        }
        for p in pending {
            let got = p.wait().expect("admitted requests are served");
            assert!(!got.degraded, "{got:?}");
        }
    }
    healer.stop();
    drop(healer);

    let stats = server.stats("busy").unwrap();
    assert!(
        stats.shed() > stats.served,
        "the bursts never overloaded: {stats:?}"
    );
    assert_eq!(stats.degraded, 0, "{stats:?}");
    assert_eq!(
        stats.heal_rounds, 0,
        "an overloaded tenant was healed: {stats:?}"
    );
    assert_eq!(registry.version(), 1);

    drop(server);
}
