//! Multi-tenant bulkhead isolation and the closed SLO → drift healing
//! loop, end to end (DESIGN.md §10):
//!
//! 1. Under a seeded one-hot tenant burst, the hot tenant is shed at its
//!    own bulkhead (typed `TenantOverloaded`) while the quiet tenant's
//!    served p99 stays within its deadline budget and its shed count is
//!    exactly 0 — and every request reconciles per tenant and globally.
//! 2. Sustained deadline-missed traffic on one tenant escalates *that
//!    tenant's* drift monitor to quarantine via the SLO pressure channel,
//!    and one healing round shadow-retrains, validates, and promotes on
//!    that tenant's registry only — the other tenant's registry version
//!    and health never move. The escalation is bit-reproducible: two
//!    servers over the same seeded traffic quarantine on the same round.
//! 3. Residuals fed back through `TenantServer::observe` quarantine and
//!    trip the breaker of one tenant only: the other tenant's health and
//!    predictions do not move.

use engine::faults::{one_hot_burst, DriftKind, DriftPlan, FaultPlan};
use engine::{Catalog, Simulator};
use qpp::{
    CollectionConfig, ExecutedQuery, Method, ModelHealth, ModelRegistry, PredictionTier,
    QppConfig, QppError, QppPredictor, QueryDataset,
};
use serve::tenant::{HealAction, TenantBudget, TenantServeConfig, TenantServer, TenantSpec};
use serve::Endpoint;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tpch::Workload;

fn quiet_sim() -> Simulator {
    Simulator::with_config(engine::SimConfig {
        additive_noise_secs: 0.05,
        ..engine::SimConfig::default()
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpp-tenant-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn collect(workload: &Workload, sim: &Simulator, drift: &DriftPlan) -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    QueryDataset::execute_drifted(
        &catalog,
        workload,
        sim,
        11,
        f64::INFINITY,
        &FaultPlan::none(),
        &CollectionConfig::trusting(),
        drift,
    )
    .0
}

fn registry_over(ds: &QueryDataset, tag: &str) -> Arc<ModelRegistry> {
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let predictor = QppPredictor::train(&refs, QppConfig::default()).expect("training");
    Arc::new(
        ModelRegistry::create(temp_dir(tag), predictor, QppConfig::default()).expect("registry"),
    )
}

fn spec(name: &str, registry: &Arc<ModelRegistry>, budget: TenantBudget) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        registry: Arc::clone(registry),
        budget,
    }
}

#[test]
fn one_hot_burst_sheds_the_hot_tenant_and_spares_the_quiet_one() {
    let sim = quiet_sim();
    let ds = collect(&Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7), &sim, &DriftPlan::none());
    let queries: Vec<Arc<ExecutedQuery>> = ds.queries.iter().cloned().map(Arc::new).collect();
    let hot_registry = registry_over(&ds, "burst-hot");
    let quiet_registry = registry_over(&ds, "burst-quiet");
    let direct = quiet_registry.current();

    let deadline = Duration::from_secs(5);
    let server = TenantServer::start(
        vec![
            spec(
                "hot",
                &hot_registry,
                TenantBudget {
                    queue_quota: 8,
                    ..TenantBudget::default()
                },
            ),
            spec(
                "quiet",
                &quiet_registry,
                TenantBudget {
                    queue_quota: 64,
                    default_deadline: Some(deadline),
                    ..TenantBudget::default()
                },
            ),
        ],
        TenantServeConfig {
            workers: Some(1),
            max_batch: 1,
            // ~2 ms injected service time bounds the drain rate, so the
            // burst deterministically overflows the hot tenant's quota.
            worker_stall: Duration::from_millis(2),
            ..TenantServeConfig::default()
        },
    );

    // Seeded one-hot skew: ~31 of every 32 arrivals belong to tenant 0.
    let names = ["hot", "quiet"];
    let arrivals = one_hot_burst(0, 32, 9, 2, 320, 400.0);
    let mut pending = vec![Vec::new(), Vec::new()];
    let mut submitted = [0u64; 2];
    let mut shed = [0u64; 2];
    for (i, a) in arrivals.iter().enumerate() {
        submitted[a.tenant] += 1;
        let q = Arc::clone(&queries[i % queries.len()]);
        match server.submit(names[a.tenant], q, Method::PlanLevel, None) {
            Ok(p) => pending[a.tenant].push(p),
            Err(QppError::TenantOverloaded { tenant }) => {
                assert_eq!(tenant, "hot", "only the hot tenant may hit its bulkhead");
                shed[a.tenant] += 1;
            }
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(submitted[0] >= 250, "burst pattern should skew hot");
    assert!(
        shed[0] >= submitted[0] / 2,
        "hot tenant must shed most of its burst, shed {} of {}",
        shed[0],
        submitted[0]
    );
    assert_eq!(shed[1], 0, "quiet tenant must never be shed");

    // Every admitted request resolves; quiet answers are bit-identical to
    // direct prediction through the quiet tenant's own registry.
    for p in pending.remove(1) {
        // drain quiet first: index 1 removed while hot is still index 0
        let got = p.wait().expect("quiet requests served");
        assert!(!got.degraded);
        assert_eq!(got.method_used, PredictionTier::PlanLevel);
    }
    for p in pending.remove(0) {
        p.wait().expect("admitted hot requests served");
    }
    let quiet_direct_ok = queries
        .iter()
        .take(4)
        .all(|q| {
            let want = direct.predict_checked(q, Method::PlanLevel);
            let got = server
                .predict("quiet", Arc::clone(q), Method::PlanLevel, None)
                .expect("quiet predict");
            got.value.to_bits() == want.value.to_bits()
        });
    assert!(quiet_direct_ok, "quiet tenant's answers diverged from its registry");

    // Exact accounting, per tenant and globally.
    let hot = server.stats("hot").unwrap();
    let quiet = server.stats("quiet").unwrap();
    assert_eq!(hot.submitted, submitted[0]);
    assert_eq!(hot.shed(), shed[0]);
    assert_eq!(hot.served + hot.deadline_missed + hot.shed(), hot.submitted);
    assert_eq!(quiet.submitted, submitted[1] + 4);
    assert_eq!(quiet.shed(), 0);
    assert_eq!(quiet.deadline_missed, 0);
    assert_eq!(quiet.served, quiet.submitted);
    assert_eq!(
        hot.submitted + quiet.submitted,
        arrivals.len() as u64 + 4,
        "global accounting"
    );

    // The quiet tenant kept its deadline budget through the noisy burst.
    let slo = quiet.endpoint(Endpoint::PlanLevel);
    assert_eq!(slo.count(), quiet.served);
    assert!(
        slo.quantile(0.99) <= deadline.as_secs_f64(),
        "quiet p99 {} blew its deadline budget",
        slo.quantile(0.99)
    );

    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("burst-hot"));
    let _ = std::fs::remove_dir_all(temp_dir("burst-quiet"));
}

/// Rounds of deadline-missed traffic until the tenant's Hybrid tier
/// quarantines via the SLO pressure channel; returns the round count.
fn miss_until_quarantined(
    server: &TenantServer,
    tenant: &str,
    queries: &[Arc<ExecutedQuery>],
) -> usize {
    // A zero budget has expired before any worker dequeues the request:
    // 100% deadline-missed windows, deterministically.
    let budget = Some(Duration::ZERO);
    for round in 1..=20 {
        for i in 0..32 {
            let q = Arc::clone(&queries[i % queries.len()]);
            match server.predict(
                tenant,
                q,
                Method::Hybrid(qpp::PlanOrdering::ErrorBased),
                budget,
            ) {
                Err(QppError::DeadlineExceeded { .. }) => {}
                other => panic!("a zero budget must be refused, got {other:?}"),
            }
        }
        let (window, health) = server.slo_tick(tenant).expect("slo tick");
        assert_eq!(
            window.deadline_missed, 32,
            "round {round} window miscounted"
        );
        if health == ModelHealth::Quarantined {
            return round;
        }
    }
    panic!("SLO pressure never quarantined tenant {tenant}");
}

#[test]
fn slo_pressure_quarantines_and_heals_one_tenant_without_touching_the_other() {
    let sim = quiet_sim();
    let templates = [1u8, 3, 6];
    let clean = collect(&Workload::generate(&templates, 8, 0.1, 7), &sim, &DriftPlan::none());
    let queries: Vec<Arc<ExecutedQuery>> = clean.queries.iter().cloned().map(Arc::new).collect();
    let analytics = registry_over(&clean, "heal-analytics");
    let reporting = registry_over(&clean, "heal-reporting");

    let config = TenantServeConfig {
        workers: Some(1),
        ..TenantServeConfig::default()
    };
    let tenants = |a: &Arc<ModelRegistry>, r: &Arc<ModelRegistry>| {
        vec![
            spec("analytics", a, TenantBudget::default()),
            spec("reporting", r, TenantBudget::default()),
        ]
    };

    // Bit-reproducible escalation: two servers over the same traffic
    // quarantine on the same round.
    let rounds = {
        let server = TenantServer::start(tenants(&analytics, &reporting), config.clone());
        miss_until_quarantined(&server, "analytics", &queries)
    };
    let server = TenantServer::start(tenants(&analytics, &reporting), config);
    let rounds2 = miss_until_quarantined(&server, "analytics", &queries);
    assert_eq!(rounds, rounds2, "escalation round count must replay exactly");
    assert!(server.any_quarantined("analytics").unwrap());
    assert_eq!(
        server.health("reporting", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy,
        "quiet tenant's monitor moved"
    );

    // Healing on a window the incumbent already fits keeps the incumbent:
    // the quarantine stands and the registry version does not move.
    let clean_refs: Vec<&ExecutedQuery> = clean.queries.iter().collect();
    let kept = server
        .heal("analytics", &clean_refs)
        .expect("heal");
    assert_eq!(kept.action, HealAction::KeptIncumbent);
    assert_eq!(analytics.version(), 1);
    assert!(server.any_quarantined("analytics").unwrap());

    // The workload actually drifted (data grew 3x): one healing round
    // shadow-retrains on the recent window, wins the held-out comparison,
    // survives post-promotion validation, and resets the monitor.
    let drift = DriftPlan {
        kind: DriftKind::DataGrowth,
        onset: 0,
        ramp: 0,
        magnitude: 3.0,
        seed: 1,
    };
    let drifted = collect(&Workload::generate(&templates, 8, 0.1, 21), &sim, &drift);
    let drifted_refs: Vec<&ExecutedQuery> = drifted.queries.iter().collect();
    let healed = server
        .heal("analytics", &drifted_refs)
        .expect("heal");
    assert_eq!(healed.action, HealAction::Promoted, "{:?}", healed.report);
    let report = healed.report.expect("promotion report");
    assert!(report.promoted);
    assert!(report.candidate_error < report.incumbent_error);
    assert_eq!(healed.version, 2);
    assert_eq!(analytics.version(), 2, "analytics promoted to v2");
    assert!(!server.any_quarantined("analytics").unwrap(), "monitor reset");
    assert_eq!(
        server.health("analytics", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );

    // Bulkhead: the other tenant's registry and health never moved.
    assert_eq!(reporting.version(), 1, "reporting registry was touched");
    assert_eq!(
        server.health("reporting", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );
    // And healing a healthy tenant is a no-op.
    let noop = server
        .heal("reporting", &clean_refs)
        .expect("heal");
    assert_eq!(noop.action, HealAction::NotNeeded);
    assert_eq!(reporting.version(), 1);

    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("heal-analytics"));
    let _ = std::fs::remove_dir_all(temp_dir("heal-reporting"));
}

#[test]
fn observed_residuals_quarantine_one_tenant_and_trip_only_its_breaker() {
    let ds = collect(
        &Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7),
        &quiet_sim(),
        &DriftPlan::none(),
    );
    let queries: Vec<Arc<ExecutedQuery>> = ds.queries.iter().cloned().map(Arc::new).collect();
    let drifting = registry_over(&ds, "observe-drifting");
    let steady = registry_over(&ds, "observe-steady");
    let server = TenantServer::start(
        vec![
            spec("drifting", &drifting, TenantBudget::default()),
            spec("steady", &steady, TenantBudget::default()),
        ],
        TenantServeConfig {
            workers: Some(1),
            ..TenantServeConfig::default()
        },
    );
    let hybrid = Method::Hybrid(qpp::PlanOrdering::ErrorBased);
    let predicted = |q: &ExecutedQuery| drifting.current().predict_checked(q, hybrid).value;

    // The monitor calibrates its baseline on a tier's first 16 residuals:
    // exact ones make it zero. From then on every query takes 3x its
    // prediction.
    for q in queries.iter().cycle().take(16) {
        let p = predicted(q);
        let health = server
            .observe("drifting", PredictionTier::Hybrid, p, p)
            .unwrap();
        assert_eq!(health, ModelHealth::Healthy);
    }
    let quarantined_after = queries
        .iter()
        .cycle()
        .take(64)
        .position(|q| {
            let p = predicted(q);
            server
                .observe("drifting", PredictionTier::Hybrid, p, 3.0 * p)
                .unwrap()
                == ModelHealth::Quarantined
        })
        .expect("3x residuals never quarantined the Hybrid tier");
    assert!(quarantined_after >= 1, "one residual cannot quarantine");

    // Quarantine tripped the drifting tenant's breaker: its Hybrid
    // requests fall through to the next tier.
    let got = server
        .predict("drifting", Arc::clone(&queries[0]), hybrid, None)
        .unwrap();
    assert!(got.degraded, "{got:?}");
    assert_ne!(got.method_used, PredictionTier::Hybrid);

    // The bulkhead: the steady tenant's monitor never moved and its
    // answers are its own registry's, bit for bit.
    assert_eq!(
        server.health("steady", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );
    let direct = steady.current();
    for q in &queries {
        let got = server
            .predict("steady", Arc::clone(q), hybrid, None)
            .unwrap();
        let want = direct.predict_checked(q, hybrid);
        assert_eq!(got.value.to_bits(), want.value.to_bits());
        assert_eq!(got.method_used, PredictionTier::Hybrid);
        assert!(!got.degraded);
    }

    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("observe-drifting"));
    let _ = std::fs::remove_dir_all(temp_dir("observe-steady"));
}

/// DESIGN.md §9: "requests doomed to queue-shedding don't drain the rate
/// budget". The global controller sheds on the global depth before it
/// spends a token, and records the reason it refused for.
#[test]
fn a_full_queue_refuses_without_spending_the_global_rate_budget() {
    use serve::RateLimit;
    let ds = collect(
        &Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7),
        &quiet_sim(),
        &DriftPlan::none(),
    );
    let query = Arc::new(ds.queries[0].clone());
    let registry = registry_over(&ds, "doomed");
    let server = TenantServer::start(
        vec![spec("t", &registry, TenantBudget::default())],
        TenantServeConfig {
            workers: Some(1),
            global_capacity: 2,
            // Four tokens and, for the length of this test, no refill.
            global_rate_limit: Some(RateLimit {
                rate: 1e-3,
                burst: 4.0,
            }),
            max_batch: 1,
            // The one worker sleeps on every request it pops, so what is
            // submitted behind it stays queued.
            worker_stall: Duration::from_millis(250),
        },
    );
    let submit = || server.submit("t", Arc::clone(&query), Method::PlanLevel, None);

    // Token 1: popped at once; the worker stalls holding it.
    let mut pending = vec![submit().expect("first request admitted")];
    while server.stats("t").unwrap().batches == 0 {
        std::thread::yield_now();
    }
    // Tokens 2 and 3 fill the queue behind the stalled worker.
    pending.push(submit().expect("queue has room"));
    pending.push(submit().expect("queue has room"));
    // Refused by depth: typed as service overload, recorded as queue-full,
    // and the fourth token stays in the bucket.
    for _ in 0..5 {
        match submit() {
            Err(QppError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 2),
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("a full queue admitted a request"),
        }
    }
    let full = server.stats("t").unwrap();
    assert_eq!(full.shed_queue_full, 5);
    assert_eq!(full.shed_rate_limited, 0, "a doomed request spent a token");

    for p in pending {
        p.wait().expect("admitted requests are served");
    }
    // The queue has drained: the unspent token admits, and it was the last.
    submit()
        .expect("the token the full queue did not burn")
        .wait()
        .expect("served");
    assert!(matches!(submit(), Err(QppError::Overloaded { .. })));

    let done = server.stats("t").unwrap();
    assert_eq!(done.submitted, 10);
    assert_eq!(done.served, 4);
    assert_eq!(done.shed_queue_full, 5);
    assert_eq!(done.shed_rate_limited, 1);
    assert_eq!(
        done.served + done.deadline_missed + done.shed(),
        done.submitted
    );
    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("doomed"));
}

/// The bulkhead holds for the rate budgets too: the tenant's own bucket is
/// asked before the global one, so a request its tenant's rate limit
/// refuses has spent no global token and a flooding tenant cannot drain
/// the shared budget for the quiet ones.
#[test]
fn a_tenant_rate_refusal_spends_no_global_token() {
    use serve::RateLimit;
    let ds = collect(
        &Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7),
        &quiet_sim(),
        &DriftPlan::none(),
    );
    let query = Arc::new(ds.queries[0].clone());
    let hot_registry = registry_over(&ds, "rate-hot");
    let quiet_registry = registry_over(&ds, "rate-quiet");
    // No bucket refills for the length of this test.
    let no_refill = |burst| Some(RateLimit { rate: 1e-3, burst });
    let server = TenantServer::start(
        vec![
            spec(
                "hot",
                &hot_registry,
                TenantBudget {
                    rate_limit: no_refill(1.0),
                    ..TenantBudget::default()
                },
            ),
            spec("quiet", &quiet_registry, TenantBudget::default()),
        ],
        TenantServeConfig {
            global_rate_limit: no_refill(8.0),
            ..TenantServeConfig::default()
        },
    );
    let submit = |tenant| server.submit(tenant, Arc::clone(&query), Method::PlanLevel, None);

    // The flood: one request holds the hot tenant's only token, the other
    // 99 are refused at its own bulkhead.
    let mut pending = vec![submit("hot").expect("the hot tenant's one token admits")];
    for _ in 0..99 {
        match submit("hot") {
            Err(QppError::TenantOverloaded { tenant }) => assert_eq!(tenant, "hot"),
            Err(other) => panic!("expected TenantOverloaded, got {other:?}"),
            Ok(_) => panic!("an empty tenant bucket admitted a request"),
        }
    }
    // The flood cost the shared budget one token of eight: the other seven
    // are the quiet tenant's to spend, and an eighth finds the bucket empty.
    for i in 0..7 {
        let admitted = submit("quiet");
        pending.push(admitted.unwrap_or_else(|e| panic!("quiet request {i} refused: {e:?}")));
    }
    assert!(matches!(submit("quiet"), Err(QppError::Overloaded { .. })));
    for p in pending {
        p.wait().expect("admitted requests are served");
    }

    let hot = server.stats("hot").unwrap();
    assert_eq!(
        (hot.submitted, hot.served, hot.shed_rate_limited),
        (100, 1, 99)
    );
    let quiet = server.stats("quiet").unwrap();
    assert_eq!(
        (quiet.submitted, quiet.served, quiet.shed_rate_limited),
        (8, 7, 1)
    );
    assert_eq!(hot.shed_queue_full + quiet.shed_queue_full, 0);
    drop(server);
    let _ = std::fs::remove_dir_all(temp_dir("rate-hot"));
    let _ = std::fs::remove_dir_all(temp_dir("rate-quiet"));
}
