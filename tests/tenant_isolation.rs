//! Multi-tenant bulkhead isolation and the per-tenant drift → heal loop,
//! end to end (DESIGN.md §10):
//!
//! 1. Under a seeded one-hot tenant burst, the hot tenant is shed at its
//!    own bulkhead (typed `TenantOverloaded`) while the quiet tenant's
//!    served p99 stays within its deadline budget and its shed count is
//!    exactly 0 — and every request reconciles per tenant and globally.
//! 2. Residuals fed back through `TenantServer::observe` quarantine and
//!    trip the breaker of one tenant only: the other tenant's health and
//!    predictions do not move. Healing that tenant keeps the incumbent on
//!    a window it already fits, and promotes on its registry only once the
//!    data grew 3x — the other tenant's registry version and health never
//!    move, and healing it is a no-op.
//! 3. A tenant's monitor judges each learned tier against the error the
//!    serving model recorded at training: on the benchmark fixture's
//!    held-out pool, residuals three times the model's own quarantine the
//!    tier within 100 observations, and over 10 000 untripled ones every
//!    tier stays healthy.

#[allow(dead_code)]
#[path = "all/support.rs"]
mod support;

use engine::faults::{DriftKind, DriftPlan};
use engine::Catalog;
use qpp::{
    ExecutedQuery, Method, ModelHealth, PlanOrdering, PredictionTier, QppError, QueryDataset,
    MODEL_TIERS,
};
use serve::tenant::{HealAction, TenantBudget, TenantServeConfig, TenantServer, TenantSpec};
use serve::Endpoint;
use std::sync::Arc;
use std::time::Duration;
use support::{arcs, collect, quiet_sim, registry_over, spec, TempDir};
use tpch::Workload;

#[test]
fn one_hot_burst_sheds_the_hot_tenant_and_spares_the_quiet_one() {
    let sim = quiet_sim();
    let ds = collect(&Workload::generate(&[1, 3, 6, 14], 6, 0.1, 7), &sim, &DriftPlan::none());
    let queries = arcs(&ds);
    let dirs = [
        TempDir::new("tenant-burst-hot"),
        TempDir::new("tenant-burst-quiet"),
    ];
    let [hot_registry, quiet_registry] = dirs.each_ref().map(|dir| registry_over(&ds, dir));
    let direct = quiet_registry.current();

    let deadline = Duration::from_secs(5);
    let server = TenantServer::start(
        vec![
            TenantSpec {
                budget: TenantBudget {
                    queue_quota: 8,
                    ..TenantBudget::default()
                },
                ..spec("hot", &hot_registry)
            },
            TenantSpec {
                budget: TenantBudget {
                    queue_quota: 64,
                    default_deadline: Some(deadline),
                    ..TenantBudget::default()
                },
                ..spec("quiet", &quiet_registry)
            },
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

    // One-hot skew: in every burst of 32 arrivals, the first 31 belong to
    // tenant 0 and the last to tenant 1.
    let names = ["hot", "quiet"];
    let arrivals: Vec<usize> = (0..320).map(|i| usize::from(i % 32 == 31)).collect();
    let mut pending = vec![Vec::new(), Vec::new()];
    let mut submitted = [0u64; 2];
    let mut shed = [0u64; 2];
    for (i, &t) in arrivals.iter().enumerate() {
        submitted[t] += 1;
        let q = Arc::clone(&queries[i % queries.len()]);
        match server.submit(names[t], q, Method::PlanLevel, None) {
            Ok(p) => pending[t].push(p),
            Err(QppError::TenantOverloaded { tenant }) => {
                assert_eq!(tenant, "hot", "only the hot tenant may hit its bulkhead");
                shed[t] += 1;
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
}

#[test]
fn observed_residuals_quarantine_one_tenant_and_trip_only_its_breaker() {
    let sim = quiet_sim();
    let templates = [1u8, 3, 6, 14];
    let ds = collect(&Workload::generate(&templates, 6, 0.1, 7), &sim, &DriftPlan::none());
    let queries = arcs(&ds);
    let dirs = [
        TempDir::new("tenant-observe-drifting"),
        TempDir::new("tenant-observe-steady"),
    ];
    let [drifting, steady] = dirs.each_ref().map(|dir| registry_over(&ds, dir));
    let server = TenantServer::start(
        vec![spec("drifting", &drifting), spec("steady", &steady)],
        TenantServeConfig {
            workers: Some(1),
            ..TenantServeConfig::default()
        },
    );
    let hybrid = Method::Hybrid(qpp::PlanOrdering::ErrorBased);
    let predicted = |q: &ExecutedQuery| drifting.current().predict_checked(q, hybrid).value;

    // The monitor judges the tier against the error its model recorded at
    // training. Every query takes 3x its prediction.
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

    // Healing on a window the incumbent already fits keeps the incumbent:
    // the quarantine stands and the registry version does not move.
    let clean_refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let kept = server.heal("drifting", &clean_refs).expect("heal");
    assert_eq!(kept.action, HealAction::KeptIncumbent);
    assert_eq!(drifting.version(), 1);
    assert!(server.any_quarantined("drifting").unwrap());

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
    let drifted = collect(&Workload::generate(&templates, 6, 0.1, 21), &sim, &drift);
    let drifted_refs: Vec<&ExecutedQuery> = drifted.queries.iter().collect();
    let healed = server.heal("drifting", &drifted_refs).expect("heal");
    assert_eq!(healed.action, HealAction::Promoted, "{:?}", healed.report);
    let report = healed.report.expect("promotion report");
    assert!(report.promoted);
    assert!(report.candidate_error < report.incumbent_error);
    assert_eq!(healed.version, 2);
    assert_eq!(drifting.version(), 2, "drifting promoted to v2");
    assert!(!server.any_quarantined("drifting").unwrap(), "monitor reset");
    assert_eq!(
        server.health("drifting", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );

    // Bulkhead: the other tenant's registry and health never moved, and
    // healing a healthy tenant is a no-op.
    assert_eq!(steady.version(), 1, "steady registry was touched");
    assert_eq!(
        server.health("steady", PredictionTier::Hybrid).unwrap(),
        ModelHealth::Healthy
    );
    let noop = server.heal("steady", &clean_refs).expect("heal");
    assert_eq!(noop.action, HealAction::NotNeeded);
    assert_eq!(steady.version(), 1);

    drop(server);
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
    let dir = TempDir::new("tenant-doomed");
    let registry = registry_over(&ds, &dir);
    let server = TenantServer::start(
        vec![spec("t", &registry)],
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
    let dirs = [
        TempDir::new("tenant-rate-hot"),
        TempDir::new("tenant-rate-quiet"),
    ];
    let [hot_registry, quiet_registry] = dirs.each_ref().map(|dir| registry_over(&ds, dir));
    // No bucket refills for the length of this test.
    let no_refill = |burst| Some(RateLimit { rate: 1e-3, burst });
    let server = TenantServer::start(
        vec![
            TenantSpec {
                budget: TenantBudget {
                    rate_limit: no_refill(1.0),
                    ..TenantBudget::default()
                },
                ..spec("hot", &hot_registry)
            },
            spec("quiet", &quiet_registry),
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
}

/// Each learned tier's `(predicted, actual)` pairs.
type TierResiduals = Vec<(PredictionTier, Vec<(f64, f64)>)>;

/// A one-tenant server over the benchmark fixture's model set (trained on
/// `crates/e2e`'s 140-query log: templates 1, 3, 5, 6, 10, 12, 14 x 20 at
/// sf 0.1, data seed 42), and each learned tier's `(predicted, actual)`
/// pairs on the fixture's 700-query held-out pool.
fn fixture_tenant(dir: &TempDir) -> (TenantServer, TierResiduals) {
    let collect = |per_template, seed| {
        let workload = Workload::generate(&[1, 3, 5, 6, 10, 12, 14], per_template, 0.1, seed);
        QueryDataset::execute(&Catalog::new(0.1, 1), &workload, &quiet_sim(), seed, f64::INFINITY)
    };
    let (log, pool) = (collect(20, 42), collect(100, 42 ^ 0x9001));
    let registry = registry_over(&log, dir);
    let serving = registry.current();
    let refs: Vec<&ExecutedQuery> = pool.queries.iter().collect();
    let residuals = MODEL_TIERS
        .iter()
        .zip([Method::Hybrid(PlanOrdering::ErrorBased), Method::OperatorLevel, Method::PlanLevel])
        .map(|(&tier, method)| {
            let predicted = serving.predict_batch(&refs, method);
            (tier, predicted.into_iter().zip(refs.iter().map(|q| q.latency())).collect())
        })
        .collect();
    let server = TenantServer::start(
        vec![spec("t", &registry)],
        TenantServeConfig {
            workers: Some(1),
            ..TenantServeConfig::default()
        },
    );
    (server, residuals)
}

#[test]
fn a_model_three_times_worse_than_its_record_quarantines() {
    let dir = TempDir::new("tenant-tripled");
    let (server, residuals) = fixture_tenant(&dir);
    for (tier, pairs) in residuals {
        // Every residual three times what the model actually makes.
        let quarantined_after = pairs
            .iter()
            .position(|&(predicted, actual)| {
                let tripled = actual + 3.0 * (predicted - actual);
                server.observe("t", tier, tripled, actual).unwrap() == ModelHealth::Quarantined
            })
            .unwrap_or_else(|| panic!("{tier:?}: tripled residuals never quarantined"));
        assert!(
            quarantined_after < 100,
            "{tier:?} quarantined after {} observations",
            quarantined_after + 1
        );
    }
}

#[test]
fn clean_traffic_keeps_every_tier_healthy() {
    let dir = TempDir::new("tenant-clean");
    let (server, residuals) = fixture_tenant(&dir);
    for (tier, pairs) in residuals {
        for &(predicted, actual) in pairs.iter().cycle().take(15 * pairs.len()) {
            let health = server.observe("t", tier, predicted, actual).unwrap();
            assert_eq!(health, ModelHealth::Healthy, "{tier:?}");
        }
    }
    assert!(!server.any_quarantined("t").unwrap());
}
