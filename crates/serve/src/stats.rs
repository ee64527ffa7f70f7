//! Per-endpoint SLO accounting for the serving layer.
//!
//! Three endpoints (one per requested [`Method`] family) each keep a
//! log-bucketed latency histogram ([`qpp::SloRecorder`]) over *end-to-end*
//! request latency (submit → reply), plus the overload counters the
//! acceptance tests and the bench harness reconcile: everything submitted
//! is accounted exactly once as shed, deadline-missed, or served.

use qpp::{tier_rank, Method, PredictionTier, SloRecorder};
use std::sync::Mutex;

use crate::admission::ShedReason;
use crate::tenant::HealAction;

/// The serving endpoint a request belongs to, derived from its requested
/// [`Method`] (all hybrid orderings share one endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Single plan-level model requests.
    PlanLevel,
    /// Composed operator-level model requests.
    OperatorLevel,
    /// Hybrid requests (any plan ordering).
    Hybrid,
}

impl Endpoint {
    /// The endpoint serving a request method.
    pub fn of(method: Method) -> Endpoint {
        match method {
            Method::PlanLevel => Endpoint::PlanLevel,
            Method::OperatorLevel => Endpoint::OperatorLevel,
            Method::Hybrid(_) => Endpoint::Hybrid,
        }
    }

    /// Stable index into per-endpoint arrays.
    pub fn index(self) -> usize {
        match self {
            Endpoint::PlanLevel => 0,
            Endpoint::OperatorLevel => 1,
            Endpoint::Hybrid => 2,
        }
    }

    /// Endpoint name as it appears in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::PlanLevel => "plan_level",
            Endpoint::OperatorLevel => "operator_level",
            Endpoint::Hybrid => "hybrid",
        }
    }
}

/// All serving endpoints, in [`Endpoint::index`] order.
pub const ENDPOINTS: [Endpoint; 3] = [Endpoint::PlanLevel, Endpoint::OperatorLevel, Endpoint::Hybrid];

#[derive(Debug)]
struct Inner {
    submitted: u64,
    shed_rate_limited: u64,
    shed_queue_full: u64,
    shed_shutdown: u64,
    served: u64,
    deadline_missed: u64,
    degraded: u64,
    served_by_tier: [u64; 5],
    batches: u64,
    batched_jobs: u64,
    largest_batch: u64,
    stalls_injected: u64,
    heal_rounds: u64,
    heal_promoted: u64,
    heal_kept_incumbent: u64,
    heal_rolled_back: u64,
    heal_panics: u64,
    heal_backoff_skips: u64,
    latency: [SloRecorder; 3],
}

/// Thread-safe serving statistics, shared between submitters and workers.
#[derive(Debug)]
pub struct ServeStats {
    inner: Mutex<Inner>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

impl ServeStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> ServeStats {
        ServeStats {
            inner: Mutex::new(Inner {
                submitted: 0,
                shed_rate_limited: 0,
                shed_queue_full: 0,
                shed_shutdown: 0,
                served: 0,
                deadline_missed: 0,
                degraded: 0,
                served_by_tier: [0; 5],
                batches: 0,
                batched_jobs: 0,
                largest_batch: 0,
                stalls_injected: 0,
                heal_rounds: 0,
                heal_promoted: 0,
                heal_kept_incumbent: 0,
                heal_rolled_back: 0,
                heal_panics: 0,
                heal_backoff_skips: 0,
                latency: [SloRecorder::new(), SloRecorder::new(), SloRecorder::new()],
            }),
        }
    }

    /// A request reached the front door.
    pub fn record_submitted(&self) {
        self.inner.lock().unwrap().submitted += 1;
    }

    /// A request was shed at admission.
    pub fn record_shed(&self, reason: ShedReason) {
        let mut inner = self.inner.lock().unwrap();
        match reason {
            ShedReason::RateLimited => inner.shed_rate_limited += 1,
            ShedReason::QueueFull => inner.shed_queue_full += 1,
            ShedReason::Shutdown => inner.shed_shutdown += 1,
        }
    }

    /// One healing round completed for this tenant with the given action.
    pub fn record_heal(&self, action: &HealAction) {
        let mut inner = self.inner.lock().unwrap();
        inner.heal_rounds += 1;
        match action {
            HealAction::NotNeeded => {}
            HealAction::Promoted => inner.heal_promoted += 1,
            HealAction::KeptIncumbent => inner.heal_kept_incumbent += 1,
            HealAction::RolledBack => inner.heal_rolled_back += 1,
        }
    }

    /// A healing round panicked and was caught by the supervisor.
    pub fn record_heal_panic(&self) {
        self.inner.lock().unwrap().heal_panics += 1;
    }

    /// The healer's breaker skipped a round while backing off.
    pub fn record_heal_backoff_skip(&self) {
        self.inner.lock().unwrap().heal_backoff_skips += 1;
    }

    /// A worker coalesced `n` requests into one batch.
    pub fn record_batch(&self, n: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.batches += 1;
        inner.batched_jobs += n as u64;
        inner.largest_batch = inner.largest_batch.max(n as u64);
    }

    /// An injected worker stall fired.
    pub fn record_stall(&self) {
        self.inner.lock().unwrap().stalls_injected += 1;
    }

    /// A request was answered with a prediction.
    pub fn record_served(
        &self,
        endpoint: Endpoint,
        tier: PredictionTier,
        degraded: bool,
        latency_secs: f64,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.served += 1;
        inner.served_by_tier[tier_rank(tier)] += 1;
        if degraded {
            inner.degraded += 1;
        }
        inner.latency[endpoint.index()].record(latency_secs);
    }

    /// A request's deadline expired before any tier could answer.
    pub fn record_deadline_miss(&self) {
        self.inner.lock().unwrap().deadline_missed += 1;
    }

    /// A consistent point-in-time copy of all counters and histograms.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        let inner = self.inner.lock().unwrap();
        let latency = std::array::from_fn(|i| {
            let r = &inner.latency[i];
            SloSummary {
                count: r.count(),
                mean_secs: r.mean(),
                p50_secs: r.quantile(0.50),
                p99_secs: r.quantile(0.99),
                p999_secs: r.quantile(0.999),
                max_secs: r.max(),
            }
        });
        ServeStatsSnapshot {
            submitted: inner.submitted,
            shed_rate_limited: inner.shed_rate_limited,
            shed_queue_full: inner.shed_queue_full,
            shed_shutdown: inner.shed_shutdown,
            served: inner.served,
            deadline_missed: inner.deadline_missed,
            degraded: inner.degraded,
            served_by_tier: inner.served_by_tier,
            batches: inner.batches,
            batched_jobs: inner.batched_jobs,
            largest_batch: inner.largest_batch,
            stalls_injected: inner.stalls_injected,
            heal_rounds: inner.heal_rounds,
            heal_promoted: inner.heal_promoted,
            heal_kept_incumbent: inner.heal_kept_incumbent,
            heal_rolled_back: inner.heal_rolled_back,
            heal_panics: inner.heal_panics,
            heal_backoff_skips: inner.heal_backoff_skips,
            latency,
        }
    }
}

/// Latency summary for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Served requests recorded at this endpoint.
    pub count: u64,
    /// Mean end-to-end latency, seconds.
    pub mean_secs: f64,
    /// Median end-to-end latency, seconds.
    pub p50_secs: f64,
    /// 99th percentile end-to-end latency, seconds.
    pub p99_secs: f64,
    /// 99.9th percentile end-to-end latency, seconds.
    pub p999_secs: f64,
    /// Worst observed end-to-end latency, seconds.
    pub max_secs: f64,
}

/// Point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStatsSnapshot {
    /// Requests that reached the front door.
    pub submitted: u64,
    /// Requests shed by the rate limiter.
    pub shed_rate_limited: u64,
    /// Requests shed by queue-depth load shedding.
    pub shed_queue_full: u64,
    /// Requests refused because the server was shutting down or the
    /// tenant was removed after the request was counted `submitted`.
    pub shed_shutdown: u64,
    /// Requests answered with a prediction.
    pub served: u64,
    /// Requests refused because their deadline expired.
    pub deadline_missed: u64,
    /// Served requests answered below their requested tier.
    pub degraded: u64,
    /// Served requests by the tier that produced the answer
    /// (indexed by [`tier_rank`]).
    pub served_by_tier: [u64; 5],
    /// Worker batches formed.
    pub batches: u64,
    /// Requests carried in those batches.
    pub batched_jobs: u64,
    /// Largest single coalesced batch.
    pub largest_batch: u64,
    /// Injected worker stalls that fired.
    pub stalls_injected: u64,
    /// Healing rounds completed (any [`HealAction`]).
    pub heal_rounds: u64,
    /// Healing rounds that promoted and validated a retrained candidate.
    pub heal_promoted: u64,
    /// Healing rounds where the incumbent beat the candidate.
    pub heal_kept_incumbent: u64,
    /// Healing rounds whose promotion regressed and was rolled back.
    pub heal_rolled_back: u64,
    /// Healing rounds that panicked and were caught by the supervisor.
    pub heal_panics: u64,
    /// Healer rounds skipped while the supervision breaker backed off.
    pub heal_backoff_skips: u64,
    /// Per-endpoint latency summaries (indexed by [`Endpoint::index`]).
    pub latency: [SloSummary; 3],
}

impl ServeStatsSnapshot {
    /// Total shed requests, all causes.
    pub fn shed(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full + self.shed_shutdown
    }

    /// Requests admitted past the front door.
    pub fn accepted(&self) -> u64 {
        self.submitted - self.shed()
    }

    /// Latency summary for one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &SloSummary {
        &self.latency[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp::PredictionTier;

    #[test]
    fn counters_reconcile_and_histograms_land_per_endpoint() {
        let stats = ServeStats::new();
        for _ in 0..10 {
            stats.record_submitted();
        }
        stats.record_shed(ShedReason::RateLimited);
        stats.record_shed(ShedReason::QueueFull);
        stats.record_shed(ShedReason::QueueFull);
        stats.record_deadline_miss();
        stats.record_batch(3);
        stats.record_batch(1);
        for i in 0..6 {
            stats.record_served(
                Endpoint::Hybrid,
                PredictionTier::Hybrid,
                false,
                0.001 * (i + 1) as f64,
            );
        }
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.shed(), 3);
        assert_eq!(snap.accepted(), 7);
        assert_eq!(snap.served + snap.deadline_missed, snap.accepted());
        assert_eq!(snap.largest_batch, 3);
        assert_eq!(snap.batched_jobs, 4);
        let hybrid = snap.endpoint(Endpoint::Hybrid);
        assert_eq!(hybrid.count, 6);
        assert!(hybrid.mean_secs > 0.0);
        assert!(hybrid.p50_secs <= hybrid.p99_secs);
        assert!(hybrid.p99_secs <= hybrid.max_secs * 1.3);
        assert_eq!(snap.endpoint(Endpoint::PlanLevel).count, 0);
        assert_eq!(snap.served_by_tier[0], 6);
    }

    #[test]
    fn degradation_and_stalls_are_counted() {
        let stats = ServeStats::new();
        stats.record_submitted();
        stats.record_served(Endpoint::Hybrid, PredictionTier::TrainingPrior, true, 1e-5);
        stats.record_stall();
        let snap = stats.snapshot();
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.stalls_injected, 1);
        assert_eq!(snap.served_by_tier[4], 1);
    }

    #[test]
    fn endpoints_map_methods_stably() {
        use qpp::PlanOrdering;
        assert_eq!(Endpoint::of(Method::PlanLevel), Endpoint::PlanLevel);
        assert_eq!(Endpoint::of(Method::OperatorLevel), Endpoint::OperatorLevel);
        assert_eq!(
            Endpoint::of(Method::Hybrid(PlanOrdering::SizeBased)),
            Endpoint::Hybrid
        );
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert!(!e.name().is_empty());
        }
    }
}
