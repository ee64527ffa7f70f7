//! Per-endpoint SLO accounting for the serving layer.
//!
//! Three endpoints (one per requested [`Method`] family) each keep a
//! log-bucketed latency histogram ([`SloRecorder`]) over *end-to-end*
//! request latency (submit → reply), plus the overload counters the
//! acceptance tests and the bench harness reconcile: everything submitted
//! is accounted exactly once as shed, deadline-missed, or served. The live
//! ledger is one [`ServeStatsSnapshot`] behind one lock, and a snapshot is
//! its clone.

use qpp::{tier_rank, Method, PredictionTier};
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
    pub(crate) fn of(method: Method) -> Endpoint {
        match method {
            Method::PlanLevel => Endpoint::PlanLevel,
            Method::OperatorLevel => Endpoint::OperatorLevel,
            Method::Hybrid(_) => Endpoint::Hybrid,
        }
    }

    /// Stable index into per-endpoint arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Endpoint::PlanLevel => 0,
            Endpoint::OperatorLevel => 1,
            Endpoint::Hybrid => 2,
        }
    }
}

/// Thread-safe serving statistics, shared between submitters and workers:
/// one [`ServeStatsSnapshot`] behind one lock.
#[derive(Debug, Default)]
pub(crate) struct ServeStats(Mutex<ServeStatsSnapshot>);

impl ServeStats {
    /// A request reached the front door.
    pub(crate) fn record_submitted(&self) {
        self.0.lock().unwrap().submitted += 1;
    }

    /// A request was shed at admission.
    pub(crate) fn record_shed(&self, reason: ShedReason) {
        let mut ledger = self.0.lock().unwrap();
        match reason {
            ShedReason::RateLimited => ledger.shed_rate_limited += 1,
            ShedReason::QueueFull => ledger.shed_queue_full += 1,
            ShedReason::Shutdown => ledger.shed_shutdown += 1,
        }
    }

    /// One healing round completed for this tenant with the given action.
    pub(crate) fn record_heal(&self, action: &HealAction) {
        let mut ledger = self.0.lock().unwrap();
        ledger.heal_rounds += 1;
        match action {
            HealAction::NotNeeded => {}
            HealAction::Promoted => ledger.heal_promoted += 1,
            HealAction::KeptIncumbent => ledger.heal_kept_incumbent += 1,
            HealAction::RolledBack => ledger.heal_rolled_back += 1,
        }
    }

    /// A healing round panicked and was caught by the supervisor.
    pub(crate) fn record_heal_panic(&self) {
        self.0.lock().unwrap().heal_panics += 1;
    }

    /// The healer's breaker skipped a round while backing off.
    pub(crate) fn record_heal_backoff_skip(&self) {
        self.0.lock().unwrap().heal_backoff_skips += 1;
    }

    /// A worker coalesced `n` requests into one batch.
    pub(crate) fn record_batch(&self, n: usize) {
        self.0.lock().unwrap().add_batch(n);
    }

    /// A batch of `n` requests was served on the thread that asked, not
    /// by a worker.
    pub(crate) fn record_caller_batch(&self, n: usize) {
        let mut ledger = self.0.lock().unwrap();
        ledger.add_batch(n);
        ledger.caller_batches += 1;
    }

    /// An injected worker stall fired.
    pub(crate) fn record_stall(&self) {
        self.0.lock().unwrap().stalls_injected += 1;
    }

    /// A request was answered with a prediction.
    pub(crate) fn record_served(
        &self,
        endpoint: Endpoint,
        tier: PredictionTier,
        degraded: bool,
        latency_secs: f64,
    ) {
        let mut ledger = self.0.lock().unwrap();
        ledger.served += 1;
        ledger.served_by_tier[tier_rank(tier)] += 1;
        ledger.degraded += u64::from(degraded);
        ledger.latency[endpoint.index()].record(latency_secs);
    }

    /// A request's deadline expired before any tier could answer.
    pub(crate) fn record_deadline_miss(&self) {
        self.0.lock().unwrap().deadline_missed += 1;
    }

    /// A consistent point-in-time copy of all counters and histograms.
    pub(crate) fn snapshot(&self) -> ServeStatsSnapshot {
        self.0.lock().unwrap().clone()
    }
}

/// One tenant's serving ledger: the state `ServeStats` guards, and its
/// point-in-time copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStatsSnapshot {
    /// Requests that reached the front door.
    pub submitted: u64,
    /// Requests shed by the rate limiter.
    pub shed_rate_limited: u64,
    /// Requests shed by queue-depth load shedding.
    pub shed_queue_full: u64,
    /// Requests refused because the server was shutting down after the
    /// request was counted `submitted`.
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
    /// Batches served, by workers and by callers.
    pub batches: u64,
    /// Of those, the batches served on the thread that asked: a blocking
    /// `predict` on an idle server.
    pub caller_batches: u64,
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
    /// Per-endpoint end-to-end latency histograms, one per [`Endpoint`]
    /// in declaration order.
    pub latency: [SloRecorder; 3],
}

impl ServeStatsSnapshot {
    fn add_batch(&mut self, n: usize) {
        self.batches += 1;
        self.batched_jobs += n as u64;
        self.largest_batch = self.largest_batch.max(n as u64);
    }

    /// Total shed requests, all causes.
    pub fn shed(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full + self.shed_shutdown
    }

    /// Requests admitted past the front door.
    pub(crate) fn accepted(&self) -> u64 {
        self.submitted - self.shed()
    }

    /// Latency histogram for one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &SloRecorder {
        &self.latency[e.index()]
    }
}

/// Smallest latency the SLO histogram resolves (100 ns).
const SLO_MIN_SECS: f64 = 1e-7;
/// Geometric buckets per decade: resolution ~26% per bucket, plenty for
/// p50/p99/p999 accounting at a fixed 100-slot footprint.
const SLO_BUCKETS_PER_DECADE: usize = 10;
/// Decades covered: 100 ns … 1000 s.
const SLO_DECADES: usize = 10;
const SLO_BUCKETS: usize = SLO_BUCKETS_PER_DECADE * SLO_DECADES;

/// A fixed-footprint, log-bucketed latency histogram for SLO accounting.
///
/// The serving layer records the latency of every *prediction* it answers
/// (the paper's models are themselves on a latency budget once they sit on
/// a system's admission-control path) and reads back tail quantiles —
/// p50/p99/p999 — without storing individual samples. Buckets are
/// geometric (10 per decade, 100 ns to 1000 s), so a quantile is resolved
/// to within ~26% of its true value while the recorder stays a flat
/// 100-slot array that is cheap to snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRecorder {
    buckets: [u64; SLO_BUCKETS],
    count: u64,
    min: f64,
    max: f64,
}

impl Default for SloRecorder {
    fn default() -> Self {
        SloRecorder::new()
    }
}

impl SloRecorder {
    /// An empty recorder.
    pub(crate) fn new() -> Self {
        SloRecorder {
            buckets: [0; SLO_BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(secs: f64) -> usize {
        let clamped = secs.max(SLO_MIN_SECS);
        let idx = ((clamped / SLO_MIN_SECS).log10() * SLO_BUCKETS_PER_DECADE as f64).floor();
        (idx as usize).min(SLO_BUCKETS - 1)
    }

    /// Records one latency observation (non-finite or negative values are
    /// ignored — a latency cannot be either).
    pub(crate) fn record(&mut self, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        self.buckets[Self::bucket_index(secs)] += 1;
        self.count += 1;
        self.min = self.min.min(secs);
        self.max = self.max.max(secs);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded latency (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The latency at quantile `q` in `[0, 1]`, resolved to the upper edge
    /// of its bucket (clamped to the observed min/max so the estimate
    /// never leaves the recorded range). NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper =
                    SLO_MIN_SECS * 10f64.powf((i + 1) as f64 / SLO_BUCKETS_PER_DECADE as f64);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp::PredictionTier;

    #[test]
    fn counters_reconcile_and_histograms_land_per_endpoint() {
        let stats = ServeStats::default();
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
        assert_eq!(hybrid.count(), 6);
        assert!(hybrid.quantile(0.5) <= hybrid.quantile(0.99));
        assert!(hybrid.quantile(0.99) <= hybrid.max() * 1.3);
        assert_eq!(snap.endpoint(Endpoint::PlanLevel).count(), 0);
        assert_eq!(snap.served_by_tier[0], 6);
    }

    #[test]
    fn degradation_and_stalls_are_counted() {
        let stats = ServeStats::default();
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
        for (i, e) in [
            Endpoint::PlanLevel,
            Endpoint::OperatorLevel,
            Endpoint::Hybrid,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn slo_recorder_quantiles_bound_the_true_values() {
        let mut r = SloRecorder::new();
        // 1000 samples spread uniformly over 1..=1000 ms.
        for i in 1..=1000 {
            r.record(i as f64 * 1e-3);
        }
        assert_eq!(r.count(), 1000);
        assert_eq!(r.max(), 1.0);
        // Each quantile lands within one geometric bucket (~26%) above the
        // true value and never below the bucket's floor.
        for (q, truth) in [(0.5, 0.5), (0.99, 0.99), (0.999, 0.999)] {
            let est = r.quantile(q);
            assert!(est >= truth * 0.79, "q{q}: {est} vs {truth}");
            assert!(est <= truth * 1.27, "q{q}: {est} vs {truth}");
        }
        // Clamped to the observed range at the extremes.
        assert!(r.quantile(0.0) >= 1e-3);
        assert_eq!(r.quantile(1.0), 1.0);
    }

    #[test]
    fn slo_recorder_ignores_garbage() {
        let mut r = SloRecorder::new();
        r.record(f64::NAN);
        r.record(-1.0);
        r.record(f64::INFINITY);
        assert_eq!(r.count(), 0);
        assert!(r.quantile(0.5).is_nan());
        // A sub-resolution latency clamps into the first bucket.
        r.record(0.0);
        assert_eq!(r.count(), 1);
        assert!(r.quantile(0.5) <= 1e-7 * 1.3);
    }
}
