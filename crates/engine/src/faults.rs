//! Deterministic fault injection for the execution layer.
//!
//! The paper's motivating use cases (admission control, workload routing —
//! Section 1) put the predictor on a live system's critical path, where the
//! executions that feed training-data collection abort mid-flight, straggle
//! behind concurrent load, exceed their time budget, or log corrupted
//! optimizer estimates. This module models those failure modes as a seeded
//! [`FaultPlan`] so every robustness test and benchmark is exactly
//! reproducible: the same (plan, seed, fault plan) triple always yields the
//! same faults.

use crate::plan::PlanNode;
use rng::StdRng;

/// Why an execution failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecError {
    /// The query was aborted mid-flight (deadlock victim, administrator
    /// cancellation, backend crash).
    Aborted {
        /// Fraction of the query's work completed before the abort.
        progress: f64,
    },
    /// The execution exceeded its time budget.
    Timeout {
        /// The budget that was exceeded, in seconds.
        budget_secs: f64,
        /// The latency the execution would have needed, in seconds.
        needed_secs: f64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Aborted { progress } => {
                write!(f, "execution aborted at {:.0}% progress", progress * 100.0)
            }
            ExecError::Timeout {
                budget_secs,
                needed_secs,
            } => write!(
                f,
                "execution exceeded its {budget_secs} s budget (needed {needed_secs:.1} s)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// The fault decisions for one execution, fully determined by the
/// [`FaultPlan`] and the execution seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOutcome {
    /// The execution aborts.
    pub abort: bool,
    /// Progress fraction at the abort point (meaningful when `abort`).
    pub abort_progress: f64,
    /// Latency multiplier (1.0 when the execution does not straggle).
    pub straggler_factor: f64,
    /// The logged optimizer estimates are corrupted.
    pub corrupt_estimates: bool,
}

/// A seeded, deterministic fault-injection policy.
///
/// Probabilities are per execution attempt. `seed` decorrelates fault
/// decisions from the simulator's measurement noise (which consumes the
/// execution seed on its own stream).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that an execution aborts.
    pub abort_prob: f64,
    /// Probability that an execution straggles.
    pub straggler_prob: f64,
    /// Latency multiplier applied to stragglers (values below 1 are
    /// treated as 1).
    pub straggler_factor: f64,
    /// Probability that the logged optimizer estimates of an executed
    /// query are corrupted (NaN, zeroed, or wildly inflated values).
    pub corrupt_prob: f64,
    /// Per-execution time budget in seconds (`f64::INFINITY` disables it).
    pub timeout_secs: f64,
    /// Fault-stream seed.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing: every execution succeeds untouched.
    pub fn none() -> FaultPlan {
        FaultPlan {
            abort_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 8.0,
            corrupt_prob: 0.0,
            timeout_secs: f64::INFINITY,
            seed: 0,
        }
    }

    /// The fault decisions for the execution identified by `exec_seed`.
    /// Deterministic: the same (plan, exec_seed) pair always returns the
    /// same outcome.
    pub fn decide(&self, exec_seed: u64) -> FaultOutcome {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ exec_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA_017,
        );
        let abort = rng.gen_f64() < self.abort_prob;
        let abort_progress = rng.gen_f64();
        let straggler = rng.gen_f64() < self.straggler_prob;
        let corrupt = rng.gen_f64() < self.corrupt_prob;
        FaultOutcome {
            abort,
            abort_progress,
            straggler_factor: if straggler {
                self.straggler_factor.max(1.0)
            } else {
                1.0
            },
            corrupt_estimates: corrupt,
        }
    }

    /// Corrupts a plan's optimizer estimates in place, the way a buggy
    /// stats collector or a torn log record would: per node, estimates may
    /// turn into NaN, collapse to zero, or inflate by six orders of
    /// magnitude. Deterministic in (plan seed, exec_seed).
    pub fn corrupt_estimates(&self, plan: &mut [PlanNode], exec_seed: u64) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ exec_seed.rotate_left(31) ^ 0xC0_44F7);
        for node in plan {
            corrupt_node(node, &mut rng);
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The kind of distribution drift a [`DriftPlan`] injects.
///
/// Both scenarios model the production failure mode reported for deployed
/// learned predictors: the world changes while the trained model (and the
/// optimizer statistics it was trained against) stand still.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The underlying data grows: observed latencies inflate over time
    /// while the logged optimizer estimates stay stale (computed against
    /// the old statistics).
    DataGrowth,
    /// The workload's predicate selectivities shift: the logged estimates
    /// drift away from the truth (rows/pages/selectivity systematically
    /// inflated) while observed latencies stay where they were.
    SelectivityShift,
}

/// A seeded, deterministic drift scenario applied per query *index* (the
/// query's position in the workload stream), so drift ramps in over the
/// stream rather than firing per execution attempt like [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPlan {
    /// What drifts.
    pub kind: DriftKind,
    /// Index of the first drifted query in the stream.
    pub onset: usize,
    /// Number of queries over which drift ramps from zero to full
    /// magnitude (0 = step change at `onset`).
    pub ramp: usize,
    /// Full-strength drift magnitude. For [`DriftKind::DataGrowth`] this is
    /// the latency multiplier at full ramp (values below 1 are treated as
    /// 1); for [`DriftKind::SelectivityShift`] it is the estimate inflation
    /// factor at full ramp.
    pub magnitude: f64,
    /// Drift-stream seed (jitter in estimate shifts).
    pub seed: u64,
}

impl DriftPlan {
    /// A plan that injects no drift (onset beyond any workload).
    pub fn none() -> DriftPlan {
        DriftPlan {
            kind: DriftKind::DataGrowth,
            onset: usize::MAX,
            ramp: 0,
            magnitude: 1.0,
            seed: 0,
        }
    }

    /// Drift intensity in `[0, 1]` for the query at stream position `idx`:
    /// 0 before `onset`, ramping linearly to 1 over `ramp` queries.
    pub(crate) fn intensity(&self, idx: usize) -> f64 {
        if idx < self.onset {
            return 0.0;
        }
        if self.ramp == 0 {
            return 1.0;
        }
        (((idx - self.onset) as f64 + 1.0) / self.ramp as f64).min(1.0)
    }

    /// Latency multiplier for the query at stream position `idx` (1.0 when
    /// drift does not affect latency).
    pub(crate) fn latency_factor(&self, idx: usize) -> f64 {
        match self.kind {
            DriftKind::DataGrowth => 1.0 + (self.magnitude.max(1.0) - 1.0) * self.intensity(idx),
            DriftKind::SelectivityShift => 1.0,
        }
    }

    /// Shifts a plan's logged optimizer estimates in place for the query at
    /// stream position `idx`. Deterministic in (drift seed, idx).
    ///
    /// [`DriftKind::DataGrowth`] leaves the estimates untouched — that is
    /// the point of the scenario: the optimizer's statistics are stale, so
    /// the *gap* between estimate and observation is what grows.
    /// [`DriftKind::SelectivityShift`] inflates per-node rows, pages, and
    /// selectivity by the ramped magnitude with mild seeded jitter.
    pub fn shift_estimates(&self, plan: &mut [PlanNode], idx: usize) {
        let intensity = self.intensity(idx);
        if intensity <= 0.0 || self.kind != DriftKind::SelectivityShift {
            return;
        }
        let factor = 1.0 + (self.magnitude.max(1.0) - 1.0) * intensity;
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (idx as u64).wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xD1F7,
        );
        for node in plan {
            shift_node(node, factor, &mut rng);
        }
    }
}

impl Default for DriftPlan {
    fn default() -> Self {
        DriftPlan::none()
    }
}

/// Deterministic request-arrival processes for load generation.
///
/// `arrival_offsets` turns a pattern into concrete arrival times so
/// closed-form assertions ("a burst of b requests lands inside one queue
/// drain interval") hold exactly, run after run.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Evenly spaced arrivals: request `i` arrives at `i / rate`.
    Steady,
    /// Bursts of `burst` near-simultaneous arrivals separated by idle
    /// gaps, keeping the long-run mean rate: a burst lands every
    /// `burst / rate` seconds, its members spread over a small fraction
    /// of that period.
    Bursty {
        /// Requests per burst (values below 1 are treated as 1).
        burst: usize,
        /// Arrival-stream seed (intra-burst jitter).
        seed: u64,
    },
}

impl ArrivalPattern {
    /// The first `n` arrival offsets in seconds from stream start, at mean
    /// rate `rate` requests/second. Non-decreasing, non-negative, and
    /// deterministic in (pattern, n, rate).
    pub fn arrival_offsets(&self, n: usize, rate: f64) -> Vec<f64> {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        match self {
            ArrivalPattern::Steady => (0..n).map(|i| i as f64 / rate).collect(),
            ArrivalPattern::Bursty { burst, seed } => {
                let burst = (*burst).max(1);
                let period = burst as f64 / rate;
                // Members of one burst spread over 1% of the burst period,
                // jittered so they are not exactly simultaneous.
                let spread = period * 0.01;
                let mut rng = StdRng::seed_from_u64(*seed ^ 0xB5_257);
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let b = i / burst;
                    let jitter = rng.gen_f64();
                    out.push(b as f64 * period + jitter * spread);
                }
                // Jitter can reorder members within a burst; restore the
                // global non-decreasing contract without crossing bursts.
                out.sort_by(|a, b| a.partial_cmp(b).unwrap());
                out
            }
        }
    }
}

fn shift_node(node: &mut PlanNode, factor: f64, rng: &mut StdRng) {
    // ±10% jitter around the systematic shift keeps nodes decorrelated
    // without hiding the drift signal.
    let jitter = 0.9 + 0.2 * rng.gen_f64();
    let f = (factor * jitter).max(1.0);
    node.est.rows *= f;
    node.est.pages *= f;
    node.est.selectivity = (node.est.selectivity * f).min(1.0);
}

fn corrupt_node(node: &mut PlanNode, rng: &mut StdRng) {
    if rng.gen_f64() < 0.35 {
        match rng.gen_range(0u8..3) {
            0 => {
                node.est.rows = f64::NAN;
                node.est.total_cost = f64::NAN;
            }
            1 => {
                node.est.rows = 0.0;
                node.est.selectivity = 0.0;
                node.est.pages = 0.0;
            }
            _ => {
                node.est.rows *= 1e6;
                node.est.total_cost *= 1e6;
                node.est.startup_cost *= 1e6;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::planner::Planner;
    use tpch::templates;

    fn sample_plan(template: u8) -> Box<[PlanNode]> {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(3);
        planner.plan(&templates::instantiate(template, 0.1, &mut rng)).plan
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            abort_prob: 0.3,
            straggler_prob: 0.3,
            corrupt_prob: 0.3,
            ..FaultPlan::none()
        };
        for seed in 0..50 {
            assert_eq!(plan.decide(seed), plan.decide(seed));
        }
    }

    #[test]
    fn none_injects_nothing() {
        let plan = FaultPlan::none();
        for seed in 0..200 {
            let o = plan.decide(seed);
            assert!(!o.abort);
            assert!(!o.corrupt_estimates);
            assert_eq!(o.straggler_factor, 1.0);
        }
    }

    #[test]
    fn empirical_rates_match_probabilities() {
        let plan = FaultPlan {
            abort_prob: 0.2,
            straggler_prob: 0.1,
            corrupt_prob: 0.05,
            ..FaultPlan::none()
        };
        let n = 4000;
        let mut aborts = 0;
        let mut stragglers = 0;
        let mut corrupt = 0;
        for seed in 0..n {
            let o = plan.decide(seed);
            aborts += o.abort as usize;
            stragglers += (o.straggler_factor > 1.0) as usize;
            corrupt += o.corrupt_estimates as usize;
        }
        let frac = |k: usize| k as f64 / n as f64;
        assert!((frac(aborts) - 0.2).abs() < 0.03, "aborts {}", frac(aborts));
        assert!(
            (frac(stragglers) - 0.1).abs() < 0.03,
            "stragglers {}",
            frac(stragglers)
        );
        assert!(
            (frac(corrupt) - 0.05).abs() < 0.02,
            "corrupt {}",
            frac(corrupt)
        );
    }

    #[test]
    fn corruption_changes_estimates_and_is_deterministic() {
        let faults = FaultPlan {
            corrupt_prob: 1.0,
            ..FaultPlan::none()
        };
        let original = sample_plan(3);
        // NaN-corrupted estimates defeat PartialEq (NaN != NaN), so compare
        // debug renderings instead.
        let render = |p: &[PlanNode]| format!("{p:?}");
        let mut changed = false;
        for seed in 0..10 {
            let mut a = original.clone();
            let mut b = original.clone();
            faults.corrupt_estimates(&mut a, seed);
            faults.corrupt_estimates(&mut b, seed);
            assert_eq!(render(&a), render(&b), "corruption must be deterministic");
            if render(&a) != render(&original) {
                changed = true;
            }
        }
        assert!(changed, "corruption never touched any estimate");
    }

    #[test]
    fn errors_display() {
        let a = ExecError::Aborted { progress: 0.5 };
        assert!(a.to_string().contains("aborted"));
        let t = ExecError::Timeout {
            budget_secs: 10.0,
            needed_secs: 42.0,
        };
        assert!(t.to_string().contains("budget"));
    }

    #[test]
    fn drift_none_is_inert() {
        let d = DriftPlan::none();
        let original = sample_plan(6);
        for idx in [0usize, 5, 1000] {
            assert_eq!(d.intensity(idx), 0.0);
            assert_eq!(d.latency_factor(idx), 1.0);
            let mut p = original.clone();
            d.shift_estimates(&mut p, idx);
            assert_eq!(format!("{p:?}"), format!("{original:?}"));
        }
    }

    #[test]
    fn data_growth_ramps_latency_and_keeps_estimates_stale() {
        let d = DriftPlan {
            kind: DriftKind::DataGrowth,
            onset: 10,
            ramp: 5,
            magnitude: 3.0,
            seed: 9,
        };
        assert_eq!(d.latency_factor(9), 1.0);
        // Ramp: idx 10 is 1/5 of the way, idx 14 (and beyond) is full.
        assert!((d.latency_factor(10) - 1.4).abs() < 1e-12);
        assert!((d.latency_factor(14) - 3.0).abs() < 1e-12);
        assert!((d.latency_factor(500) - 3.0).abs() < 1e-12);
        // Estimates stay stale under data growth.
        let original = sample_plan(3);
        let mut p = original.clone();
        d.shift_estimates(&mut p, 500);
        assert_eq!(format!("{p:?}"), format!("{original:?}"));
    }

    #[test]
    fn selectivity_shift_inflates_estimates_deterministically() {
        let d = DriftPlan {
            kind: DriftKind::SelectivityShift,
            onset: 0,
            ramp: 0,
            magnitude: 4.0,
            seed: 21,
        };
        assert_eq!(d.latency_factor(3), 1.0, "latency unaffected");
        let original = sample_plan(3);
        let mut a = original.clone();
        let mut b = original.clone();
        d.shift_estimates(&mut a, 3);
        d.shift_estimates(&mut b, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "shift must be deterministic");
        assert_ne!(format!("{a:?}"), format!("{original:?}"), "shift must change estimates");
        // Rows only ever inflate.
        for (o, s) in original.iter().zip(a.iter()) {
            assert!(s.est.rows >= o.est.rows, "rows shrank");
        }
    }

    #[test]
    fn arrival_offsets_are_sorted_deterministic_and_hold_the_mean_rate() {
        let n = 2000;
        let rate = 500.0;
        for pattern in [
            ArrivalPattern::Steady,
            ArrivalPattern::Bursty { burst: 32, seed: 42 },
        ] {
            let a = pattern.arrival_offsets(n, rate);
            let b = pattern.arrival_offsets(n, rate);
            assert_eq!(a, b, "{pattern:?} must be deterministic");
            assert_eq!(a.len(), n);
            assert!(a[0] >= 0.0);
            for w in a.windows(2) {
                assert!(w[1] >= w[0], "{pattern:?} offsets must be sorted");
            }
            // Long-run mean rate within 15% of nominal.
            let span = a[n - 1].max(1e-9);
            let achieved = (n - 1) as f64 / span;
            assert!(
                (achieved / rate - 1.0).abs() < 0.15,
                "{pattern:?} rate {achieved} vs nominal {rate}"
            );
        }
    }

    #[test]
    fn bursty_arrivals_actually_burst() {
        let rate = 1000.0;
        let steady = ArrivalPattern::Steady.arrival_offsets(256, rate);
        let bursty =
            ArrivalPattern::Bursty { burst: 64, seed: 3 }.arrival_offsets(256, rate);
        let max_gap = |xs: &[f64]| {
            xs.windows(2)
                .map(|w| w[1] - w[0])
                .fold(0.0f64, f64::max)
        };
        // The inter-burst gap dwarfs any steady-state spacing, and the
        // intra-burst spacing is far tighter than steady spacing.
        assert!(max_gap(&bursty) > 10.0 * max_gap(&steady));
        let intra: Vec<f64> = bursty[..64].windows(2).map(|w| w[1] - w[0]).collect();
        let mean_intra = intra.iter().sum::<f64>() / intra.len() as f64;
        assert!(mean_intra < (1.0 / rate) * 0.25, "mean intra {mean_intra}");
    }

    #[test]
    fn step_drift_at_onset_zero_hits_everything() {
        let d = DriftPlan {
            kind: DriftKind::DataGrowth,
            onset: 0,
            ramp: 0,
            magnitude: 2.5,
            seed: 0,
        };
        for idx in 0..20 {
            assert_eq!(d.intensity(idx), 1.0);
            assert!((d.latency_factor(idx) - 2.5).abs() < 1e-12);
        }
    }
}
