//! Drift monitoring: the feedback loop that keeps a serving predictor
//! honest.
//!
//! The paper trains its models once and assumes a static data/workload
//! regime; production studies of learned QPP report that data growth and
//! workload shift are the dominant failure mode of deployed predictors.
//! This module closes the loop: after each query executes, the caller
//! feeds the `(prediction, observed latency)` pair back into a
//! [`DriftMonitor`], which runs a CUSUM-style detector per learned tier
//! over the relative-error stream. When the cumulative excess error
//! crosses its thresholds, the tier's health degrades
//! `Healthy → Suspect → Quarantined`; quarantine trips the predictor's
//! existing circuit breaker (PR 1) so `predict_checked` degrades past the
//! stale tier automatically, and signals the registry that a shadow
//! retrain is warranted.

use crate::predictor::{PredictionTier, QppPredictor, MODEL_TIERS};
use ml::metrics::relative_error;
use ml::stats::Welford;

/// Health of one learned model tier, in degradation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelHealth {
    /// Residuals look like they did at calibration time.
    Healthy,
    /// The CUSUM statistic crossed the suspect threshold: residuals are
    /// elevated, but not yet confirmed as drift.
    Suspect,
    /// Drift confirmed. The tier's circuit breaker is tripped and a
    /// shadow retrain should be scheduled. Sticky until
    /// [`DriftMonitor::reset_all`].
    Quarantined,
}

/// Observations that calibrate a tier's baseline when the monitor was
/// built without one.
const CALIBRATION: u64 = 16;
/// Slack added to the baseline before an observation counts as excess
/// error (absorbs noise so the CUSUM statistic only accumulates on genuine
/// degradation).
const SLACK: f64 = 0.10;
/// CUSUM level at which a tier turns [`ModelHealth::Suspect`].
const SUSPECT_THRESHOLD: f64 = 1.0;
/// CUSUM level at which a tier turns [`ModelHealth::Quarantined`].
const QUARANTINE_THRESHOLD: f64 = 3.0;
/// Expected SLO pressure (degraded + deadline-missed + shed fraction of
/// submitted requests) of a healthy serving tier, plus the slack that
/// absorbs transient load spikes: what a window's pressure must exceed to
/// move the SLO CUSUM fed by [`DriftMonitor::observe_slo`].
const SLO_ALLOWANCE: f64 = 0.05 + 0.10;
/// Minimum requests a window must cover before it moves the SLO CUSUM;
/// smaller windows are too noisy to act on and are ignored.
const SLO_MIN_REQUESTS: u64 = 16;

/// Where a CUSUM level puts a tier that is not yet quarantined.
fn health_at(cusum: f64) -> ModelHealth {
    if cusum >= QUARANTINE_THRESHOLD {
        ModelHealth::Quarantined
    } else if cusum >= SUSPECT_THRESHOLD {
        ModelHealth::Suspect
    } else {
        ModelHealth::Healthy
    }
}

/// One aggregated serving-quality window: what happened to a tenant's
/// requests on one tier over some accounting interval.
///
/// The serving layer (qpp-serve) snapshots its per-tenant counters
/// periodically, diffs consecutive snapshots into an `SloWindow`, and feeds
/// it to [`DriftMonitor::observe_slo`]. Where [`DriftMonitor::observe`]
/// watches *accuracy* (residuals), this watches *service quality*: a model
/// that is so slow or so broken that requests degrade past it, miss
/// deadlines, or get shed is just as stale as one that mispredicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloWindow {
    /// Requests answered at the tier the client asked for.
    pub served: u64,
    /// Requests answered, but by a cheaper tier than requested.
    pub degraded: u64,
    /// Requests refused because their deadline expired in queue.
    pub deadline_missed: u64,
    /// Requests shed at admission (rate limit or queue quota).
    pub shed: u64,
}

impl SloWindow {
    /// Total requests the window accounts for.
    pub fn total(&self) -> u64 {
        self.served + self.degraded + self.deadline_missed + self.shed
    }

    /// Fraction of the window's requests that missed their SLO: degraded,
    /// deadline-missed, or shed. 0.0 for an empty window.
    pub fn pressure(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.degraded + self.deadline_missed + self.shed) as f64 / total as f64
    }
}

/// Drift-detection state for one learned tier.
#[derive(Debug, Clone)]
pub struct TierState {
    /// CUSUM statistic: cumulative error in excess of baseline + slack.
    pub cusum: f64,
    /// SLO-pressure CUSUM: cumulative window pressure in excess of the
    /// healthy allowance (the second escalation signal).
    pub slo_cusum: f64,
    /// Expected per-observation mean relative error of a healthy model:
    /// given to [`DriftMonitor::new`], or calibrated from the tier's first
    /// observations; `None` until that calibration completes.
    pub baseline: Option<f64>,
    /// Running mean of the residuals that calibrate `baseline`.
    calibrating: Welford,
    /// Current health.
    pub health: ModelHealth,
}

impl TierState {
    fn new(baseline: Option<f64>) -> Self {
        TierState {
            cusum: 0.0,
            slo_cusum: 0.0,
            baseline,
            calibrating: Welford::new(),
            health: ModelHealth::Healthy,
        }
    }
}

/// The feedback-loop drift detector.
///
/// One instance watches one serving predictor. Feed it
/// `(tier, prediction, observed)` triples via [`DriftMonitor::observe`]
/// (or [`DriftMonitor::ingest`] to also trip the predictor's breaker on
/// quarantine); read back health and CUSUM state per tier.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    /// The baseline every tier starts from, and returns to on a reset.
    baseline: Option<f64>,
    tiers: [TierState; 3],
}

impl DriftMonitor {
    /// Creates a monitor. `baseline` is the expected per-observation mean
    /// relative error of a healthy model; `None` calibrates it per tier
    /// from that tier's first observations.
    pub fn new(baseline: Option<f64>) -> Self {
        DriftMonitor {
            baseline,
            tiers: [
                TierState::new(baseline),
                TierState::new(baseline),
                TierState::new(baseline),
            ],
        }
    }

    /// Folds one `(prediction, observed latency)` pair for the given
    /// learned tier into the monitor and returns the tier's health after
    /// the update. Non-finite pairs are ignored (they are the breaker's
    /// job, not the drift detector's). Fallback tiers (cost scaling,
    /// training prior) are accepted and ignored: they have no model to
    /// quarantine.
    pub fn observe(&mut self, tier: PredictionTier, predicted: f64, observed: f64) -> ModelHealth {
        let Some(i) = MODEL_TIERS.iter().position(|t| *t == tier) else {
            return ModelHealth::Healthy;
        };
        if !predicted.is_finite() || !observed.is_finite() || observed < 0.0 {
            return self.tiers[i].health;
        }
        let err = relative_error(observed, predicted);
        let st = &mut self.tiers[i];

        // Without a given baseline, the first residuals calibrate one.
        let Some(baseline) = st.baseline else {
            st.calibrating.push(err);
            if st.calibrating.count() >= CALIBRATION {
                st.baseline = Some(st.calibrating.mean());
            }
            return st.health;
        };

        // One-sided CUSUM on the excess over baseline + slack.
        st.cusum = (st.cusum + err - (baseline + SLACK)).max(0.0);
        if st.health != ModelHealth::Quarantined {
            st.health = health_at(st.cusum);
        }
        st.health
    }

    /// Like [`DriftMonitor::observe`], but also trips the predictor's
    /// circuit breaker for the tier when the update quarantines it.
    /// Returns the tier's health after the update.
    pub fn ingest(
        &mut self,
        predictor: &QppPredictor,
        tier: PredictionTier,
        predicted: f64,
        observed: f64,
    ) -> ModelHealth {
        let health = self.observe(tier, predicted, observed);
        if health == ModelHealth::Quarantined {
            predictor.trip_breaker(tier);
        }
        health
    }

    /// Folds one serving-quality window for the given learned tier into
    /// the monitor's second escalation signal and returns the tier's
    /// health after the update.
    ///
    /// Sustained SLO pressure — a high fraction of degraded, deadline-
    /// missed, or shed requests — escalates the same
    /// `Healthy → Suspect → Quarantined` ladder as residual drift, so
    /// degraded traffic drives a shadow retrain even when the few answers
    /// the stale tier still gives look accurate. Unlike residual-driven
    /// [`DriftMonitor::ingest`], this path deliberately does *not* trip
    /// the tier's circuit breaker: pressure means the tier is too slow or
    /// too contended, not that its answers are wrong, and disabling the
    /// accurate tier would only push more traffic down the degradation
    /// chain. Windows of fewer than 16 requests are ignored; fallback
    /// tiers are accepted and ignored.
    pub fn observe_slo(&mut self, tier: PredictionTier, window: &SloWindow) -> ModelHealth {
        let Some(i) = MODEL_TIERS.iter().position(|t| *t == tier) else {
            return ModelHealth::Healthy;
        };
        let st = &mut self.tiers[i];
        if window.total() < SLO_MIN_REQUESTS {
            return st.health;
        }
        st.slo_cusum = (st.slo_cusum + (window.pressure() - SLO_ALLOWANCE)).max(0.0);
        if st.health != ModelHealth::Quarantined {
            let slo_health = health_at(st.slo_cusum);
            // The two signals escalate, never de-escalate, each other.
            st.health = match (st.health, slo_health) {
                (ModelHealth::Quarantined, _) | (_, ModelHealth::Quarantined) => {
                    ModelHealth::Quarantined
                }
                (ModelHealth::Suspect, _) | (_, ModelHealth::Suspect) => ModelHealth::Suspect,
                _ => ModelHealth::Healthy,
            };
        }
        st.health
    }

    /// Current health of the given tier (fallback tiers are always
    /// healthy).
    pub fn health(&self, tier: PredictionTier) -> ModelHealth {
        MODEL_TIERS
            .iter()
            .position(|t| *t == tier)
            .map_or(ModelHealth::Healthy, |i| self.tiers[i].health)
    }

    /// Drift-detection state for the given learned tier; `None` for
    /// fallback tiers.
    pub fn tier(&self, tier: PredictionTier) -> Option<&TierState> {
        MODEL_TIERS
            .iter()
            .position(|t| *t == tier)
            .map(|i| &self.tiers[i])
    }

    /// True when any learned tier is quarantined — the registry's cue to
    /// start a shadow retrain.
    pub fn any_quarantined(&self) -> bool {
        self.tiers.iter().any(|t| t.health == ModelHealth::Quarantined)
    }

    /// Clears all drift state (every tier); called when the registry
    /// promotes a new model set.
    pub fn reset_all(&mut self) {
        for t in &mut self.tiers {
            *t = TierState::new(self.baseline);
        }
    }
}

impl Default for DriftMonitor {
    fn default() -> Self {
        DriftMonitor::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured() -> DriftMonitor {
        // Explicit baseline: no calibration phase, deterministic tests.
        DriftMonitor::new(Some(0.10))
    }

    #[test]
    fn accurate_predictions_stay_healthy() {
        let mut m = configured();
        for _ in 0..500 {
            let h = m.observe(PredictionTier::Hybrid, 1.0, 1.05);
            assert_eq!(h, ModelHealth::Healthy);
        }
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert!(!m.any_quarantined());
        assert_eq!(m.tier(PredictionTier::Hybrid).unwrap().cusum, 0.0);
    }

    #[test]
    fn sustained_drift_escalates_to_quarantine() {
        let mut m = configured();
        // Model predicts 1.0 but the world now takes 3.0: relative error
        // ~0.67 per observation, excess ~0.47 over baseline + slack.
        let mut saw_suspect = false;
        let mut quarantined_at = None;
        for i in 0..50 {
            match m.observe(PredictionTier::Hybrid, 1.0, 3.0) {
                ModelHealth::Suspect => saw_suspect = true,
                ModelHealth::Quarantined => {
                    quarantined_at = Some(i);
                    break;
                }
                ModelHealth::Healthy => {}
            }
        }
        assert!(saw_suspect, "must pass through Suspect");
        let at = quarantined_at.expect("sustained drift must quarantine");
        assert!(at < 20, "quarantine took {at} observations");
        assert!(m.any_quarantined());
    }

    #[test]
    fn quarantine_is_sticky_until_reset() {
        let mut m = configured();
        while m.observe(PredictionTier::Hybrid, 1.0, 5.0) != ModelHealth::Quarantined {}
        // Even a long run of perfect predictions does not un-quarantine.
        for _ in 0..200 {
            assert_eq!(
                m.observe(PredictionTier::Hybrid, 1.0, 1.0),
                ModelHealth::Quarantined
            );
        }
        m.reset_all();
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert_eq!(m.tier(PredictionTier::Hybrid).unwrap().cusum, 0.0);
    }

    #[test]
    fn occasional_outliers_do_not_quarantine() {
        let mut m = configured();
        for i in 0..300 {
            let observed = if i % 25 == 0 { 4.0 } else { 1.02 };
            m.observe(PredictionTier::Hybrid, 1.0, observed);
        }
        // The CUSUM drains between outliers; isolated spikes are noise.
        assert_ne!(m.health(PredictionTier::Hybrid), ModelHealth::Quarantined);
    }

    #[test]
    fn tiers_are_tracked_independently() {
        let mut m = configured();
        while m.observe(PredictionTier::OperatorLevel, 1.0, 5.0) != ModelHealth::Quarantined {}
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert_eq!(m.health(PredictionTier::PlanLevel), ModelHealth::Healthy);
        assert_eq!(
            m.health(PredictionTier::OperatorLevel),
            ModelHealth::Quarantined
        );
    }

    #[test]
    fn fallback_tiers_are_ignored() {
        let mut m = configured();
        for _ in 0..100 {
            assert_eq!(
                m.observe(PredictionTier::CostScaling, 1.0, 100.0),
                ModelHealth::Healthy
            );
            assert_eq!(
                m.observe(PredictionTier::TrainingPrior, 1.0, 100.0),
                ModelHealth::Healthy
            );
        }
        assert!(m.tier(PredictionTier::CostScaling).is_none());
        assert!(!m.any_quarantined());
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        // Sixteen observations calibrate an unconfigured tier; sixteen
        // non-finite or negative ones leave it uncalibrated.
        let mut m = DriftMonitor::new(None);
        for i in 0..CALIBRATION {
            let (predicted, observed) = match i % 3 {
                0 => (f64::NAN, 1.0),
                1 => (1.0, f64::INFINITY),
                _ => (1.0, -1.0),
            };
            m.observe(PredictionTier::Hybrid, predicted, observed);
        }
        assert_eq!(m.tier(PredictionTier::Hybrid).unwrap().baseline, None);
    }

    #[test]
    fn auto_calibration_learns_the_baseline() {
        let mut m = DriftMonitor::new(None);
        // A model that is consistently ~40% off: with a fixed 10% baseline
        // this would quarantine, but calibration should absorb it as the
        // tier's normal behavior.
        for _ in 0..200 {
            m.observe(PredictionTier::Hybrid, 1.0, 1.4);
        }
        let st = m.tier(PredictionTier::Hybrid).unwrap();
        let baseline = st.baseline.expect("calibrated after 16 observations");
        assert!(
            (baseline - relative_error(1.4, 1.0)).abs() < 1e-9,
            "baseline = {baseline}"
        );
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        // And drift beyond the calibrated baseline still quarantines.
        let mut fired = false;
        for _ in 0..50 {
            if m.observe(PredictionTier::Hybrid, 1.0, 4.0) == ModelHealth::Quarantined {
                fired = true;
                break;
            }
        }
        assert!(fired, "drift past the calibrated baseline must fire");
    }

    #[test]
    fn slo_pressure_escalates_to_quarantine_without_tripping_accuracy() {
        let mut m = configured();
        // Sustained 80% pressure (most requests degraded or shed) against
        // a 5% baseline + 10% slack: excess 0.65 per window.
        let bad = SloWindow {
            served: 20,
            degraded: 50,
            deadline_missed: 10,
            shed: 20,
        };
        let mut saw_suspect = false;
        let mut quarantined_at = None;
        for i in 0..20 {
            match m.observe_slo(PredictionTier::Hybrid, &bad) {
                ModelHealth::Suspect => saw_suspect = true,
                ModelHealth::Quarantined => {
                    quarantined_at = Some(i);
                    break;
                }
                ModelHealth::Healthy => {}
            }
        }
        assert!(saw_suspect, "must pass through Suspect");
        let at = quarantined_at.expect("sustained SLO pressure must quarantine");
        assert!(at < 10, "quarantine took {at} windows");
        assert!(m.any_quarantined());
        // The residual CUSUM is untouched: this was a service-quality
        // escalation, not an accuracy one.
        assert_eq!(m.tier(PredictionTier::Hybrid).unwrap().cusum, 0.0);
        // Sticky until reset, like residual quarantine.
        let good = SloWindow {
            served: 100,
            ..SloWindow::default()
        };
        assert_eq!(
            m.observe_slo(PredictionTier::Hybrid, &good),
            ModelHealth::Quarantined
        );
        m.reset_all();
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert_eq!(m.tier(PredictionTier::Hybrid).unwrap().slo_cusum, 0.0);
    }

    #[test]
    fn healthy_slo_windows_stay_healthy_and_small_windows_are_ignored() {
        let mut m = configured();
        // 4% pressure, under baseline + slack: CUSUM never accumulates.
        let good = SloWindow {
            served: 96,
            degraded: 4,
            ..SloWindow::default()
        };
        for _ in 0..200 {
            assert_eq!(
                m.observe_slo(PredictionTier::OperatorLevel, &good),
                ModelHealth::Healthy
            );
        }
        assert_eq!(m.tier(PredictionTier::OperatorLevel).unwrap().slo_cusum, 0.0);
        // All-shed windows below SLO_MIN_REQUESTS are too small to act on.
        let tiny = SloWindow {
            shed: 15,
            ..SloWindow::default()
        };
        for _ in 0..200 {
            assert_eq!(
                m.observe_slo(PredictionTier::OperatorLevel, &tiny),
                ModelHealth::Healthy
            );
        }
        // Fallback tiers have no model to quarantine.
        let awful = SloWindow {
            shed: 1000,
            ..SloWindow::default()
        };
        assert_eq!(
            m.observe_slo(PredictionTier::CostScaling, &awful),
            ModelHealth::Healthy
        );
        assert!(!m.any_quarantined());
    }

    #[test]
    fn slo_window_accounting() {
        let w = SloWindow {
            served: 50,
            degraded: 25,
            deadline_missed: 15,
            shed: 10,
        };
        assert_eq!(w.total(), 100);
        assert!((w.pressure() - 0.5).abs() < 1e-12);
        assert_eq!(SloWindow::default().total(), 0);
        assert_eq!(SloWindow::default().pressure(), 0.0);
    }
}
