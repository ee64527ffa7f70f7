//! Drift monitoring: the feedback loop that keeps a serving predictor
//! honest.
//!
//! The paper trains its models once and assumes a static data/workload
//! regime; production studies of learned QPP report that data growth and
//! workload shift are the dominant failure mode of deployed predictors.
//! This module closes the loop: after each query executes, the caller
//! feeds the `(prediction, observed latency)` pair back into a
//! [`DriftMonitor`], which runs a CUSUM-style detector per learned tier
//! over the relative-error stream — the paper's own accuracy measure, and
//! the monitor's one drift signal. A tier is judged against the error the
//! serving model recorded for it at training
//! ([`QppPredictor::recorded_error`]), so the monitor keeps no baseline of
//! its own and a promoted model brings its own. When the cumulative excess
//! error crosses its thresholds, the tier's health degrades
//! `Healthy → Suspect → Quarantined`; quarantine trips the predictor's
//! circuit breaker so `predict_checked` degrades past the stale tier, and
//! signals the registry that a shadow retrain is warranted.

use crate::predictor::{PredictionTier, QppPredictor, MODEL_TIERS};
use ml::metrics::relative_error;

/// Health of one learned model tier, in degradation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelHealth {
    /// Residuals stay near the error the model recorded at training.
    #[default]
    Healthy,
    /// The CUSUM statistic crossed the suspect threshold: residuals are
    /// elevated, but not yet confirmed as drift.
    Suspect,
    /// Drift confirmed. The tier's circuit breaker is tripped and a
    /// shadow retrain should be scheduled. Sticky until
    /// [`DriftMonitor::reset_all`].
    Quarantined,
}

/// Slack added to the recorded error before an observation counts as
/// excess error. It covers how far live residuals of a healthy model sit
/// above its record: on the benchmark fixture (140-query log, 700-query
/// pool) each tier's pool error is 0.006–0.008 above its record, and at a
/// 0.042 record 14 000 clean pool residuals peak the CUSUM at 0.25 while
/// tripled ones quarantine within 70 observations (DESIGN.md §8,
/// "Feedback loop").
const SLACK: f64 = 0.03;
/// CUSUM level at which a tier turns [`ModelHealth::Suspect`].
const SUSPECT_THRESHOLD: f64 = 1.0;
/// CUSUM level at which a tier turns [`ModelHealth::Quarantined`].
const QUARANTINE_THRESHOLD: f64 = 3.0;

/// Drift-detection state for one learned tier.
#[derive(Debug, Clone, Default)]
struct TierState {
    /// CUSUM statistic: cumulative error in excess of the recorded error
    /// plus [`SLACK`].
    cusum: f64,
    /// Current health.
    health: ModelHealth,
}

/// The feedback-loop drift detector.
///
/// One instance watches one serving predictor. Feed it
/// `(tier, prediction, observed)` triples via [`DriftMonitor::observe`];
/// read back health per tier.
#[derive(Debug, Clone, Default)]
pub struct DriftMonitor {
    tiers: [TierState; 3],
}

impl DriftMonitor {
    /// Folds one `(prediction, observed latency)` pair for the given
    /// learned tier into the monitor, judged against the error `predictor`
    /// recorded for that tier, and returns the tier's health after the
    /// update. A quarantined tier trips `predictor`'s circuit breaker.
    /// Non-finite pairs are ignored (they are the breaker's job, not the
    /// drift detector's), and so is an observed latency that is not
    /// positive: a relative error against zero is undefined. Fallback tiers
    /// (cost scaling, training prior) are accepted and ignored: they have no
    /// model to quarantine.
    pub fn observe(
        &mut self,
        predictor: &QppPredictor,
        tier: PredictionTier,
        predicted: f64,
        observed: f64,
    ) -> ModelHealth {
        let Some(recorded) = predictor.recorded_error(tier) else {
            return ModelHealth::Healthy;
        };
        let health = self.step(tier, recorded, predicted, observed);
        if health == ModelHealth::Quarantined {
            predictor.trip_breaker(tier);
        }
        health
    }

    /// One CUSUM step of a learned tier against the error `recorded` for
    /// it; returns the tier's health after the step.
    fn step(
        &mut self,
        tier: PredictionTier,
        recorded: f64,
        predicted: f64,
        observed: f64,
    ) -> ModelHealth {
        let Some(i) = MODEL_TIERS.iter().position(|t| *t == tier) else {
            return ModelHealth::Healthy;
        };
        let st = &mut self.tiers[i];
        if !predicted.is_finite() || !observed.is_finite() || observed <= 0.0 {
            return st.health;
        }
        let err = relative_error(observed, predicted);
        // One-sided CUSUM on the excess over the record + slack.
        st.cusum = (st.cusum + err - (recorded + SLACK)).max(0.0);
        if st.health != ModelHealth::Quarantined {
            st.health = if st.cusum >= QUARANTINE_THRESHOLD {
                ModelHealth::Quarantined
            } else if st.cusum >= SUSPECT_THRESHOLD {
                ModelHealth::Suspect
            } else {
                ModelHealth::Healthy
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

    /// True when any learned tier is quarantined — the registry's cue to
    /// start a shadow retrain.
    pub fn any_quarantined(&self) -> bool {
        self.tiers
            .iter()
            .any(|t| t.health == ModelHealth::Quarantined)
    }

    /// Clears all drift state (every tier); called when the registry
    /// promotes a new model set, whose recorded errors the next
    /// observations are judged against.
    pub fn reset_all(&mut self) {
        *self = DriftMonitor::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error a tier recorded at training, for the unit tests.
    const RECORDED: f64 = 0.10;

    fn observe(
        m: &mut DriftMonitor,
        tier: PredictionTier,
        predicted: f64,
        observed: f64,
    ) -> ModelHealth {
        m.step(tier, RECORDED, predicted, observed)
    }

    /// The Hybrid tier's drift state (`MODEL_TIERS[0]`).
    fn hybrid(m: &DriftMonitor) -> &TierState {
        &m.tiers[0]
    }

    #[test]
    fn accurate_predictions_stay_healthy() {
        let mut m = DriftMonitor::default();
        for _ in 0..500 {
            let h = observe(&mut m, PredictionTier::Hybrid, 1.0, 1.05);
            assert_eq!(h, ModelHealth::Healthy);
        }
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert!(!m.any_quarantined());
        assert_eq!(hybrid(&m).cusum, 0.0);
    }

    #[test]
    fn sustained_drift_escalates_to_quarantine() {
        let mut m = DriftMonitor::default();
        // Model predicts 1.0 but the world now takes 3.0: relative error
        // ~0.67 per observation, excess ~0.54 over the record + slack.
        let mut saw_suspect = false;
        let mut quarantined_at = None;
        for i in 0..50 {
            match observe(&mut m, PredictionTier::Hybrid, 1.0, 3.0) {
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
        let mut m = DriftMonitor::default();
        while observe(&mut m, PredictionTier::Hybrid, 1.0, 5.0) != ModelHealth::Quarantined {}
        // Even a long run of perfect predictions does not un-quarantine.
        for _ in 0..200 {
            assert_eq!(
                observe(&mut m, PredictionTier::Hybrid, 1.0, 1.0),
                ModelHealth::Quarantined
            );
        }
        m.reset_all();
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert_eq!(hybrid(&m).cusum, 0.0);
    }

    #[test]
    fn occasional_outliers_do_not_quarantine() {
        let mut m = DriftMonitor::default();
        for i in 0..300 {
            let observed = if i % 25 == 0 { 4.0 } else { 1.02 };
            observe(&mut m, PredictionTier::Hybrid, 1.0, observed);
        }
        // The CUSUM drains between outliers; isolated spikes are noise.
        assert_ne!(m.health(PredictionTier::Hybrid), ModelHealth::Quarantined);
    }

    #[test]
    fn tiers_are_tracked_independently() {
        let mut m = DriftMonitor::default();
        while observe(&mut m, PredictionTier::OperatorLevel, 1.0, 5.0) != ModelHealth::Quarantined {
        }
        assert_eq!(m.health(PredictionTier::Hybrid), ModelHealth::Healthy);
        assert_eq!(m.health(PredictionTier::PlanLevel), ModelHealth::Healthy);
        assert_eq!(
            m.health(PredictionTier::OperatorLevel),
            ModelHealth::Quarantined
        );
    }

    #[test]
    fn fallback_tiers_are_ignored() {
        let mut m = DriftMonitor::default();
        for _ in 0..100 {
            assert_eq!(
                observe(&mut m, PredictionTier::CostScaling, 1.0, 100.0),
                ModelHealth::Healthy
            );
            assert_eq!(
                observe(&mut m, PredictionTier::TrainingPrior, 1.0, 100.0),
                ModelHealth::Healthy
            );
        }
        assert!(m.tiers.iter().all(|t| t.cusum == 0.0));
        assert!(!m.any_quarantined());
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        // Non-finite, negative or zero observations leave the CUSUM at
        // zero. Against a zero latency the relative error is undefined:
        // counted, one such sample would add ~1e10 to the CUSUM.
        let mut m = DriftMonitor::default();
        for (predicted, observed) in [
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (1.0, -1.0),
            (0.01, 0.0),
        ] {
            assert_eq!(
                observe(&mut m, PredictionTier::Hybrid, predicted, observed),
                ModelHealth::Healthy
            );
        }
        assert_eq!(hybrid(&m).cusum, 0.0);
    }

    #[test]
    fn the_excess_is_measured_from_the_record_plus_slack() {
        // A model that is steadily ~29% off: within slack of a 0.28 record
        // it stays calm; against a 0.10 record it quarantines.
        let err = relative_error(1.4, 1.0);
        let mut calm = DriftMonitor::default();
        for _ in 0..1000 {
            assert_eq!(
                calm.step(PredictionTier::Hybrid, err - SLACK / 2.0, 1.0, 1.4),
                ModelHealth::Healthy
            );
        }
        let mut m = DriftMonitor::default();
        let fired = (0..50)
            .any(|_| observe(&mut m, PredictionTier::Hybrid, 1.0, 1.4) == ModelHealth::Quarantined);
        assert!(fired, "an error past the record + slack must quarantine");
    }
}
