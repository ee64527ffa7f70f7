//! The user-facing QPP facade: train once, predict with any method,
//! materialize models for later sessions.
//!
//! Ties the paper's plan-level, operator-level and hybrid methods behind
//! one API (online building extends the hybrid model: [`crate::online`]) and
//! implements model *materialization* (Section 1's pre-building): trained
//! model sets serialize to a `QPPSNAP v3` binary snapshot and reload
//! without retraining.
//!
//! A trained predictor carries each learned tier's error as training
//! measured it ([`QppPredictor::recorded_error`]), and so does its
//! snapshot: the drift monitor judges live residuals against it.
//!
//! Besides the raw [`QppPredictor::predict`], the facade offers the
//! guarded [`QppPredictor::predict_checked`], which never returns a
//! non-finite or negative latency: it walks the degradation chain
//! Hybrid → OperatorLevel → PlanLevel → optimizer-cost scaling →
//! training-prior, skipping tiers whose inputs are corrupted or whose
//! circuit breaker has tripped after repeated invalid outputs.

use crate::dataset::ExecutedQuery;
use crate::error::QppError;
use crate::features::{plan_features, FeatureSource, NodeView};
use crate::hybrid::{train_hybrid_recorded, HybridConfig, HybridModel, PlanOrdering};
use crate::op_model::{OpLevelModel, OpModelConfig};
use crate::plan_model::{map_batch, PlanLevelModel, PlanModelConfig, PredictBuffers};
use engine::plan::PlanNode;
use ml::stats::median;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Which prediction method to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Single plan-level model (Section 3.1).
    PlanLevel,
    /// Composed operator-level models (Section 3.2).
    OperatorLevel,
    /// Hybrid with the given plan-ordering strategy (Section 3.4).
    Hybrid(PlanOrdering),
}

/// The tier that actually produced a checked prediction, in degradation
/// order: the three learned models, then two analytical fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionTier {
    /// The hybrid model (Section 3.4).
    Hybrid,
    /// Composed operator-level models (Section 3.2).
    OperatorLevel,
    /// The single plan-level model (Section 3.1).
    PlanLevel,
    /// Optimizer cost estimate × the training-time seconds-per-cost-unit
    /// ratio (the paper's Section 5.2 baseline, used here as a fallback).
    CostScaling,
    /// Median training latency — the last resort when even the optimizer
    /// cost estimate is unusable.
    TrainingPrior,
}

/// A guarded prediction: always finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted latency in seconds (finite, `>= 0`).
    pub value: f64,
    /// The tier that produced the value.
    pub method_used: PredictionTier,
    /// True when the value did not come from the requested method.
    pub degraded: bool,
}

/// Consecutive invalid outputs after which a model tier's circuit breaker
/// opens and [`QppPredictor::predict_checked`] stops consulting it. An open
/// tier produces no output that could close it again: only
/// [`QppPredictor::reset_breakers`] or a fresh predictor (a promotion)
/// does.
const BREAKER_THRESHOLD: u32 = 3;

/// Training configuration for the full predictor.
#[derive(Debug, Clone, Default)]
pub struct QppConfig {
    /// Plan-level settings.
    pub plan: PlanModelConfig,
    /// Operator-level settings.
    pub op: OpModelConfig,
    /// Hybrid settings.
    pub hybrid: HybridConfig,
}

/// A trained predictor holding all three offline model sets.
pub struct QppPredictor {
    /// Plan-level model.
    pub plan_level: PlanLevelModel,
    /// Operator-level models: the same model as `hybrid.op_model`.
    pub op_level: Arc<OpLevelModel>,
    /// Hybrid model (operator models + accepted sub-plan models).
    pub hybrid: HybridModel,
    /// `hybrid`'s model-set signature, which keys its entries in a
    /// prediction cache: computed where the predictor is built, read by
    /// every batch.
    hybrid_signature: u64,
    config: QppConfig,
    /// Median observed seconds per optimizer cost unit at training time
    /// (NaN when no training query had a usable cost estimate).
    secs_per_cost: f64,
    /// Median training latency (the last-resort prior).
    prior_latency: f64,
    /// Each learned tier's error as training measured it, in
    /// [`MODEL_TIERS`] order (see [`QppPredictor::recorded_error`]).
    pub(crate) recorded_error: [f64; 3],
    /// Consecutive-invalid-output counters per model tier
    /// (Hybrid, OperatorLevel, PlanLevel).
    breakers: [AtomicU32; 3],
}

/// The three learned tiers, in degradation order. The recorded errors and
/// the drift monitor's per-tier state are kept by position in this array.
pub const MODEL_TIERS: [PredictionTier; 3] = [
    PredictionTier::Hybrid,
    PredictionTier::OperatorLevel,
    PredictionTier::PlanLevel,
];

/// Every tier of the degradation chain, in the order
/// [`QppPredictor::predict_checked`] walks it. The wire codec and the
/// serving ledger index tiers by position in this array.
pub const ALL_TIERS: [PredictionTier; 5] = [
    PredictionTier::Hybrid,
    PredictionTier::OperatorLevel,
    PredictionTier::PlanLevel,
    PredictionTier::CostScaling,
    PredictionTier::TrainingPrior,
];

/// Position of a tier in the degradation chain (0 = Hybrid … 4 =
/// TrainingPrior).
pub fn tier_rank(tier: PredictionTier) -> usize {
    ALL_TIERS
        .iter()
        .position(|t| *t == tier)
        .expect("ALL_TIERS covers every tier")
}

impl Method {
    /// The learned tier this method natively resolves to — where the
    /// degradation chain starts for the method.
    pub fn tier(self) -> PredictionTier {
        match self {
            Method::Hybrid(_) => PredictionTier::Hybrid,
            Method::OperatorLevel => PredictionTier::OperatorLevel,
            Method::PlanLevel => PredictionTier::PlanLevel,
        }
    }
}

fn is_sane(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// The guard every learned tier passes first: the query's plan-level
/// features, under the views the tier reads, are all finite.
fn features_finite(plan: &[PlanNode], views: &[NodeView]) -> bool {
    plan_features(plan, views).iter().all(|v| v.is_finite())
}

fn tier_index(tier: PredictionTier) -> Option<usize> {
    MODEL_TIERS.iter().position(|t| *t == tier)
}

impl QppPredictor {
    /// Trains all offline models on the given training queries.
    pub fn train(queries: &[&ExecutedQuery], config: QppConfig) -> Result<Self, QppError> {
        if queries.is_empty() {
            return Err(QppError::NoTrainingData);
        }
        // The plan-level and operator-level models are independent; train
        // them concurrently. The plan-level result is checked first, so a
        // double failure reports the same error the serial code did.
        let (plan_res, op_res) = ml::par::join2(
            || PlanLevelModel::train_recorded(queries, &config.plan),
            || OpLevelModel::train(queries, &config.op),
        );
        let (plan_level, plan_error) = plan_res?;
        let op_level = Arc::new(op_res?);
        let (hybrid, _, walk) =
            train_hybrid_recorded(queries, Arc::clone(&op_level), &config.hybrid)?;
        let ratios: Vec<f64> = queries
            .iter()
            .filter_map(|q| {
                let c = q.plan[0].est.total_cost;
                let l = q.latency();
                if c.is_finite() && c > 0.0 && l.is_finite() && l >= 0.0 {
                    Some(l / c)
                } else {
                    None
                }
            })
            .collect();
        let secs_per_cost = median(&ratios);
        let lats: Vec<f64> = queries
            .iter()
            .map(|q| q.latency())
            .filter(|l| l.is_finite() && *l >= 0.0)
            .collect();
        let prior_latency = if lats.is_empty() { 0.0 } else { median(&lats) };
        Ok(QppPredictor {
            plan_level,
            op_level,
            hybrid_signature: hybrid.plan_model_signature(),
            hybrid,
            config,
            secs_per_cost,
            prior_latency,
            recorded_error: [walk.hybrid, walk.operator_level, plan_error],
            breakers: [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)],
        })
    }

    /// Predicts a query's latency with the chosen method (unguarded: may
    /// propagate garbage from corrupted inputs; prefer
    /// [`QppPredictor::predict_checked`] when the input is untrusted).
    pub fn predict(&self, query: &ExecutedQuery, method: Method) -> f64 {
        match method {
            Method::PlanLevel => self.plan_level.predict(query),
            Method::OperatorLevel => self.op_level.predict(query),
            Method::Hybrid(_) => self.hybrid.predict(query),
        }
    }

    /// Predicts a batch of queries with the chosen method, in input order
    /// and bit-identical to a serial [`QppPredictor::predict`] loop.
    ///
    /// Batching amortizes feature extraction, fans out over `ml::par` for
    /// large batches, and (for the hybrid method) shares a plan memo cache
    /// across the batch so a repeated plan is walked once.
    pub fn predict_batch(&self, queries: &[&ExecutedQuery], method: Method) -> Vec<f64> {
        match method {
            Method::PlanLevel => self.plan_level.predict_batch(queries),
            Method::OperatorLevel => self.op_level.predict_batch(queries),
            Method::Hybrid(_) => self.hybrid.predict_batch(queries),
        }
    }

    /// Predicts a query's latency, guaranteed finite and non-negative.
    ///
    /// Walks the degradation chain starting at the requested method:
    /// Hybrid → OperatorLevel → PlanLevel → cost scaling → training prior.
    /// A learned tier is consulted only if its circuit breaker is closed
    /// and the query's logged features (for that tier's feature source)
    /// are all finite; an invalid output advances the tier's breaker, a
    /// valid one resets its count. The two analytical fallbacks never fail: cost
    /// scaling needs only a finite optimizer estimate, and the training
    /// prior is a constant.
    pub fn predict_checked(&self, query: &ExecutedQuery, method: Method) -> Prediction {
        let requested = method.tier();
        self.chain(query, tier_rank(requested), requested)
    }

    /// Walks the chain from rank `start` (an index into [`ALL_TIERS`],
    /// always a learned tier's), reporting `degraded` relative to
    /// `requested`.
    fn chain(&self, query: &ExecutedQuery, start: usize, requested: PredictionTier) -> Prediction {
        // Features-finite checks, cached per source (Estimated / Actual).
        let mut cache = [None::<bool>; 2];
        let mut features_ok = |src: FeatureSource| -> bool {
            let k = match src {
                FeatureSource::Estimated => 0,
                FeatureSource::Actual => 1,
            };
            *cache[k].get_or_insert_with(|| {
                PredictBuffers::with_thread_local(|buf| {
                    query.views_into(src, &mut buf.views);
                    features_finite(&query.plan, &buf.views)
                })
            })
        };
        for (i, &tier) in MODEL_TIERS.iter().enumerate().skip(start) {
            if self.breakers[i].load(Ordering::Relaxed) >= BREAKER_THRESHOLD {
                continue;
            }
            if !features_ok(self.tier_source(tier)) {
                // Corrupted inputs are not the model's fault: skip the
                // tier without advancing its breaker.
                continue;
            }
            let value = match tier {
                PredictionTier::Hybrid => self.hybrid.predict(query),
                PredictionTier::OperatorLevel => self.op_level.predict(query),
                _ => self.plan_level.predict(query),
            };
            if is_sane(value) {
                self.breakers[i].store(0, Ordering::Relaxed);
                return Prediction {
                    value,
                    method_used: tier,
                    degraded: tier != requested,
                };
            }
            self.breakers[i].fetch_add(1, Ordering::Relaxed);
        }
        let cost = query.plan[0].est.total_cost;
        if cost.is_finite() && cost >= 0.0 {
            let value = cost * self.secs_per_cost;
            if is_sane(value) {
                return Prediction {
                    value,
                    method_used: PredictionTier::CostScaling,
                    degraded: true,
                };
            }
        }
        Prediction {
            value: self.prior_latency,
            method_used: PredictionTier::TrainingPrior,
            degraded: true,
        }
    }

    /// Batched [`QppPredictor::predict_checked`]: one fan-out evaluates the
    /// entry tier on every query (the hybrid tier through the shared plan
    /// memo `cache`) and checks the query's features on the views
    /// that evaluation resolved. Only queries the entry tier cannot serve —
    /// corrupted features, an open breaker, an insane output — fall back to
    /// the per-query chain walk. Results are in input order and
    /// bit-identical to a serial [`QppPredictor::predict_checked`] loop,
    /// because every batch path is bit-identical to its single-query
    /// counterpart.
    pub fn predict_checked_batch_cached(
        &self,
        queries: &[&ExecutedQuery],
        method: Method,
        cache: &crate::pred_cache::PredictionCache,
    ) -> Vec<Prediction> {
        let start = method.tier();
        let i = tier_rank(start);
        debug_assert!(i < MODEL_TIERS.len());
        if self.breakers[i].load(Ordering::Relaxed) >= BREAKER_THRESHOLD {
            // The whole entry tier is out: every query takes the same
            // walk, which skips the open breaker consistently.
            return queries.iter().map(|q| self.chain(q, i, start)).collect();
        }
        // Only the hybrid tier keys the memo cache, by its model set.
        let sig = self.hybrid_signature;
        let evaluated = map_batch(queries, |q, buf| {
            let value = match start {
                PredictionTier::Hybrid => self.hybrid.predict_memo_with(q, sig, cache, buf),
                PredictionTier::OperatorLevel => self.op_level.predict_with(q, buf),
                _ => self.plan_level.predict_with(q, buf),
            };
            (value, features_finite(&q.plan, &buf.views))
        });
        queries
            .iter()
            .zip(evaluated)
            .map(|(q, (value, finite))| {
                if finite && is_sane(value) {
                    self.breakers[i].store(0, Ordering::Relaxed);
                    return Prediction {
                        value,
                        method_used: start,
                        degraded: false,
                    };
                }
                if finite {
                    // The model produced garbage from clean inputs:
                    // advance the breaker exactly like the single path.
                    self.breakers[i].fetch_add(1, Ordering::Relaxed);
                }
                self.chain(q, i + 1, start)
            })
            .collect()
    }

    /// True when the given learned tier's circuit breaker is open (always
    /// false for the analytical fallback tiers).
    pub fn breaker_tripped(&self, tier: PredictionTier) -> bool {
        match tier_index(tier) {
            Some(i) => {
                self.breakers[i].load(Ordering::Relaxed) >= BREAKER_THRESHOLD
            }
            None => false,
        }
    }

    /// Closes all circuit breakers (e.g. after retraining or when the
    /// input corruption source is known to be fixed).
    pub fn reset_breakers(&self) {
        for b in &self.breakers {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Opens the given learned tier's circuit breaker immediately, so
    /// [`QppPredictor::predict_checked`] degrades past it. Used by the
    /// drift monitor when it quarantines a tier whose residuals have
    /// drifted: a stale model is treated exactly like one emitting invalid
    /// outputs. No-op for the analytical fallback tiers. The breaker stays
    /// open — the chain skips the tier, so it produces no output that could
    /// close it — until [`QppPredictor::reset_breakers`] or a promotion
    /// replaces the predictor.
    pub fn trip_breaker(&self, tier: PredictionTier) {
        if let Some(i) = tier_index(tier) {
            self.breakers[i].store(BREAKER_THRESHOLD, Ordering::Relaxed);
        }
    }

    /// Median observed seconds per optimizer cost unit at training time
    /// (NaN when no training query had a usable cost estimate).
    pub fn secs_per_cost(&self) -> f64 {
        self.secs_per_cost
    }

    /// Median training latency (the last-resort prior).
    pub fn prior_latency(&self) -> f64 {
        self.prior_latency
    }

    /// A learned tier's mean relative error as training measured it, from
    /// numbers training computes anyway: for the plan level, its
    /// out-of-fold predictions in the stratified cross-validation that
    /// selected its features; for the operator level and the hybrid,
    /// Algorithm 1's walk of the training log before its first iteration
    /// and after its last. The drift monitor's baseline. `None` for the
    /// analytical fallback tiers.
    pub fn recorded_error(&self, tier: PredictionTier) -> Option<f64> {
        tier_index(tier).map(|i| self.recorded_error[i])
    }

    /// The training configuration this predictor was built with.
    pub fn config(&self) -> &QppConfig {
        &self.config
    }

    /// Rebuilds a predictor from a materialized model set without
    /// retraining (the registry's snapshot-load path). The predictor
    /// shares the set's operator-level models rather than copying them.
    ///
    /// Circuit breakers start closed. Callers should run
    /// [`crate::materialize::MaterializedModels::validate`] first — this
    /// constructor trusts the model set it is given.
    pub fn from_materialized(
        mat: &crate::materialize::MaterializedModels,
        config: QppConfig,
    ) -> QppPredictor {
        let hybrid = mat.hybrid();
        QppPredictor {
            plan_level: mat.plan_level.clone(),
            op_level: Arc::clone(&mat.op_level),
            hybrid_signature: hybrid.plan_model_signature(),
            hybrid,
            config,
            secs_per_cost: mat.secs_per_cost,
            prior_latency: mat.prior_latency,
            recorded_error: mat.recorded_error,
            breakers: [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)],
        }
    }

    /// Feature source in use.
    pub fn source(&self) -> FeatureSource {
        self.op_level.source()
    }

    /// The feature source a learned tier's model reads.
    fn tier_source(&self, tier: PredictionTier) -> FeatureSource {
        match tier {
            PredictionTier::Hybrid => self.hybrid.op_model.source(),
            PredictionTier::OperatorLevel => self.op_level.source(),
            _ => self.plan_level.source(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};
    use ml::mean_relative_error;

    fn dataset() -> QueryDataset {
        quiet_log(&[1, 3, 6, 14], 10, 0.1)
    }

    const ALL_METHODS: [Method; 3] = [
        Method::PlanLevel,
        Method::OperatorLevel,
        Method::Hybrid(PlanOrdering::ErrorBased),
    ];

    #[test]
    fn facade_trains_and_predicts_with_all_methods() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        let actual: Vec<f64> = refs.iter().map(|q| q.latency()).collect();
        for method in ALL_METHODS {
            let preds: Vec<f64> = refs.iter().map(|q| qpp.predict(q, method)).collect();
            let err = mean_relative_error(&actual, &preds);
            assert!(err.is_finite(), "{method:?}: {err}");
            assert!(err < 1.0, "{method:?} training error = {err}");
            // The operator-level and hybrid records are these in-sample
            // errors; the plan level records an out-of-fold one.
            let recorded = qpp.recorded_error(method.tier()).expect("a learned tier");
            assert!(recorded.is_finite() && recorded >= 0.0, "{method:?}: {recorded}");
            if method != Method::PlanLevel {
                assert_eq!(recorded.to_bits(), err.to_bits(), "{method:?}");
            }
        }
        assert_eq!(qpp.recorded_error(PredictionTier::CostScaling), None);
    }

    #[test]
    fn training_on_empty_data_is_an_error_not_a_panic() {
        assert_eq!(
            QppPredictor::train(&[], QppConfig::default()).err(),
            Some(QppError::NoTrainingData)
        );
    }

    #[test]
    fn training_on_one_query_is_an_error_not_a_panic() {
        let ds = dataset();
        let one = [&ds.queries[0]];
        assert_eq!(
            QppPredictor::train(&one, QppConfig::default()).err(),
            Some(QppError::NoTrainingData)
        );
        // Two queries leave one to hold out.
        let two = [&ds.queries[0], &ds.queries[1]];
        assert!(QppPredictor::train(&two, QppConfig::default()).is_ok());
    }

    #[test]
    fn checked_predictions_match_unchecked_on_clean_data() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        for q in &refs {
            for method in ALL_METHODS {
                let p = qpp.predict_checked(q, method);
                assert_eq!(p.value, qpp.predict(q, method));
                assert!(!p.degraded);
                let expected = match method {
                    Method::PlanLevel => PredictionTier::PlanLevel,
                    Method::OperatorLevel => PredictionTier::OperatorLevel,
                    Method::Hybrid(_) => PredictionTier::Hybrid,
                };
                assert_eq!(p.method_used, expected);
            }
        }
    }

    #[test]
    fn tripped_breaker_degrades_to_the_next_tier_and_reset_restores() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        let q = refs[0];
        let hybrid = Method::Hybrid(PlanOrdering::ErrorBased);
        qpp.breakers[0].store(BREAKER_THRESHOLD, Ordering::Relaxed);
        assert!(qpp.breaker_tripped(PredictionTier::Hybrid));
        // Clean requests do not close an open breaker: the chain skips the
        // tier, so it never produces a valid output that could.
        for q in &refs[..10] {
            let p = qpp.predict_checked(q, hybrid);
            assert!(p.degraded);
            assert_eq!(p.method_used, PredictionTier::OperatorLevel);
            assert!(is_sane(p.value));
        }
        let cache = crate::pred_cache::PredictionCache::default();
        let batch = qpp.predict_checked_batch_cached(&refs[..10], hybrid, &cache);
        assert!(batch.iter().all(|p| p.degraded));
        assert!(qpp.breaker_tripped(PredictionTier::Hybrid));
        qpp.reset_breakers();
        assert!(!qpp.breaker_tripped(PredictionTier::Hybrid));
        let p = qpp.predict_checked(q, hybrid);
        assert!(!p.degraded);
        assert_eq!(p.method_used, PredictionTier::Hybrid);
    }

    #[test]
    fn corrupted_estimates_fall_through_to_analytical_tiers() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();

        // NaN row estimate (but a usable cost): models skip, cost scales.
        let mut q = ds.queries[0].clone();
        q.plan[0].est.rows = f64::NAN;
        for method in ALL_METHODS {
            let p = qpp.predict_checked(&q, method);
            assert!(is_sane(p.value), "{method:?}: {p:?}");
            assert!(p.degraded);
            assert_eq!(p.method_used, PredictionTier::CostScaling);
        }

        // NaN cost too: only the training prior is left.
        q.plan[0].est.total_cost = f64::NAN;
        for method in ALL_METHODS {
            let p = qpp.predict_checked(&q, method);
            assert!(is_sane(p.value), "{method:?}: {p:?}");
            assert_eq!(p.method_used, PredictionTier::TrainingPrior);
        }
        // Input corruption must not have tripped any breaker.
        for tier in MODEL_TIERS {
            assert!(!qpp.breaker_tripped(tier));
        }
    }

    #[test]
    fn checked_batch_is_bit_identical_to_the_serial_checked_loop() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        let cache = crate::pred_cache::PredictionCache::default();
        for method in ALL_METHODS {
            let serial: Vec<u64> = refs
                .iter()
                .map(|q| qpp.predict_checked(q, method).value.to_bits())
                .collect();
            let batched: Vec<u64> = qpp
                .predict_checked_batch_cached(&refs, method, &cache)
                .iter()
                .map(|p| p.value.to_bits())
                .collect();
            assert_eq!(serial, batched, "{method:?}");
        }
    }

    #[test]
    fn checked_batch_degrades_per_query_on_corrupted_inputs() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let qpp = QppPredictor::train(&refs, QppConfig::default()).unwrap();
        let mut bad = ds.queries[0].clone();
        bad.plan[0].est.rows = f64::NAN;
        let mixed: Vec<&ExecutedQuery> = vec![refs[0], &bad, refs[1]];
        let cache = crate::pred_cache::PredictionCache::default();
        let out =
            qpp.predict_checked_batch_cached(&mixed, Method::Hybrid(PlanOrdering::ErrorBased), &cache);
        assert_eq!(out[0].method_used, PredictionTier::Hybrid);
        assert_eq!(out[2].method_used, PredictionTier::Hybrid);
        assert_eq!(out[1].method_used, PredictionTier::CostScaling);
        assert!(out[1].degraded);
        assert!(is_sane(out[1].value));
        // Corrupted inputs must not trip the entry tier's breaker.
        assert!(!qpp.breaker_tripped(PredictionTier::Hybrid));
    }

    #[test]
    fn tier_rank_orders_the_full_chain() {
        for (i, t) in ALL_TIERS.iter().enumerate() {
            assert_eq!(tier_rank(*t), i);
        }
        assert_eq!(Method::Hybrid(PlanOrdering::ErrorBased).tier(), PredictionTier::Hybrid);
        assert_eq!(Method::OperatorLevel.tier(), PredictionTier::OperatorLevel);
        assert_eq!(Method::PlanLevel.tier(), PredictionTier::PlanLevel);
    }
}
