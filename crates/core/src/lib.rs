//! Learning-based query performance prediction.
//!
//! Reproduction of Akdere & Çetintemel, *Learning-based Query Performance
//! Modeling and Prediction* (ICDE 2012): predicting the execution latency
//! of a query plan before running it, from static (compile-time) features
//! only.
//!
//! - [`features`] — the paper's feature tables: plan-level (Table 1) and
//!   operator-level (Table 2) extraction, with estimated or actual values.
//! - [`dataset`] — executed-workload training logs.
//! - [`plan_model`] — plan-level models (SVR + forward feature selection).
//! - [`op_model`] — per-operator-type start-/run-time models composed
//!   bottom-up.
//! - [`subplan`] — sub-plan structure keys, occurrence index, common
//!   sub-plan analytics (Figure 4).
//! - [`hybrid`] — Algorithm 1 with the size-/frequency-/error-based plan
//!   ordering strategies.
//! - [`online`] — online model building for unforeseen plans (Section 4):
//!   sub-plan models built for the incoming plans, and a hybrid model
//!   extended by those that apply to one plan.
//! - `pred_cache` — bounded memo cache of whole-plan hybrid predictions
//!   keyed by (model signature, root structure hash, views hash); backs
//!   the batched hybrid inference path.
//! - [`progressive`] — progressive prediction with run-time features (the
//!   extension sketched in the paper's conclusions).
//! - `predictor` — the user-facing facade.
//! - `monitor` — the feedback loop: a CUSUM drift detector over the
//!   relative error of `(prediction, observed latency)` pairs, driving the
//!   Healthy → Suspect → Quarantined state machine.
//! - `registry` — versioned, checksummed model snapshots with validated
//!   hot swap, shadow retraining, and one-step rollback.
//! - `error` — the unified [`QppError`] across execution and learning.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dataset;
mod error;
pub mod features;
pub mod hybrid;
mod materialize;
mod monitor;
pub mod online;
pub mod op_model;
pub mod plan_model;
mod pred_cache;
mod predictor;
pub mod progressive;
mod registry;
pub mod subplan;

pub use dataset::{
    CollectionConfig, CollectionReport, ExecutedQuery, QueryDataset, ONE_HOUR_SECS,
};
pub use error::QppError;
pub use features::{plan_features, FeatureSource, NodeView};
pub use hybrid::{train_hybrid, HybridConfig, HybridModel, PlanOrdering};
pub use materialize::MaterializedModels;
pub use monitor::{DriftMonitor, ModelHealth};
pub use op_model::{OpLevelModel, OpModelConfig};
pub use plan_model::{PlanLevelModel, PlanModelConfig, TargetMetric};
pub use pred_cache::{PredictionCache, PredictionCacheStats};
pub use predictor::{
    tier_rank, Method, Prediction, PredictionTier, QppConfig, QppPredictor, ALL_TIERS,
    MODEL_TIERS,
};
pub use progressive::{observations_at, predict_progressive};
pub use registry::{decode_snapshot, encode_snapshot, ModelRegistry, PromotionReport};
pub use subplan::{structure_key, StructureKey, SubplanIndex};
