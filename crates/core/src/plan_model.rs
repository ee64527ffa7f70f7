//! Plan-level performance prediction (Section 3.1).
//!
//! A single model per workload maps the Table-1 plan feature vector to
//! query latency. Following the paper, features are ranked by correlation
//! and selected with best-first forward selection (a model on the full
//! feature set is frequently *worse*), and the model family is SVR.

use crate::dataset::ExecutedQuery;
use crate::error::QppError;
use crate::features::{plan_feature_names, plan_features, FeatureSource, NodeView};
use engine::plan::PlanNode;
use ml::bytes::{put_count, put_f64, put_u32, Malformed, Reader};
use ml::cv::{stratified_kfold, Fold};
use ml::{
    forward_select, mean_relative_error, Dataset, ForwardSelection, Learner, LearnerKind, MlError,
    PredictScratch, TrainedModel,
};
use std::cell::RefCell;

/// Smallest batch the plan-, operator- and hybrid-level inference paths
/// hand to `ml::par`, which wakes a helper for every fan-out. A query is
/// about a microsecond of arithmetic: a 64-query plan-level batch reads
/// 1.05–1.51 times faster on two threads than on one (DESIGN.md §7), and
/// a smaller batch (a coalesced serve batch is at most 32 requests) stays
/// on the thread that holds it, so serve workers do not take each other's
/// helper.
pub(crate) const PAR_BATCH_MIN: usize = 64;

/// Which performance metric a plan-level model predicts.
///
/// The techniques are metric-agnostic (Section 1: "can be used in the
/// prediction of other metrics"); latency is the paper's focus, disk I/O
/// the natural second target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMetric {
    /// Query execution latency in seconds.
    Latency,
    /// Physical disk traffic in pages.
    DiskIo,
}

impl TargetMetric {
    fn encode(self, out: &mut Vec<u8>) {
        out.push(match self {
            TargetMetric::Latency => 0,
            TargetMetric::DiskIo => 1,
        });
    }

    fn decode(r: &mut Reader) -> Result<TargetMetric, Malformed> {
        match r.u8()? {
            0 => Ok(TargetMetric::Latency),
            1 => Ok(TargetMetric::DiskIo),
            _ => Err(Malformed("unknown target-metric tag")),
        }
    }
}

/// Seed of the fold assignment.
const FOLD_SEED: u64 = 42;

/// Forward selection of the plan-level model: patience 4, no cap.
const SELECTION: ForwardSelection = ForwardSelection {
    patience: 4,
    max_features: 0,
};

/// Cross-validation folds used during feature selection.
const FOLDS: usize = 5;

/// The plan-level model fits `ln(1 + latency)`: latencies span orders of
/// magnitude and the metric is relative error.
const LOG_TARGET: bool = true;

/// How far outside its training range, in spans of that range, a selected
/// feature may lie before [`FeatureModel::in_range`] refuses the row (the
/// online method's applicability guard).
const IN_RANGE_MARGIN: f64 = 1.0;

/// Configuration of plan-level model training.
#[derive(Debug, Clone)]
pub struct PlanModelConfig {
    /// Model family (the paper uses SVR for plan-level models).
    pub learner: LearnerKind,
    /// Feature source (estimates in deployment).
    pub source: FeatureSource,
    /// The performance metric to predict.
    pub metric: TargetMetric,
}

impl Default for PlanModelConfig {
    fn default() -> Self {
        PlanModelConfig {
            learner: LearnerKind::Svr(ml::SvrParams::default()),
            source: FeatureSource::Estimated,
            metric: TargetMetric::Latency,
        }
    }
}

/// The number of folds of a `k`-fold split over `n` rows: `k`, or `n` when
/// there are fewer rows; `None` when fewer than two rows leave nothing to
/// hold out.
pub(crate) fn fold_count(k: usize, n: usize) -> Option<usize> {
    (n >= 2).then(|| k.min(n))
}

/// A feature-selected trained model over a fixed feature vector layout.
///
/// With `log_target`, the model is fit on `ln(1 + y)` and predictions are
/// transformed back — appropriate when the target spans orders of
/// magnitude and the accuracy metric is *relative* error (query latencies
/// at 10 GB span 20 s to an hour).
#[derive(Debug, Clone)]
pub struct FeatureModel {
    /// Selected column indices into the full feature vector.
    pub selected: Vec<usize>,
    /// The trained model over the selected columns.
    pub model: TrainedModel,
    /// Cross-validated mean relative error at selection time (in the
    /// training target space).
    pub cv_error: f64,
    /// Whether the target was log-transformed.
    pub log_target: bool,
    /// Observed target range at training time; predictions are clamped to
    /// a widened version of it so kernel-model extrapolation far outside
    /// the training region cannot explode (especially after the inverse
    /// log transform).
    pub target_range: (f64, f64),
    /// Observed (min, max) of each *selected* feature at training time —
    /// the model's applicability region.
    pub feature_ranges: Vec<(f64, f64)>,
}

impl FeatureModel {
    /// Trains with forward selection over pre-assembled features. Also
    /// returns the error training measured for the model: the mean
    /// relative error against `y` of the out-of-fold predictions of the
    /// cross-validation that selected its features, each transformed back
    /// and clamped as a prediction is.
    pub(crate) fn train(
        x: &Dataset,
        y: &[f64],
        folds: &[Fold],
        learner: &LearnerKind,
        selection: &ForwardSelection,
        log_target: bool,
    ) -> Result<(FeatureModel, f64), MlError> {
        let yt = transform(y, log_target);
        let sel = forward_select(selection, learner, x, &yt, folds)?;
        let model = learner.fit(&x.select_columns(&sel.selected), &yt)?;
        let feature_ranges = sel.selected.iter().map(|&j| range(&x.column(j))).collect();
        let trained = FeatureModel {
            selected: sel.selected,
            model,
            cv_error: sel.cv_error,
            log_target,
            target_range: range(y),
            feature_ranges,
        };
        let out_of_fold: Vec<f64> = sel.predictions.iter().map(|&p| trained.finish(p)).collect();
        let error = mean_relative_error(y, &out_of_fold);
        Ok((trained, error))
    }

    /// Trains on the full feature set (no selection) — the ablation arm.
    pub(crate) fn train_full(
        x: &Dataset,
        y: &[f64],
        learner: &LearnerKind,
        log_target: bool,
    ) -> Result<FeatureModel, MlError> {
        let yt = transform(y, log_target);
        let selected: Vec<usize> = (0..x.n_cols()).collect();
        let model = learner.fit(x, &yt)?;
        let feature_ranges = selected.iter().map(|&j| range(&x.column(j))).collect();
        Ok(FeatureModel {
            selected,
            model,
            cv_error: f64::NAN,
            log_target,
            target_range: range(y),
            feature_ranges,
        })
    }

    /// Predicts from a full feature vector (projects to selected columns).
    pub(crate) fn predict(&self, full_features: &[f64]) -> f64 {
        PredictBuffers::with_thread_local(|buf| {
            self.predict_into(full_features, &mut buf.row, &mut buf.scratch)
        })
    }

    /// Allocation-free prediction using caller-owned scratch: `row` takes
    /// the projected features, `scratch` the model's scaled row.
    ///
    /// Every prediction path routes through this, so this model's
    /// predictions carry [`TrainedModel::predict_into`]'s numeric contract
    /// (see `ml::compiled`): a linear model is bit-identical to
    /// [`TrainedModel::predict`]; an SVR sums in one fixed lane-tree
    /// order — the same bits on any host, thread count or batch size, and
    /// the order cross-validation scored it in.
    /// [`FeatureModel::predict`] delegates here with the thread's
    /// [`PredictBuffers`].
    pub(crate) fn predict_into(
        &self,
        full_features: &[f64],
        row: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) -> f64 {
        row.clear();
        row.extend(self.selected.iter().map(|&i| full_features[i]));
        let raw = self.model.predict_into(row, scratch);
        self.finish(raw)
    }

    /// Undoes the training-target transform and applies the extrapolation
    /// clamp — the shared tail of every prediction path.
    fn finish(&self, raw: f64) -> f64 {
        let value = if self.log_target {
            raw.exp() - 1.0
        } else {
            raw
        };
        let (lo, hi) = self.target_range;
        value.clamp(lo * 0.3, (hi * 3.0).max(lo + 1.0))
    }

    /// Whether a full feature vector lies inside the training region
    /// widened by one span of each selected feature's range — the model's
    /// applicability check, used by the online method before trusting a
    /// freshly built model on an unforeseen plan.
    pub(crate) fn in_range(&self, full_features: &[f64]) -> bool {
        self.selected
            .iter()
            .zip(&self.feature_ranges)
            .all(|(&j, &(lo, hi))| {
                let v = full_features[j];
                let span = (hi - lo).max(lo.abs().max(hi.abs()) * 0.1).max(1e-9);
                v >= lo - IN_RANGE_MARGIN * span && v <= hi + IN_RANGE_MARGIN * span
            })
    }

    /// Structural validation against the feature vector arity this model
    /// is served with — the snapshot-load gate. Returns the failed check
    /// as a message; callers wrap it into
    /// [`crate::error::QppError::InvalidSnapshot`].
    pub(crate) fn validate(&self, full_arity: usize) -> Result<(), String> {
        if !self.model.weights_finite() {
            return Err("model contains non-finite weights".to_string());
        }
        if self.model.n_features() != self.selected.len() {
            return Err(format!(
                "feature arity mismatch: model expects {} features, {} selected",
                self.model.n_features(),
                self.selected.len()
            ));
        }
        if let Some(&j) = self.selected.iter().find(|&&j| j >= full_arity) {
            return Err(format!(
                "selected feature index {j} out of range (arity {full_arity})"
            ));
        }
        if self.feature_ranges.len() != self.selected.len() {
            return Err(format!(
                "feature-range count {} does not match {} selected features",
                self.feature_ranges.len(),
                self.selected.len()
            ));
        }
        if self
            .feature_ranges
            .iter()
            .any(|(lo, hi)| !lo.is_finite() || !hi.is_finite())
        {
            return Err("non-finite feature range".to_string());
        }
        let (lo, hi) = self.target_range;
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(format!("invalid target range ({lo}, {hi})"));
        }
        Ok(())
    }

    /// Appends the model to a snapshot payload; column indices travel as
    /// `u32`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.selected.len());
        for &j in &self.selected {
            put_u32(out, u32::try_from(j).expect("feature index fits u32"));
        }
        put_count(out, self.feature_ranges.len());
        for &(lo, hi) in &self.feature_ranges {
            put_f64(out, lo);
            put_f64(out, hi);
        }
        self.model.encode(out);
        put_f64(out, self.cv_error);
        out.push(u8::from(self.log_target));
        put_f64(out, self.target_range.0);
        put_f64(out, self.target_range.1);
    }

    /// Reads what [`FeatureModel::encode`] wrote. Shapes only:
    /// [`FeatureModel::validate`] judges the values afterwards.
    pub(crate) fn decode(r: &mut Reader) -> Result<FeatureModel, Malformed> {
        let n = r.count(4)?;
        let selected = (0..n)
            .map(|_| r.u32().map(|j| j as usize))
            .collect::<Result<_, _>>()?;
        let n = r.count(16)?;
        let feature_ranges = (0..n)
            .map(|_| Ok((r.f64()?, r.f64()?)))
            .collect::<Result<_, _>>()?;
        Ok(FeatureModel {
            selected,
            feature_ranges,
            model: TrainedModel::decode(r)?,
            cv_error: r.f64()?,
            log_target: r.bool()?,
            target_range: (r.f64()?, r.f64()?),
        })
    }

    /// Content fingerprint for cache-key signatures: FNV over the bytes a
    /// snapshot stores of the model — the selected columns, the
    /// training-time ranges, the CV error and the bits of every learned
    /// parameter. Two models fingerprint alike only when they would encode
    /// alike, so models trained on different data, with different
    /// selections, or differing in one weight's last bit, fingerprint
    /// differently even when they cover the same plan structures. It
    /// encodes the model, so it is computed where a model set is built,
    /// not per prediction.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        crate::pred_cache::hash_bytes(&bytes)
    }
}

/// One thread's reusable prediction buffers: the projected feature row and
/// the model's scaled-row scratch ([`FeatureModel::predict_into`]), and a
/// plan walk's views and structure hashes. With one instance per thread,
/// a steady-state prediction allocates nothing.
///
/// A walk borrows the fields it reads and the two it evaluates models with
/// as disjoint `&mut`s, so it never re-enters the thread-local.
#[derive(Debug, Default)]
pub(crate) struct PredictBuffers {
    /// Selected-feature row (projection target).
    pub(crate) row: Vec<f64>,
    /// Scaled-row scratch for the model's lane tree.
    pub(crate) scratch: PredictScratch,
    /// The plan's node views, pre-order.
    pub(crate) views: Vec<NodeView>,
    /// Structure hashes, pre-order
    /// ([`crate::subplan::structure_hashes_into`]).
    pub(crate) hashes: Vec<u64>,
}

impl PredictBuffers {
    /// Runs `f` with this thread's reusable buffers (fresh buffers if the
    /// thread-local is unavailable, e.g. re-entrant use).
    pub(crate) fn with_thread_local<T>(f: impl FnOnce(&mut PredictBuffers) -> T) -> T {
        thread_local! {
            static BUFFERS: RefCell<PredictBuffers> = RefCell::new(PredictBuffers::default());
        }
        BUFFERS.with(|cell| match cell.try_borrow_mut() {
            Ok(mut buf) => f(&mut buf),
            Err(_) => f(&mut PredictBuffers::default()),
        })
    }
}

/// Maps `f` over a batch of queries in input order, each call with this
/// thread's [`PredictBuffers`]: one `ml::par` fan-out for a batch of
/// [`PAR_BATCH_MIN`] or more, the calling thread otherwise.
pub(crate) fn map_batch<T: Send>(
    queries: &[&ExecutedQuery],
    f: impl Fn(&ExecutedQuery, &mut PredictBuffers) -> T + Sync,
) -> Vec<T> {
    let one = |q: &ExecutedQuery| PredictBuffers::with_thread_local(|buf| f(q, buf));
    if queries.len() >= PAR_BATCH_MIN && ml::par::threads() > 1 {
        ml::par::par_map(queries, |_, q| one(q))
    } else {
        queries.iter().map(|q| one(q)).collect()
    }
}

fn range(y: &[f64]) -> (f64, f64) {
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() && hi.is_finite() {
        (lo, hi)
    } else {
        (0.0, f64::MAX / 8.0)
    }
}

fn transform(y: &[f64], log_target: bool) -> Vec<f64> {
    if log_target {
        y.iter().map(|v| (v.max(0.0) + 1.0).ln()).collect()
    } else {
        y.to_vec()
    }
}

/// The plan-level QPP model.
#[derive(Debug, Clone)]
pub struct PlanLevelModel {
    inner: FeatureModel,
    source: FeatureSource,
    metric: TargetMetric,
}

impl PlanLevelModel {
    /// Trains on executed queries; folds are stratified by template
    /// (Section 5.1's stratified sampling). Selection needs two queries to
    /// hold one out: fewer is [`QppError::NoTrainingData`].
    pub fn train(queries: &[&ExecutedQuery], config: &PlanModelConfig) -> Result<Self, QppError> {
        Ok(Self::train_recorded(queries, config)?.0)
    }

    /// [`PlanLevelModel::train`], also returning the model's recorded
    /// error: the mean relative error of the out-of-fold predictions of the
    /// stratified cross-validation that selected its features, in the
    /// metric's own space (see [`FeatureModel::train`]).
    pub(crate) fn train_recorded(
        queries: &[&ExecutedQuery],
        config: &PlanModelConfig,
    ) -> Result<(Self, f64), QppError> {
        let k = fold_count(FOLDS, queries.len()).ok_or(QppError::NoTrainingData)?;
        let (x, y) = assemble_metric(queries, config.source, config.metric);
        let strata: Vec<usize> = queries.iter().map(|q| q.template as usize).collect();
        let folds = stratified_kfold(&strata, k, FOLD_SEED);
        let (inner, error) =
            FeatureModel::train(&x, &y, &folds, &config.learner, &SELECTION, LOG_TARGET)?;
        let model = PlanLevelModel {
            inner,
            source: config.source,
            metric: config.metric,
        };
        Ok((model, error))
    }

    /// Trains on all features without selection (ablation).
    pub fn train_without_selection(
        queries: &[&ExecutedQuery],
        config: &PlanModelConfig,
    ) -> Result<Self, MlError> {
        let (x, y) = assemble_metric(queries, config.source, config.metric);
        let inner = FeatureModel::train_full(&x, &y, &config.learner, LOG_TARGET)?;
        Ok(PlanLevelModel {
            inner,
            source: config.source,
            metric: config.metric,
        })
    }

    /// The metric this model predicts.
    #[cfg(test)]
    pub(crate) fn metric(&self) -> TargetMetric {
        self.metric
    }

    /// The feature source this model was trained on.
    pub(crate) fn source(&self) -> FeatureSource {
        self.source
    }

    /// Predicts a query's target metric from its static features.
    pub fn predict(&self, query: &ExecutedQuery) -> f64 {
        PredictBuffers::with_thread_local(|buf| self.predict_with(query, buf))
    }

    /// [`PlanLevelModel::predict`] with caller-owned buffers; leaves the
    /// query's views in `buf.views`.
    pub(crate) fn predict_with(&self, query: &ExecutedQuery, buf: &mut PredictBuffers) -> f64 {
        query.views_into(self.source, &mut buf.views);
        let f = plan_features(&query.plan, &buf.views);
        self.inner
            .predict_into(&f, &mut buf.row, &mut buf.scratch)
            .max(0.0)
    }

    /// Predicts from a plan and aligned views (sub-plan capable).
    pub fn predict_plan(&self, plan: &[PlanNode], views: &[NodeView]) -> f64 {
        self.inner.predict(&plan_features(plan, views)).max(0.0)
    }

    /// Predicts a batch of queries in input order, bit-identical to a
    /// serial [`PlanLevelModel::predict`] loop: one fan-out over `ml::par`
    /// for a large batch, each query featurized and predicted where it
    /// lands.
    pub fn predict_batch(&self, queries: &[&ExecutedQuery]) -> Vec<f64> {
        map_batch(queries, |q, buf| self.predict_with(q, buf))
    }

    /// Names of the selected features (diagnostics).
    pub fn selected_feature_names(&self) -> Vec<String> {
        let names = plan_feature_names();
        self.inner
            .selected
            .iter()
            .map(|&i| names[i].clone())
            .collect()
    }

    /// Snapshot-load validation: checks the inner model against the
    /// plan-level feature arity (see [`FeatureModel::validate`]).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.inner
            .validate(crate::features::PLAN_FEATURES)
            .map_err(|e| format!("plan-level model: {e}"))
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
        self.source.encode(out);
        self.metric.encode(out);
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<PlanLevelModel, Malformed> {
        Ok(PlanLevelModel {
            inner: FeatureModel::decode(r)?,
            source: FeatureSource::decode(r)?,
            metric: TargetMetric::decode(r)?,
        })
    }
}

/// Assembles the (features, latency) design matrix for a set of queries.
pub fn assemble(queries: &[&ExecutedQuery], source: FeatureSource) -> (Dataset, Vec<f64>) {
    assemble_metric(queries, source, TargetMetric::Latency)
}

/// Assembles the design matrix with an explicit target metric: one view
/// buffer serves every plan, and each feature row is pushed straight from
/// [`plan_features`]' array.
pub(crate) fn assemble_metric(
    queries: &[&ExecutedQuery],
    source: FeatureSource,
    metric: TargetMetric,
) -> (Dataset, Vec<f64>) {
    let mut x = Dataset::new(crate::features::PLAN_FEATURES);
    let mut y = Vec::with_capacity(queries.len());
    let mut views = Vec::new();
    for q in queries {
        q.views_into(source, &mut views);
        x.push_row(&plan_features(&q.plan, &views));
        y.push(match metric {
            TargetMetric::Latency => q.latency(),
            TargetMetric::DiskIo => q.total_io_pages(),
        });
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};

    fn dataset() -> QueryDataset {
        quiet_log(&[1, 3, 6, 14], 12, 0.1)
    }

    #[test]
    fn plan_model_fits_static_workload_accurately() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
        let actual: Vec<f64> = refs.iter().map(|q| q.latency()).collect();
        let preds: Vec<f64> = refs.iter().map(|q| model.predict(q)).collect();
        let err = mean_relative_error(&actual, &preds);
        assert!(err < 0.15, "training error = {err}");
        assert!(!model.selected_feature_names().is_empty());
    }

    #[test]
    fn predictions_are_non_negative() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
        for q in &refs {
            assert!(model.predict(q) >= 0.0);
        }
    }

    #[test]
    fn no_selection_variant_trains() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model =
            PlanLevelModel::train_without_selection(&refs, &PlanModelConfig::default()).unwrap();
        assert_eq!(
            model.selected_feature_names().len(),
            crate::features::PLAN_FEATURES
        );
    }

    #[test]
    fn validate_accepts_trained_and_rejects_poisoned_models() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
        model.validate().expect("freshly trained model validates");

        // Non-finite weights (same module, so the private `inner` is
        // reachable for poisoning).
        let mut poisoned = model.clone();
        poisoned.inner.model = TrainedModel::Linear(ml::LinearModel {
            intercept: f64::NAN,
            weights: vec![0.0; poisoned.inner.selected.len()],
        });
        let err = poisoned.validate().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");

        // Model arity disagreeing with the selected-column count.
        let mut poisoned = model.clone();
        poisoned.inner.model = TrainedModel::Linear(ml::LinearModel {
            intercept: 0.0,
            weights: vec![0.0; poisoned.inner.selected.len() + 2],
        });
        let err = poisoned.validate().unwrap_err();
        assert!(err.contains("arity mismatch"), "{err}");

        // Selected index outside the plan feature vector.
        let mut poisoned = model.clone();
        poisoned.inner.selected[0] = 9999;
        let err = poisoned.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Non-finite training ranges.
        let mut poisoned = model.clone();
        poisoned.inner.target_range = (0.0, f64::INFINITY);
        let err = poisoned.validate().unwrap_err();
        assert!(err.contains("target range"), "{err}");
    }

    #[test]
    fn fingerprints_discriminate_model_content() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
        let same = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
        // Deterministic training: identical inputs, identical fingerprint.
        assert_eq!(model.inner.fingerprint(), same.inner.fingerprint());
        // Retraining on different data must change the fingerprint.
        let fewer: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
        let other = PlanLevelModel::train(&fewer, &PlanModelConfig::default()).unwrap();
        assert_ne!(model.inner.fingerprint(), other.inner.fingerprint());
    }

    #[test]
    fn a_fingerprint_covers_every_weight() {
        use crate::hybrid::{HybridModel, SubplanModel};
        use crate::subplan::StructureKey;
        use ml::SvrModel;
        let fixture = include_bytes!("../../../tests/data/fixture_seed42.qppsnap");
        let mat = crate::registry::decode_snapshot(fixture).expect("the golden snapshot decodes");
        let model = &mat.plan_level.inner;
        let TrainedModel::Svr(svr) = &model.model else {
            panic!("the fixture's plan level is an SVR");
        };
        // Move the first coefficient by one ULP. An SVR encodes its
        // coefficients, then its support vectors as rows, last.
        let mut bytes = Vec::new();
        svr.encode(&mut bytes);
        let at = bytes.len() - svr.n_support_vectors() * (svr.n_features() + 1) * 8;
        let c = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        bytes[at..at + 8].copy_from_slice(&f64::from_bits(c.to_bits() + 1).to_le_bytes());
        let mut moved = model.clone();
        moved.model = TrainedModel::Svr(SvrModel::decode(&mut Reader::new(&bytes)).unwrap());
        assert_ne!(moved.fingerprint(), model.fingerprint());

        // Same plan structure, new weights: a new model-set signature.
        let hybrid = |m: &FeatureModel| {
            let mut h = HybridModel::operator_only(mat.op_level.clone());
            let sub = SubplanModel {
                start: m.clone(),
                run: m.clone(),
                description: String::new(),
            };
            h.plan_models.insert(StructureKey(7), sub);
            h.plan_model_signature()
        };
        assert_ne!(hybrid(&moved), hybrid(model));
    }
}
