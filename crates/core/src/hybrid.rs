//! Hybrid query performance prediction (Section 3.4, Algorithm 1).
//!
//! Starts from the operator-level models and greedily adds plan-level
//! models for high-value sub-plans, chosen by a *plan ordering strategy*:
//!
//! - **size-based** — smaller fragments first (they recur most and are
//!   most likely to appear in future queries);
//! - **frequency-based** — most frequent fragments first;
//! - **error-based** — fragments ranked by `occurrence frequency × average
//!   prediction error` (attack the error mass directly).
//!
//! A candidate model is kept only if it improves overall training accuracy
//! by more than ε (`keeps_subplan_model`, the rule online building
//! shares); accepted models *consume* the occurrences they cover, which
//! updates the frequencies and errors of the remaining candidates —
//! exactly the bookkeeping Algorithm 1 describes.

use crate::dataset::ExecutedQuery;
use crate::error::QppError;
use crate::features::{plan_features, NodeView};
use crate::op_model::OpLevelModel;
use crate::plan_model::{fold_count, map_batch, FeatureModel, PredictBuffers};
use crate::pred_cache::{views_hash, PlanPredKey, PredictionCache};
use crate::subplan::{structure_hashes_into, StructureKey, SubplanIndex};
use engine::plan::{PlanNode, MAX_CHILDREN};
use ml::bytes::{put_str, Malformed, Reader};
use ml::cv::kfold;
use ml::metrics::{mean_relative_error, relative_error};
use ml::{Dataset, ForwardSelection, LearnerKind, PredictScratch};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The three plan-ordering strategies of Section 3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOrdering {
    /// Increasing number of operators; ties broken by frequency.
    SizeBased,
    /// Decreasing occurrence frequency; ties broken by size.
    FrequencyBased,
    /// Decreasing `frequency × average prediction error`.
    ErrorBased,
}

/// Sub-plans already predicted with average error at or below this are not
/// considered (the paper's 0.1 threshold for size/frequency ordering).
const SKIP_ERROR_BELOW: f64 = 0.1;

/// Seed of the fold assignment of every sub-plan model's selection.
const FOLD_SEED: u64 = 23;

/// CV folds of a sub-plan model's feature selection.
const FOLDS: usize = 4;

/// Forward selection of a sub-plan model: patience 3, at most six features.
const SELECTION: ForwardSelection = ForwardSelection {
    patience: 3,
    max_features: 6,
};

/// Sub-plan models fit log-transformed times, like the plan-level model.
const LOG_TARGET: bool = true;

/// Learner of the sub-plan models: RBF SVR, like the plan-level model.
const LEARNER: LearnerKind = LearnerKind::Svr(ml::SvrParams {
    kernel: ml::Kernel::Rbf { gamma: 0.0 },
});

/// Hybrid training configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Plan-ordering strategy.
    pub strategy: PlanOrdering,
    /// Stop when mean relative error on the training data reaches this.
    pub target_error: f64,
    /// Minimum error improvement for a model to be kept (Algorithm 1's ε).
    pub epsilon: f64,
    /// Hard iteration cap (the paper's fallback stopping condition).
    pub max_iterations: usize,
    /// Sub-plans occurring fewer times are not considered.
    pub min_frequency: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            strategy: PlanOrdering::ErrorBased,
            target_error: 0.05,
            epsilon: 1e-3,
            max_iterations: 30,
            min_frequency: 5,
        }
    }
}

/// Plan-level model of one sub-plan structure: start- and run-time heads.
#[derive(Debug, Clone)]
pub struct SubplanModel {
    /// Start-time model.
    pub start: FeatureModel,
    /// Run-time model.
    pub run: FeatureModel,
    /// Structure description (diagnostics).
    pub description: String,
}

impl SubplanModel {
    /// The description is a diagnostic: a snapshot keeps its first
    /// [`ml::bytes::MAX_STRING`] bytes.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.run.encode(out);
        put_str(out, &self.description);
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<SubplanModel, Malformed> {
        Ok(SubplanModel {
            start: FeatureModel::decode(r)?,
            run: FeatureModel::decode(r)?,
            description: r.str()?.to_string(),
        })
    }

    /// The fragment's predicted (start, run) from its plan-level features.
    fn times(
        &self,
        features: &[f64],
        row: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) -> (f64, f64) {
        let start = self.start.predict_into(features, row, scratch).max(0.0);
        let run = self.run.predict_into(features, row, scratch).max(start);
        (start, run)
    }
}

/// The hybrid predictor: operator-level models plus a set of sub-plan
/// plan-level models, composed per Section 3.4.
#[derive(Debug, Clone)]
pub struct HybridModel {
    /// The operator-level fallback models, shared: a predictor's
    /// operator level and the hybrid's are one model (Algorithm 1 *adds*
    /// plan-level models to it), and a clone of a hybrid, as online
    /// building makes per fragment, copies a pointer.
    pub op_model: Arc<OpLevelModel>,
    /// Plan-level models keyed by sub-plan structure.
    pub plan_models: HashMap<StructureKey, SubplanModel>,
}

/// Per-node outcome of a hybrid prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodePrediction {
    /// Composed by the operator-level models.
    Operator {
        /// Predicted (start, run).
        times: (f64, f64),
    },
    /// Predicted directly by a sub-plan plan-level model.
    PlanModel {
        /// Predicted (start, run).
        times: (f64, f64),
    },
    /// Inside a sub-plan covered by a plan-level model (not individually
    /// predicted).
    Covered,
}

impl NodePrediction {
    /// The (start, run) pair when the node was predicted.
    pub fn times(&self) -> Option<(f64, f64)> {
        match self {
            NodePrediction::Operator { times } | NodePrediction::PlanModel { times } => {
                Some(*times)
            }
            NodePrediction::Covered => None,
        }
    }
}

/// A full hybrid prediction.
#[derive(Debug, Clone)]
pub struct HybridPrediction {
    /// Per-node outcomes, pre-order.
    pub nodes: Vec<NodePrediction>,
    /// Predicted query latency.
    pub latency: f64,
}

impl HybridModel {
    /// A hybrid model with no plan-level models (pure operator-level).
    pub fn operator_only(op_model: impl Into<Arc<OpLevelModel>>) -> HybridModel {
        HybridModel {
            op_model: op_model.into(),
            plan_models: HashMap::new(),
        }
    }

    /// Predicts a query's latency.
    pub fn predict(&self, query: &ExecutedQuery) -> f64 {
        self.predict_detailed(query).latency
    }

    /// Predicts with per-node detail.
    pub fn predict_detailed(&self, query: &ExecutedQuery) -> HybridPrediction {
        let views = query.views(self.op_model.source());
        self.predict_plan(&query.plan, &views)
    }

    /// Predicts over an arbitrary plan with aligned views.
    pub fn predict_plan(&self, plan: &[PlanNode], views: &[NodeView]) -> HybridPrediction {
        let mut nodes = Vec::new();
        let latency = self.compose_plan(plan, views, &[], Some(&mut nodes));
        HybridPrediction { nodes, latency }
    }

    /// The walk of `plan` on this thread's [`PredictBuffers`], with
    /// `observed` overlaid (empty: nothing observed) and, given `record`,
    /// each node's outcome written to it; returns the latency.
    pub(crate) fn compose_plan(
        &self,
        plan: &[PlanNode],
        views: &[NodeView],
        observed: &[Option<(f64, f64)>],
        record: Option<&mut Vec<NodePrediction>>,
    ) -> f64 {
        PredictBuffers::with_thread_local(|buf| {
            structure_hashes_into(plan, &mut buf.hashes);
            let out: &mut [NodePrediction] = match record {
                Some(nodes) => {
                    nodes.resize(plan.len(), NodePrediction::Covered);
                    nodes
                }
                None => &mut [],
            };
            let mut walk = Walk {
                plan_models: Some(&self.plan_models),
                observed,
                hashes: &buf.hashes,
                out,
                ..Walk::operator_level(&self.op_model, plan, views, &mut buf.row, &mut buf.scratch)
            };
            let (_, run) = walk.compose();
            run.max(0.0)
        })
    }

    /// A *content* signature of this model set, used to key the
    /// prediction memo cache: FNV over the operator-model fingerprint and
    /// the sorted (structure key, sub-model fingerprint) pairs.
    ///
    /// Two models share cache entries only when their trained content
    /// matches, so a model [`crate::online::extend`] returns never shares
    /// entries with its base unless it added nothing, and a registry that
    /// hot-swaps a retrained model set (same plan structures, new weights)
    /// gets a different signature: stale memo entries from the replaced set
    /// can never answer for the new one.
    pub fn plan_model_signature(&self) -> u64 {
        let mut keyed: Vec<(u64, u64, u64)> = self
            .plan_models
            .iter()
            .map(|(k, m)| (k.0, m.start.fingerprint(), m.run.fingerprint()))
            .collect();
        keyed.sort_unstable();
        let mut h: Vec<u64> = Vec::with_capacity(1 + 3 * keyed.len());
        h.push(self.op_model.fingerprint());
        for (k, s, r) in keyed {
            h.push(k);
            h.push(s);
            h.push(r);
        }
        crate::pred_cache::hash_u64s(&h)
    }

    /// Predicts a batch of queries in input order, sharing a fresh memo
    /// cache across the batch so a plan that repeats (same structure, same
    /// estimates) is walked once. Bit-identical to a serial
    /// [`HybridModel::predict`] loop.
    pub fn predict_batch(&self, queries: &[&ExecutedQuery]) -> Vec<f64> {
        self.predict_batch_cached(queries, &PredictionCache::default())
    }

    /// [`HybridModel::predict_batch`] against a caller-owned cache, so
    /// memoized plan predictions survive across batches: a plan whose
    /// (structure, views) this model set already predicted is answered from
    /// `cache` without walking it. Large batches fan out over `ml::par`;
    /// results stay bit-identical to the serial loop regardless of thread
    /// count because every memoized value equals its recomputation
    /// bit-for-bit.
    pub fn predict_batch_cached(
        &self,
        queries: &[&ExecutedQuery],
        cache: &PredictionCache,
    ) -> Vec<f64> {
        let sig = self.plan_model_signature();
        map_batch(queries, |q, buf| self.predict_memo_with(q, sig, cache, buf))
    }

    /// One query of [`HybridModel::predict_batch_cached`] for the model set
    /// signed `sig`, with caller-owned buffers; leaves the query's views in
    /// `buf.views`. The memo is keyed by the whole plan: one lookup, and on
    /// a miss the one walk, [`Walk::compose`], whose latency is inserted.
    pub(crate) fn predict_memo_with(
        &self,
        query: &ExecutedQuery,
        sig: u64,
        cache: &PredictionCache,
        buf: &mut PredictBuffers,
    ) -> f64 {
        query.views_into(self.op_model.source(), &mut buf.views);
        structure_hashes_into(&query.plan, &mut buf.hashes);
        let key = PlanPredKey {
            model: sig,
            structure: buf.hashes[0],
            views: views_hash(&buf.views),
        };
        if let Some(latency) = cache.get(&key) {
            return latency;
        }
        let mut walk = Walk {
            plan_models: Some(&self.plan_models),
            hashes: &buf.hashes,
            ..Walk::operator_level(
                &self.op_model,
                &query.plan,
                &buf.views,
                &mut buf.row,
                &mut buf.scratch,
            )
        };
        let latency = walk.compose().1.max(0.0);
        cache.insert(key, latency);
        latency
    }
}

/// One plan walk's state: the models and observations that can answer a
/// node, the plan and its views with the [`structure_hashes_into`] hashes
/// that find a fragment's model, where outcomes are recorded, and the
/// scratch the models evaluate with. A node's subtree length skips the
/// fragment a model or an observation answers. The hashes, row and
/// scratch (and the views, on the batch paths) are disjoint fields of the
/// thread's [`PredictBuffers`].
pub(crate) struct Walk<'a> {
    op_model: &'a OpLevelModel,
    /// Sub-plan models by structure; `None` on the operator-level path,
    /// which computes no hashes.
    plan_models: Option<&'a HashMap<StructureKey, SubplanModel>>,
    /// Finished nodes' observed (start, run), pre-order; empty when the
    /// caller observed nothing.
    observed: &'a [Option<(f64, f64)>],
    plan: &'a [PlanNode],
    views: &'a [NodeView],
    hashes: &'a [u64],
    /// Per-node outcomes, pre-order; empty when none are recorded. An
    /// observed node is not predicted, so its slot keeps `Covered`.
    out: &'a mut [NodePrediction],
    row: &'a mut Vec<f64>,
    scratch: &'a mut PredictScratch,
    /// Pre-order position of the next node walked.
    at: usize,
}

impl<'a> Walk<'a> {
    /// The operator-level walk over `plan` and its `views`: no sub-plan
    /// models, no observations, nothing recorded.
    pub(crate) fn operator_level(
        op_model: &'a OpLevelModel,
        plan: &'a [PlanNode],
        views: &'a [NodeView],
        row: &'a mut Vec<f64>,
        scratch: &'a mut PredictScratch,
    ) -> Walk<'a> {
        Walk {
            op_model,
            plan_models: None,
            observed: &[],
            plan,
            views,
            hashes: &[],
            out: &mut [],
            row,
            scratch,
            at: 0,
        }
    }

    /// The one composition walk: the subtree at pre-order position
    /// `self.at`, bottom-up. The first answer wins: the node's observed
    /// times, once it has finished; the plan-level model of its structure
    /// (descendants are consumed); the operator-level step over its
    /// children's answers.
    ///
    /// Offline sub-plan models apply unconditionally (as in the paper); the
    /// target-range clamp inside FeatureModel keeps out-of-distribution
    /// fragments from exploding, and online building adds a model built on
    /// the fly only where its feature ranges cover the fragment.
    pub(crate) fn compose(&mut self) -> (f64, f64) {
        let idx = self.at;
        if let Some(&Some(times)) = self.observed.get(idx) {
            self.at += self.plan[idx].subtree_len();
            return times;
        }
        let (times, outcome) = match self.plan_model(idx) {
            Some(sm) => {
                let times = self.fragment_times(sm, idx);
                (times, NodePrediction::PlanModel { times })
            }
            None => {
                let times = self.operator_step();
                (times, NodePrediction::Operator { times })
            }
        };
        if let Some(slot) = self.out.get_mut(idx) {
            *slot = outcome;
        }
        times
    }

    /// The sub-plan model of the fragment at `idx`, if one covers it.
    fn plan_model(&self, idx: usize) -> Option<&'a SubplanModel> {
        self.plan_models?.get(&StructureKey(self.hashes[idx]))
    }

    /// The fragment at `idx` answered by its plan-level model; the walk
    /// moves past the fragment.
    fn fragment_times(&mut self, sm: &SubplanModel, idx: usize) -> (f64, f64) {
        self.at += self.plan[idx].subtree_len();
        let f = plan_features(&self.plan[idx..self.at], &self.views[idx..self.at]);
        sm.times(&f, self.row, self.scratch)
    }

    /// The operator-level step: each child's times from the walk standing
    /// at the child's pre-order position, then the node's own from its
    /// operator model. A child past [`MAX_CHILDREN`] is walked but, like in
    /// Table 2, not read.
    fn operator_step(&mut self) -> (f64, f64) {
        let (plan, views) = (self.plan, self.views);
        let idx = self.at;
        let end = idx + plan[idx].subtree_len();
        self.at += 1;
        let mut child_views = [&views[idx]; MAX_CHILDREN];
        let mut child_times = [(0.0, 0.0); MAX_CHILDREN];
        let mut n = 0;
        while self.at < end {
            let at = self.at;
            let t = self.compose();
            if n < MAX_CHILDREN {
                child_views[n] = &views[at];
                child_times[n] = t;
                n += 1;
            }
        }
        self.op_model.predict_node(
            &plan[idx],
            &views[idx],
            &child_views[..n],
            &child_times[..n],
            self.row,
            self.scratch,
        )
    }
}

/// One iteration of Algorithm 1, for reporting (Figure 8's series).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Candidate structure considered.
    pub key: StructureKey,
    /// Its description.
    pub description: String,
    /// Whether the model was kept.
    pub accepted: bool,
    /// Mean relative training error *after* this iteration.
    pub error: f64,
}

/// Trains a hybrid model per Algorithm 1 on top of `op_model` (an
/// `OpLevelModel`, or an `Arc` of one to share it); returns the model and
/// the per-iteration error trajectory.
pub fn train_hybrid(
    queries: &[&ExecutedQuery],
    op_model: impl Into<Arc<OpLevelModel>>,
    config: &HybridConfig,
) -> Result<(HybridModel, Vec<IterationRecord>), QppError> {
    let (model, records, _) = train_hybrid_recorded(queries, op_model.into(), config)?;
    Ok((model, records))
}

/// The mean relative error of the training log's walk before Algorithm 1's
/// first iteration (the operator-level models alone) and after its last
/// (the hybrid model): the two errors training records for those tiers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkErrors {
    pub(crate) operator_level: f64,
    pub(crate) hybrid: f64,
}

/// [`train_hybrid`], also returning its walk's [`WalkErrors`].
pub(crate) fn train_hybrid_recorded(
    queries: &[&ExecutedQuery],
    op_model: Arc<OpLevelModel>,
    config: &HybridConfig,
) -> Result<(HybridModel, Vec<IterationRecord>, WalkErrors), QppError> {
    let source = op_model.source();
    let mut model = HybridModel::operator_only(op_model);
    let views: Vec<Vec<NodeView>> = ml::par::par_map(queries, |_, q| q.views(source));
    let plans: Vec<(u8, &[PlanNode])> = queries.iter().map(|q| (q.template, &q.plan[..])).collect();
    let index = SubplanIndex::build(&plans);

    let mut walk = TrainingWalk::new(&model, queries, &views);
    let operator_level = walk.error();
    let mut error = operator_level;
    let mut rejected: HashSet<StructureKey> = HashSet::new();
    let mut records = Vec::new();

    for iteration in 1..=config.max_iterations {
        if error <= config.target_error {
            break;
        }
        let candidate = next_candidate(&model, &walk, queries, &index, config, &rejected);
        let Some((key, info_desc)) = candidate else {
            break;
        };
        let accepted = match train_subplan_model(key, queries, &views, &index) {
            Ok(sub) => {
                model.plan_models.insert(key, sub);
                match keeps_subplan_model(
                    key,
                    &model,
                    &walk,
                    queries,
                    &views,
                    &index,
                    config.epsilon,
                ) {
                    Some(rewalked) => {
                        walk.update(rewalked);
                        true
                    }
                    None => {
                        model.plan_models.remove(&key);
                        false
                    }
                }
            }
            // A fragment that occurs once has nothing to select features on.
            Err(QppError::NoTrainingData) => false,
            Err(e) => return Err(e),
        };
        if accepted {
            error = walk.error();
        } else {
            rejected.insert(key);
        }
        records.push(IterationRecord {
            iteration,
            key,
            description: info_desc,
            accepted,
            error,
        });
    }
    let errors = WalkErrors {
        operator_level,
        hybrid: error,
    };
    Ok((model, records, errors))
}

/// Algorithm 1's acceptance rule, the one decision of whether a trained
/// sub-plan model is kept: offline training ([`train_hybrid`]) and online
/// building ([`crate::online`]) both ask it.
///
/// `model` holds the candidate for `key`, and `walk` is the training log
/// under `model` without it. The candidate is kept when it lowers the mean
/// relative error of the log's predicted latencies by more than
/// `epsilon`. Only the queries that contain `key` can change, so only
/// they are re-walked; a kept candidate returns their walks for the
/// caller's [`TrainingWalk`].
///
/// The rule judges on the training log. Judging the fragment's held-out
/// error against the operator-level composition instead breaks the
/// monotone training error `tests/end_to_end.rs` holds Algorithm 1 to, and
/// does not remove the held-out loss of forced iterations either
/// (EXPERIMENTS.md, "Acceptance on held-out error").
pub(crate) fn keeps_subplan_model(
    key: StructureKey,
    model: &HybridModel,
    walk: &TrainingWalk,
    queries: &[&ExecutedQuery],
    views: &[Vec<NodeView>],
    index: &SubplanIndex,
    epsilon: f64,
) -> Option<Vec<(usize, HybridPrediction)>> {
    let mut containing: Vec<usize> = index
        .get(key)?
        .occurrences
        .iter()
        .map(|o| o.query)
        .collect();
    // Occurrences are listed in query order.
    containing.dedup();
    let rewalked: Vec<(usize, HybridPrediction)> = ml::par::par_map(&containing, |_, &qi| {
        (qi, model.predict_plan(&queries[qi].plan, &views[qi]))
    });
    (walk.error_with(&rewalked) < walk.error() - epsilon).then_some(rewalked)
}

/// Trains the (start, run) plan-level model pair for one structure from
/// all its occurrences in the training data. A fragment that occurs once
/// leaves no row to hold out for feature selection:
/// [`QppError::NoTrainingData`].
pub fn train_subplan_model(
    key: StructureKey,
    queries: &[&ExecutedQuery],
    views: &[Vec<NodeView>],
    index: &SubplanIndex,
) -> Result<SubplanModel, QppError> {
    let info = index
        .get(key)
        .ok_or(QppError::Internal("sub-plan structure not in the training index"))?;
    let mut x = Dataset::new(crate::features::PLAN_FEATURES);
    let mut y_start = Vec::new();
    let mut y_run = Vec::new();
    for occ in &info.occurrences {
        let q = queries[occ.query];
        let fragment = occ.node_idx..occ.node_idx + occ.size;
        x.push_row(&plan_features(&q.plan[fragment.clone()], &views[occ.query][fragment]));
        let t = q.trace.timings[occ.node_idx];
        y_start.push(t.start);
        y_run.push(t.run);
    }
    let k = fold_count(FOLDS, x.n_rows()).ok_or(QppError::NoTrainingData)?;
    let folds = kfold(x.n_rows(), k, FOLD_SEED);
    // The start- and run-time heads train on the same design matrix and
    // folds, independently — run them on two threads. The start head's
    // error is checked first, matching the serial statement order.
    let (start_res, run_res) = ml::par::join2(
        || FeatureModel::train(&x, &y_start, &folds, &LEARNER, &SELECTION, LOG_TARGET),
        || FeatureModel::train(&x, &y_run, &folds, &LEARNER, &SELECTION, LOG_TARGET),
    );
    let start = start_res?.0;
    let run = run_res?.0;
    Ok(SubplanModel {
        start,
        run,
        description: info.description.clone(),
    })
}

/// The training log under a hybrid model: each query's prediction, node
/// by node, beside its actual latency. A sub-plan model for structure `k`
/// changes only the predictions of the queries that contain `k`, so
/// keeping one re-walks those queries and no other.
pub(crate) struct TrainingWalk {
    actual: Vec<f64>,
    preds: Vec<HybridPrediction>,
}

impl TrainingWalk {
    pub(crate) fn new(
        model: &HybridModel,
        queries: &[&ExecutedQuery],
        views: &[Vec<NodeView>],
    ) -> TrainingWalk {
        TrainingWalk {
            actual: queries.iter().map(|q| q.latency()).collect(),
            preds: ml::par::par_map(queries, |qi, q| model.predict_plan(&q.plan, &views[qi])),
        }
    }

    /// Mean relative error of the latencies walked.
    fn error(&self) -> f64 {
        self.error_with(&[])
    }

    /// [`TrainingWalk::error`] with some queries' walks replaced.
    fn error_with(&self, rewalked: &[(usize, HybridPrediction)]) -> f64 {
        let mut latencies: Vec<f64> = self.preds.iter().map(|p| p.latency).collect();
        for (qi, p) in rewalked {
            latencies[*qi] = p.latency;
        }
        mean_relative_error(&self.actual, &latencies)
    }

    fn update(&mut self, rewalked: Vec<(usize, HybridPrediction)>) {
        for (qi, p) in rewalked {
            self.preds[qi] = p;
        }
    }
}

/// Chooses the next candidate per the configured strategy, applying the
/// consumption rule: occurrences inside already-covered fragments do not
/// count.
fn next_candidate(
    model: &HybridModel,
    walk: &TrainingWalk,
    queries: &[&ExecutedQuery],
    index: &SubplanIndex,
    config: &HybridConfig,
    rejected: &HashSet<StructureKey>,
) -> Option<(StructureKey, String)> {
    struct Cand {
        key: StructureKey,
        desc: String,
        size: usize,
        freq: usize,
        avg_error: f64,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for info in index.all() {
        if rejected.contains(&info.key) || model.plan_models.contains_key(&info.key) {
            continue;
        }
        let mut freq = 0usize;
        let mut err_sum = 0.0;
        let mut err_n = 0usize;
        for occ in &info.occurrences {
            let NodePrediction::Operator { times } = walk.preds[occ.query].nodes[occ.node_idx]
            else {
                continue; // consumed by an accepted model
            };
            freq += 1;
            let actual = queries[occ.query].trace.timings[occ.node_idx].run;
            if actual > 0.0 {
                err_sum += relative_error(actual, times.1);
                err_n += 1;
            }
        }
        if freq < config.min_frequency {
            continue;
        }
        let avg_error = if err_n > 0 { err_sum / err_n as f64 } else { 0.0 };
        // Plans already predicted well are not worth a model (paper's
        // threshold; the error-based ranking handles this implicitly but
        // we apply it uniformly to avoid wasted iterations).
        if avg_error <= SKIP_ERROR_BELOW {
            continue;
        }
        cands.push(Cand {
            key: info.key,
            desc: info.description.clone(),
            size: info.size,
            freq,
            avg_error,
        });
    }
    match config.strategy {
        PlanOrdering::SizeBased => cands.sort_by(|a, b| {
            a.size
                .cmp(&b.size)
                .then(b.freq.cmp(&a.freq))
                .then(a.key.cmp(&b.key))
        }),
        PlanOrdering::FrequencyBased => cands.sort_by(|a, b| {
            b.freq
                .cmp(&a.freq)
                .then(a.size.cmp(&b.size))
                .then(a.key.cmp(&b.key))
        }),
        PlanOrdering::ErrorBased => cands.sort_by(|a, b| {
            let wa = a.freq as f64 * a.avg_error;
            let wb = b.freq as f64 * b.avg_error;
            wb.partial_cmp(&wa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.key.cmp(&b.key))
        }),
    }
    cands.first().map(|c| (c.key, c.desc.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};
    use crate::features::FeatureSource;
    use crate::op_model::{OpLevelModel, OpModelConfig};

    fn dataset() -> QueryDataset {
        quiet_log(&[1, 3, 6, 12, 14], 10, 0.1)
    }

    fn quick_config(strategy: PlanOrdering) -> HybridConfig {
        HybridConfig {
            strategy,
            max_iterations: 8,
            min_frequency: 3,
            ..HybridConfig::default()
        }
    }

    #[test]
    fn hybrid_never_ends_worse_than_operator_level() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let (_, records, errors) =
            train_hybrid_recorded(&refs, op.into(), &quick_config(PlanOrdering::ErrorBased))
                .unwrap();
        let (base_err, hybrid_err) = (errors.operator_level, errors.hybrid);
        assert!(
            hybrid_err <= base_err + 1e-9,
            "hybrid {hybrid_err} vs op {base_err}"
        );
        // Every accepted record lowers the error monotonically.
        let mut prev = base_err;
        for r in &records {
            if r.accepted {
                assert!(r.error <= prev + 1e-9);
                prev = r.error;
            }
        }
    }

    #[test]
    fn a_fragment_that_occurs_once_is_an_error_not_a_panic() {
        // A log with a single template-6 query: its fragments that no
        // other template shares occur once.
        let ds = dataset();
        let mut refs: Vec<&ExecutedQuery> = ds.queries.iter().filter(|q| q.template != 6).collect();
        refs.extend(ds.queries.iter().find(|q| q.template == 6));
        let source = FeatureSource::Estimated;
        let views: Vec<Vec<NodeView>> = refs.iter().map(|q| q.views(source)).collect();
        let plans: Vec<(u8, &[PlanNode])> =
            refs.iter().map(|q| (q.template, &q.plan[..])).collect();
        let index = SubplanIndex::build(&plans);
        let once = index
            .all()
            .into_iter()
            .find(|i| i.frequency() == 1)
            .expect("a lone fragment");
        assert_eq!(
            train_subplan_model(once.key, &refs, &views, &index).err(),
            Some(QppError::NoTrainingData)
        );
    }

    #[test]
    fn all_strategies_produce_models_or_clean_convergence() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        for strategy in [
            PlanOrdering::SizeBased,
            PlanOrdering::FrequencyBased,
            PlanOrdering::ErrorBased,
        ] {
            let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
            let (hybrid, _) = train_hybrid(&refs, op, &quick_config(strategy)).unwrap();
            for q in &refs {
                let p = hybrid.predict(q);
                assert!(p.is_finite() && p >= 0.0);
            }
        }
    }

    #[test]
    fn the_memo_holds_one_entry_per_distinct_plan() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let (hybrid, _) =
            train_hybrid(&refs, op, &quick_config(PlanOrdering::ErrorBased)).unwrap();
        // Every plan twice, below the fan-out threshold: one thread walks
        // the batch, so no two lookups of one plan race.
        let log: Vec<&ExecutedQuery> = refs[..30].iter().chain(&refs[..30]).copied().collect();
        assert!(log.len() < crate::plan_model::PAR_BATCH_MIN);
        let distinct = log
            .iter()
            .map(|q| {
                let views = q.views(hybrid.op_model.source());
                (crate::subplan::structure_key(&q.plan), views_hash(&views))
            })
            .collect::<HashSet<_>>()
            .len() as u64;

        let cache = PredictionCache::default();
        let cold = hybrid.predict_batch_cached(&log, &cache);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries as u64, stats.misses, stats.hits),
            (distinct, distinct, log.len() as u64 - distinct)
        );
        let warm = hybrid.predict_batch_cached(&log, &cache);
        let again = cache.stats();
        assert_eq!(again.hits - stats.hits, log.len() as u64, "one hit per query");
        assert_eq!(again.misses, stats.misses, "no miss when warm");
        assert_eq!(again.entries, stats.entries);

        // Cold, warm and batch forms equal the serial walk bit-for-bit, in
        // order.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        let serial: Vec<u64> = log.iter().map(|q| hybrid.predict(q).to_bits()).collect();
        assert_eq!(serial, bits(cold));
        assert_eq!(serial, bits(warm));
        assert_eq!(serial, bits(hybrid.predict_batch(&log)));
    }

    #[test]
    fn covered_nodes_are_not_operator_predicted() {
        let ds = dataset();
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let (hybrid, _) =
            train_hybrid(&refs, op, &quick_config(PlanOrdering::ErrorBased)).unwrap();
        if hybrid.plan_models.is_empty() {
            return; // nothing to check on this tiny dataset
        }
        let mut saw_plan_model = false;
        for q in &refs {
            let pred = hybrid.predict_detailed(q);
            for (i, np) in pred.nodes.iter().enumerate() {
                if let NodePrediction::PlanModel { .. } = np {
                    saw_plan_model = true;
                    // All strict descendants must be covered.
                    let size = q.plan[i].subtree_len();
                    for j in (i + 1)..(i + size) {
                        assert_eq!(pred.nodes[j], NodePrediction::Covered);
                    }
                }
            }
        }
        assert!(saw_plan_model);
    }
}
