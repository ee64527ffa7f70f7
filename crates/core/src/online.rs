//! Online model building (Section 4).
//!
//! When a query with an unforeseen plan arrives, we first answer with the
//! pre-built models, then enumerate the *incoming plan's* sub-plans and
//! build plan-level models for exactly those that occur in the training
//! data — guaranteeing that any shared high-error fragment gets a model,
//! even if the offline strategies discarded it. A freshly built model is
//! used only when Algorithm 1's acceptance rule keeps it: added to the
//! pre-built models, it lowers their error on the training log by more
//! than ε.

use crate::dataset::ExecutedQuery;
use crate::features::{FeatureSource, NodeView};
use crate::hybrid::{
    keeps_subplan_model, train_subplan_model, HybridConfig, HybridModel, SubplanModel, TrainingWalk,
};
use crate::pred_cache::PredictionCache;
use crate::subplan::{arena_structure_hashes, StructureKey, SubplanIndex, MIN_FRAGMENT_SIZE};
use engine::arena::PlanArena;
use engine::plan::PlanNode;
use std::collections::HashMap;

/// The online predictor: owns the training data index and a cache of
/// models built on demand.
pub struct OnlinePredictor<'a> {
    train: Vec<&'a ExecutedQuery>,
    views: Vec<Vec<NodeView>>,
    index: SubplanIndex,
    base: HybridModel,
    config: HybridConfig,
    /// The training log under `base`, which candidates are judged against.
    walk: TrainingWalk,
    /// Cache: `None` records a fragment whose model was not kept (so we
    /// don't rebuild it).
    cache: HashMap<StructureKey, Option<SubplanModel>>,
    /// Memo cache of sub-plan predictions shared across queries. Valid for
    /// the predictor's lifetime: the model cache above pins each structure
    /// key to one trained sub-model, so a refined model's key set (hashed
    /// into [`HybridModel::plan_model_signature`]) determines its
    /// prediction function.
    pred_cache: PredictionCache,
}

impl<'a> OnlinePredictor<'a> {
    /// Creates a predictor over the training data. `base` supplies the
    /// pre-built models (pure operator-level or an offline hybrid);
    /// `config` is the hybrid method's, whose `min_frequency` and
    /// acceptance margin `epsilon` online building shares.
    pub fn new(train: Vec<&'a ExecutedQuery>, base: HybridModel, config: HybridConfig) -> Self {
        let source = base.op_model.source();
        let views: Vec<Vec<NodeView>> = train.iter().map(|q| q.views(source)).collect();
        let plans: Vec<(u8, &PlanNode)> = train.iter().map(|q| (q.template, &q.plan)).collect();
        let index = SubplanIndex::build(&plans);
        let walk = TrainingWalk::new(&base, &train, &views);
        OnlinePredictor {
            train,
            views,
            index,
            base,
            config,
            walk,
            cache: HashMap::new(),
            pred_cache: PredictionCache::default(),
        }
    }

    /// Feature source in use.
    pub fn source(&self) -> FeatureSource {
        self.base.op_model.source()
    }

    /// Replaces the pre-built base model (a registry hot swap reaching the
    /// online layer). Every derived state is invalidated: the per-fragment
    /// model decisions and the training walk were scored against the old
    /// models, the memo cache is keyed by the old model signature, and the
    /// training views must match the new base's feature source.
    pub fn rebase(&mut self, base: HybridModel) {
        if base.op_model.source() != self.source() {
            let source = base.op_model.source();
            self.views = self.train.iter().map(|q| q.views(source)).collect();
        }
        self.walk = TrainingWalk::new(&base, &self.train, &self.views);
        self.base = base;
        self.cache.clear();
        self.pred_cache.clear();
    }

    /// The immediate prediction with pre-built models, and the refined
    /// prediction after online model building (the paper's progressive
    /// improvement).
    pub fn predict_progressive(&mut self, plan: &PlanNode, views: &[NodeView]) -> (f64, f64) {
        let initial = self.base.predict_plan(plan, views).latency;
        let refined = self.predict_refined(plan, views);
        (initial, refined)
    }

    /// Predicts after online model building only.
    pub fn predict(&mut self, plan: &PlanNode, views: &[NodeView]) -> f64 {
        self.predict_refined(plan, views)
    }

    /// Convenience over an executed query (test workloads).
    pub fn predict_query(&mut self, query: &ExecutedQuery) -> f64 {
        let views = query.views(self.source());
        self.predict(&query.plan, &views)
    }

    /// Predicts a batch of queries in input order, bit-identical to a
    /// serial [`OnlinePredictor::predict_query`] loop. The walk is serial
    /// (model building mutates the predictor), but the sub-plan memo cache
    /// makes repeated fragments across the batch near-free.
    pub fn predict_batch(&mut self, queries: &[&ExecutedQuery]) -> Vec<f64> {
        queries.iter().map(|q| self.predict_query(q)).collect()
    }

    fn predict_refined(&mut self, plan: &PlanNode, views: &[NodeView]) -> f64 {
        // Enumerate the incoming plan's sub-plans (with their feature
        // vectors) and build candidate models for those present in the
        // training data. The plan is flattened once; the same arena and
        // hash array then drive the memoized prediction walk.
        let arena = PlanArena::flatten(plan);
        let hashes = arena_structure_hashes(&arena);
        let keys = collect_keys_with_features(&arena, &hashes, views);
        let mut model = self.base.clone();
        for (key, features) in keys {
            if model.plan_models.contains_key(&key) {
                continue;
            }
            if let Some(sub) = self.build_if_worthwhile(key) {
                // Applicability: only trust the model where it was trained.
                // Out-of-range fragments stay with the operator models.
                if sub.run.in_range(&features, 1.0) {
                    model.plan_models.insert(key, sub);
                }
            }
        }
        model.predict_memo_arena(&arena, &hashes, views, &self.pred_cache)
    }

    /// Builds (or fetches) the model for a fragment and returns it only if
    /// the acceptance rule keeps it.
    fn build_if_worthwhile(&mut self, key: StructureKey) -> Option<SubplanModel> {
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let decision = self.evaluate_candidate(key);
        self.cache.insert(key, decision.clone());
        decision
    }

    fn evaluate_candidate(&self, key: StructureKey) -> Option<SubplanModel> {
        let info = self.index.get(key)?;
        if info.frequency() < self.config.min_frequency {
            return None;
        }
        let sub = train_subplan_model(key, &self.train, &self.views, &self.index).ok()?;
        let mut model = self.base.clone();
        model.plan_models.insert(key, sub);
        keeps_subplan_model(
            key,
            &model,
            &self.walk,
            &self.train,
            &self.views,
            &self.index,
            self.config.epsilon,
        )?;
        model.plan_models.remove(&key)
    }
}

/// Collects (structure key, plan-level feature vector) for every sub-plan
/// of at least [`MIN_FRAGMENT_SIZE`] operators, first occurrence per key, in
/// pre-order. One linear pass over the arena: sizes and structure hashes
/// are already memoized, and fragment features come from contiguous
/// slices (the boxed walk re-ran `node_count` and `structure_key` per
/// node, which was O(n²)).
fn collect_keys_with_features(
    arena: &PlanArena<'_>,
    hashes: &[u64],
    views: &[NodeView],
) -> Vec<(StructureKey, Vec<f64>)> {
    let mut out: Vec<(StructureKey, Vec<f64>)> = Vec::new();
    for idx in arena.preorder() {
        let size = arena.size(idx);
        if size < MIN_FRAGMENT_SIZE {
            continue;
        }
        let k = StructureKey(hashes[idx]);
        if out.iter().any(|(kk, _)| *kk == k) {
            continue;
        }
        let slice = &views[idx..idx + size];
        out.push((
            k,
            crate::features::plan_features_slice(arena.subtree_nodes(idx), slice),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryDataset;
    use crate::op_model::{OpLevelModel, OpModelConfig};
    use engine::{Catalog, Simulator};
    use ml::mean_relative_error;
    use tpch::Workload;

    /// Simulator with the jitter tuned down: these tests assert model
    /// accuracy, which the default absolute jitter would swamp at the tiny
    /// scale factors used here.
    fn quiet_sim() -> Simulator {
        Simulator::with_config(engine::SimConfig {
            additive_noise_secs: 0.05,
            ..engine::SimConfig::default()
        })
    }

    fn dataset(templates: &[u8]) -> QueryDataset {
        let catalog = Catalog::new(0.1, 1);
        let workload = Workload::generate(templates, 10, 0.1, 7);
        QueryDataset::execute(&catalog, &workload, &quiet_sim(), 11, f64::INFINITY)
    }

    #[test]
    fn online_beats_or_matches_operator_level_on_unseen_template() {
        let ds = dataset(&[1, 3, 6, 10, 14]);
        let (train, test) = ds.leave_template_out(10);
        let op = OpLevelModel::train(&train, &OpModelConfig::default()).unwrap();
        let op_preds: Vec<f64> = test.iter().map(|q| op.predict(q)).collect();
        let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();
        let op_err = mean_relative_error(&actual, &op_preds);

        let mut online = OnlinePredictor::new(
            train,
            HybridModel::operator_only(op),
            HybridConfig {
                min_frequency: 3,
                ..HybridConfig::default()
            },
        );
        let online_preds: Vec<f64> = test.iter().map(|q| online.predict_query(q)).collect();
        let online_err = mean_relative_error(&actual, &online_preds);
        // Online may fall back to pure operator-level when no shared
        // fragment helps, but must never be wildly worse.
        assert!(
            online_err <= op_err * 1.5 + 0.05,
            "online {online_err} vs op {op_err}"
        );
    }

    #[test]
    fn progressive_prediction_returns_both_stages() {
        let ds = dataset(&[1, 3, 6]);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let source = op.source();
        let mut online = OnlinePredictor::new(
            refs.clone(),
            HybridModel::operator_only(op),
            HybridConfig::default(),
        );
        let q = refs[0];
        let views = q.views(source);
        let (initial, refined) = online.predict_progressive(&q.plan, &views);
        assert!(initial.is_finite() && refined.is_finite());
        assert!(initial >= 0.0 && refined >= 0.0);
    }

    #[test]
    fn a_fragment_that_occurs_once_is_passed_over() {
        // One template-6 query among the others: with a minimum frequency
        // of one, its lone fragments are candidates with nothing to hold
        // out, and stay with the operator-level models.
        let ds = dataset(&[3, 6, 14]);
        let mut refs: Vec<&ExecutedQuery> = ds.queries.iter().filter(|q| q.template != 6).collect();
        let lone = ds
            .queries
            .iter()
            .find(|q| q.template == 6)
            .expect("a template-6 query");
        refs.push(lone);
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let mut online = OnlinePredictor::new(
            refs,
            HybridModel::operator_only(op),
            HybridConfig {
                min_frequency: 1,
                ..HybridConfig::default()
            },
        );
        assert!(online.predict_query(lone).is_finite());
        for info in online
            .index
            .all()
            .into_iter()
            .filter(|i| i.frequency() == 1)
        {
            assert!(!matches!(online.cache.get(&info.key), Some(Some(_))));
        }
    }

    #[test]
    fn cache_prevents_rebuilding() {
        let ds = dataset(&[3, 6]);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let source = op.source();
        let mut online = OnlinePredictor::new(
            refs.clone(),
            HybridModel::operator_only(op),
            HybridConfig {
                min_frequency: 3,
                ..HybridConfig::default()
            },
        );
        let q = refs[0];
        let views = q.views(source);
        let a = online.predict(&q.plan, &views);
        let cached_entries = online.cache.len();
        let b = online.predict(&q.plan, &views);
        assert_eq!(a, b);
        assert_eq!(online.cache.len(), cached_entries);
    }

    #[test]
    fn rebase_invalidates_cached_decisions() {
        let ds = dataset(&[3, 6]);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let mut online = OnlinePredictor::new(
            refs.clone(),
            HybridModel::operator_only(op),
            HybridConfig {
                min_frequency: 3,
                ..HybridConfig::default()
            },
        );
        let _ = online.predict_query(refs[0]);
        // Swap in a base retrained on half the data: the fragment
        // decisions and memoized predictions scored against the old base
        // must not survive.
        let half: Vec<&ExecutedQuery> = refs[..refs.len() / 2].to_vec();
        let op2 = OpLevelModel::train(&half, &OpModelConfig::default()).unwrap();
        online.rebase(HybridModel::operator_only(op2));
        assert!(online.cache.is_empty());
        assert_eq!(online.pred_cache.stats().entries, 0);
        assert!(online.predict_query(refs[0]).is_finite());
    }
}
