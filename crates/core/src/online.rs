//! Online model building (Section 4).
//!
//! When queries with an unforeseen plan arrive, we first answer with the
//! pre-built models, then enumerate the *incoming plans'* sub-plans and
//! build plan-level models for exactly those that occur in the training
//! data — guaranteeing that any shared high-error fragment gets a model,
//! even if the offline strategies discarded it. A freshly built model is
//! used only when Algorithm 1's acceptance rule keeps it: added to the
//! pre-built models, it lowers their error on the training log by more
//! than ε.
//!
//! Building is two pure steps. [`build_models`] judges each distinct
//! fragment of the incoming plans once; [`extend`] returns the base model
//! plus the built models that apply to one plan, an owned [`HybridModel`]
//! that predicts like any other.

use crate::dataset::ExecutedQuery;
use crate::features::{plan_features, NodeView};
use crate::hybrid::{
    keeps_subplan_model, train_subplan_model, HybridConfig, HybridModel, SubplanModel, TrainingWalk,
};
use crate::subplan::{structure_hashes_into, StructureKey, SubplanIndex, MIN_FRAGMENT_SIZE};
use engine::plan::PlanNode;
use std::collections::{HashMap, HashSet};

/// Builds a sub-plan model for every distinct fragment of the `incoming`
/// plans that `base` does not model, that occurs at least
/// `config.min_frequency` times in `train`, and that Algorithm 1's rule
/// keeps when added to `base` alone (margin `config.epsilon`).
///
/// Each candidate is judged against `base`'s walk of the training log and
/// never against another candidate, so the fragments are judged in
/// parallel and the map does not depend on the thread count or on the
/// order of `incoming`.
pub fn build_models(
    base: &HybridModel,
    train: &[&ExecutedQuery],
    config: &HybridConfig,
    incoming: &[&[PlanNode]],
) -> HashMap<StructureKey, SubplanModel> {
    let mut seen = HashSet::new();
    let mut fragments = Vec::new();
    let mut hashes = Vec::new();
    for plan in incoming {
        structure_hashes_into(plan, &mut hashes);
        for (node, &hash) in plan.iter().zip(&hashes) {
            let key = StructureKey(hash);
            if node.subtree_len() >= MIN_FRAGMENT_SIZE
                && !base.plan_models.contains_key(&key)
                && seen.insert(key)
            {
                fragments.push(key);
            }
        }
    }
    let plans: Vec<(u8, &[PlanNode])> = train.iter().map(|q| (q.template, &q.plan[..])).collect();
    let index = SubplanIndex::build(&plans);
    fragments.retain(|&key| {
        index
            .get(key)
            .is_some_and(|info| info.frequency() >= config.min_frequency)
    });
    if fragments.is_empty() {
        return HashMap::new();
    }
    let source = base.op_model.source();
    let views: Vec<Vec<NodeView>> = train.iter().map(|q| q.views(source)).collect();
    let walk = TrainingWalk::new(base, train, &views);
    ml::par::par_map(&fragments, |_, &key| {
        // A fragment that occurs once is an error here: no model.
        let sub = train_subplan_model(key, train, &views, &index).ok()?;
        let mut model = base.clone();
        model.plan_models.insert(key, sub);
        keeps_subplan_model(key, &model, &walk, train, &views, &index, config.epsilon)?;
        model.plan_models.remove(&key).map(|sub| (key, sub))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// `base` plus each model of `built` whose fragment occurs in `plan`,
/// that `base` does not model already, and whose run-time head was trained
/// on features like those of the fragment's first pre-order occurrence
/// (`FeatureModel::in_range`). Out-of-range fragments stay with the base
/// models.
///
pub fn extend(
    base: &HybridModel,
    built: &HashMap<StructureKey, SubplanModel>,
    plan: &[PlanNode],
    views: &[NodeView],
) -> HybridModel {
    let mut model = base.clone();
    let mut hashes = Vec::new();
    structure_hashes_into(plan, &mut hashes);
    let mut seen = HashSet::new();
    for (idx, &hash) in hashes.iter().enumerate() {
        let key = StructureKey(hash);
        let Some(sub) = built.get(&key) else {
            continue;
        };
        if !seen.insert(key) || base.plan_models.contains_key(&key) {
            continue;
        }
        let fragment = idx..idx + plan[idx].subtree_len();
        let features = plan_features(&plan[fragment.clone()], &views[fragment]);
        if sub.run.in_range(&features) {
            model.plan_models.insert(key, sub.clone());
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};
    use crate::op_model::{OpLevelModel, OpModelConfig};
    use ml::mean_relative_error;

    fn dataset(templates: &[u8]) -> QueryDataset {
        quiet_log(templates, 10, 0.1)
    }

    #[test]
    fn online_beats_or_matches_operator_level_on_unseen_template() {
        let ds = dataset(&[1, 3, 6, 10, 14]);
        let (train, test) = ds.leave_template_out(10);
        let op = OpLevelModel::train(&train, &OpModelConfig::default()).unwrap();
        let op_preds: Vec<f64> = test.iter().map(|q| op.predict(q)).collect();
        let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();
        let op_err = mean_relative_error(&actual, &op_preds);

        let source = op.source();
        let base = HybridModel::operator_only(op);
        let config = HybridConfig {
            min_frequency: 3,
            ..HybridConfig::default()
        };
        let plans: Vec<&[PlanNode]> = test.iter().map(|q| &q.plan[..]).collect();
        let built = build_models(&base, &train, &config, &plans);
        let online_preds: Vec<f64> = test
            .iter()
            .map(|q| {
                let views = q.views(source);
                extend(&base, &built, &q.plan, &views)
                    .predict_plan(&q.plan, &views)
                    .latency
            })
            .collect();
        let online_err = mean_relative_error(&actual, &online_preds);
        // Online may fall back to pure operator-level when no shared
        // fragment helps, but must never be wildly worse.
        assert!(
            online_err <= op_err * 1.5 + 0.05,
            "online {online_err} vs op {op_err}"
        );
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
        let config = HybridConfig {
            min_frequency: 1,
            ..HybridConfig::default()
        };
        let built = build_models(
            &HybridModel::operator_only(op),
            &refs,
            &config,
            &[&lone.plan],
        );
        let plans: Vec<(u8, &[PlanNode])> =
            refs.iter().map(|q| (q.template, &q.plan[..])).collect();
        let index = SubplanIndex::build(&plans);
        let once: Vec<StructureKey> = index
            .all()
            .into_iter()
            .filter(|i| i.frequency() == 1)
            .map(|i| i.key)
            .collect();
        assert!(!once.is_empty(), "the lone query has fragments of its own");
        assert!(once.iter().all(|key| !built.contains_key(key)));
    }
}
