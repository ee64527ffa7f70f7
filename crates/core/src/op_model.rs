//! Operator-level performance prediction (Section 3.2).
//!
//! Two models per operator *type* — a start-time model and a run-time
//! model over the Table-2 features — composed bottom-up along the plan
//! tree: each operator's models consume the (predicted) start/run times of
//! its children (Figure 2 of the paper). Training uses the *observed*
//! child times from the execution logs; prediction uses composed child
//! predictions, so lower-level errors propagate upward — a property the
//! paper identifies as the approach's main weakness.

use crate::dataset::ExecutedQuery;
use crate::features::{op_features, FeatureSource, NodeView, OP_FEATURE_NAMES};
use crate::hybrid::Walk;
use crate::plan_model::{map_batch, FeatureModel, PredictBuffers};
use engine::plan::{children, OpType, PlanNode, ALL_OP_TYPES, MAX_CHILDREN};
use ml::bytes::{put_count, Malformed, Reader};
use ml::cv::kfold;
use ml::{Dataset, ForwardSelection, LearnerKind, MlError, PredictScratch};

/// Seed of the fold assignment.
const FOLD_SEED: u64 = 17;

/// Model family: linear regression, as the paper's operator-level models.
const LEARNER: LearnerKind = LearnerKind::Linear { ridge: 1e-6 };

/// Forward selection of every per-operator model: patience 3, no cap.
const SELECTION: ForwardSelection = ForwardSelection {
    patience: 3,
    max_features: 0,
};

/// CV folds for feature selection.
const FOLDS: usize = 4;

/// Configuration of operator-level model training.
#[derive(Debug, Clone)]
pub struct OpModelConfig {
    /// Feature source.
    pub source: FeatureSource,
    /// Include the child start-time features (st1/st2). Disabling them is
    /// the DESIGN.md ablation for the paper's claim that start-time models
    /// capture blocking behaviour.
    pub include_start_features: bool,
}

impl Default for OpModelConfig {
    fn default() -> Self {
        OpModelConfig {
            source: FeatureSource::Estimated,
            include_start_features: true,
        }
    }
}

/// A trained operator type's (start-time, run-time) models.
type ModelPair = Box<(FeatureModel, FeatureModel)>;

/// Per-operator-type start-/run-time models.
#[derive(Debug, Clone)]
pub struct OpLevelModel {
    /// One slot per operator type, boxed so an untrained type costs a
    /// pointer rather than two inline models.
    per_type: Vec<Option<ModelPair>>,
    source: FeatureSource,
    include_start_features: bool,
}

impl OpLevelModel {
    /// Trains the per-operator models on the execution logs of `queries`.
    ///
    /// # Errors
    /// Fails only if an operator type has rows but the system is
    /// unsolvable (degenerate data); operator types absent from the
    /// training data simply get no model.
    pub fn train(queries: &[&ExecutedQuery], config: &OpModelConfig) -> Result<Self, MlError> {
        // One (features, start, run) row per plan node, pushed straight
        // into its operator type's matrix in query order. The nodes are
        // counted first, so each matrix is allocated once, at its size.
        let n_types = ALL_OP_TYPES.len();
        let mut counts = [0usize; ALL_OP_TYPES.len()];
        for node in queries.iter().flat_map(|q| q.plan.iter()) {
            counts[node.op.index()] += 1;
        }
        let mut xs: Vec<Dataset> = counts
            .iter()
            .map(|&n| Dataset::with_capacity(n, OP_FEATURE_NAMES.len()))
            .collect();
        let mut starts: Vec<Vec<f64>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut runs: Vec<Vec<f64>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut views = Vec::new();
        for q in queries {
            q.views_into(config.source, &mut views);
            collect_rows(
                &q.plan,
                0,
                &views,
                &q.trace.timings,
                &mut |op, mut row, start, run| {
                    if !config.include_start_features {
                        row[5] = 0.0; // st1
                        row[7] = 0.0; // st2
                    }
                    let k = op.index();
                    xs[k].push_row(&row);
                    starts[k].push(start);
                    runs[k].push(run);
                },
            );
        }
        // Operator types fit independently; results are merged in type
        // order so the first error (if any) matches the serial loop's.
        let fit_type = |k: usize| -> Result<Option<ModelPair>, MlError> {
            if xs[k].n_rows() < 3 {
                return Ok(None);
            }
            let folds = kfold(xs[k].n_rows(), FOLDS.min(xs[k].n_rows()), FOLD_SEED);
            let start_model =
                FeatureModel::train(&xs[k], &starts[k], &folds, &LEARNER, &SELECTION, false)?.0;
            let run_model =
                FeatureModel::train(&xs[k], &runs[k], &folds, &LEARNER, &SELECTION, false)?.0;
            Ok(Some(Box::new((start_model, run_model))))
        };
        let fitted: Vec<Result<Option<ModelPair>, MlError>> = ml::par::par_map_n(n_types, fit_type);
        let mut per_type = Vec::with_capacity(n_types);
        for outcome in fitted {
            per_type.push(outcome?);
        }
        Ok(OpLevelModel {
            per_type,
            source: config.source,
            include_start_features: config.include_start_features,
        })
    }

    /// Feature source the models were trained with.
    pub fn source(&self) -> FeatureSource {
        self.source
    }

    /// Snapshot-load validation: every per-operator start/run model must
    /// pass [`FeatureModel::validate`] against the operator feature arity.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.per_type.len() != ALL_OP_TYPES.len() {
            return Err(format!(
                "operator-level model covers {} operator types, expected {}",
                self.per_type.len(),
                ALL_OP_TYPES.len()
            ));
        }
        for (i, pair) in self.per_type.iter().enumerate() {
            if let Some((start, run)) = pair.as_deref() {
                let op = ALL_OP_TYPES[i];
                start
                    .validate(OP_FEATURE_NAMES.len())
                    .map_err(|e| format!("{op:?} start-time model: {e}"))?;
                run.validate(OP_FEATURE_NAMES.len())
                    .map_err(|e| format!("{op:?} run-time model: {e}"))?;
            }
        }
        Ok(())
    }

    /// Appends the per-type slots (a presence byte, then the start- and
    /// run-time models of a present one) and the two training switches.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.per_type.len());
        for pair in &self.per_type {
            out.push(u8::from(pair.is_some()));
            if let Some((start, run)) = pair.as_deref() {
                start.encode(out);
                run.encode(out);
            }
        }
        self.source.encode(out);
        out.push(u8::from(self.include_start_features));
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<OpLevelModel, Malformed> {
        let n = r.count(1)?;
        let per_type = (0..n)
            .map(|_| {
                Ok(if r.bool()? {
                    Some(Box::new((
                        FeatureModel::decode(r)?,
                        FeatureModel::decode(r)?,
                    )))
                } else {
                    None
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(OpLevelModel {
            per_type,
            source: FeatureSource::decode(r)?,
            include_start_features: r.bool()?,
        })
    }

    /// Content fingerprint, as [`FeatureModel::fingerprint`]: FNV over
    /// the snapshot bytes of every per-operator model and the two training
    /// switches. Part of the hybrid model-set signature that keys the
    /// prediction cache.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        crate::pred_cache::hash_bytes(&bytes)
    }

    /// Predicts a query's latency by bottom-up composition: the hybrid's
    /// walk ([`crate::hybrid::HybridModel::predict_plan`]) with no sub-plan
    /// models and no observations.
    pub fn predict(&self, query: &ExecutedQuery) -> f64 {
        PredictBuffers::with_thread_local(|buf| self.predict_with(query, buf))
    }

    /// [`OpLevelModel::predict`] with caller-owned buffers; leaves the
    /// query's views in `buf.views`.
    pub(crate) fn predict_with(&self, query: &ExecutedQuery, buf: &mut PredictBuffers) -> f64 {
        query.views_into(self.source, &mut buf.views);
        let mut walk = Walk::operator_level(
            self,
            &query.plan,
            &buf.views,
            &mut buf.row,
            &mut buf.scratch,
        );
        walk.compose().1
    }

    /// Predicts a batch of queries in input order, bit-identical to a
    /// serial [`OpLevelModel::predict`] loop; large batches fan out over
    /// `ml::par`.
    pub fn predict_batch(&self, queries: &[&ExecutedQuery]) -> Vec<f64> {
        map_batch(queries, |q, buf| self.predict_with(q, buf))
    }

    /// Predicts the latency of an arbitrary plan (views aligned
    /// pre-order). Per-node times are
    /// `HybridModel::operator_only(model).predict_plan(plan, views).nodes`.
    pub fn predict_plan(&self, plan: &[PlanNode], views: &[NodeView]) -> f64 {
        PredictBuffers::with_thread_local(|buf| {
            Walk::operator_level(self, plan, views, &mut buf.row, &mut buf.scratch)
                .compose()
                .1
        })
    }

    /// Predicts one node given its children's times (the operator-level
    /// step of [`crate::hybrid`]'s walk, where a child may be answered by a
    /// plan-level model or an observation), evaluating the operator's
    /// models with `row` and `scratch` (see [`FeatureModel::predict_into`]).
    pub(crate) fn predict_node(
        &self,
        node: &PlanNode,
        view: &NodeView,
        child_views: &[&NodeView],
        child_times: &[(f64, f64)],
        row: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) -> (f64, f64) {
        let mut features = op_features(view, child_views, child_times);
        if !self.include_start_features {
            features[5] = 0.0;
            features[7] = 0.0;
        }
        match self.per_type[node.op.index()].as_deref() {
            Some((sm, rm)) => {
                let start = sm.predict_into(&features, row, scratch).max(0.0);
                let run = rm.predict_into(&features, row, scratch).max(start);
                (start, run)
            }
            // Unseen operator type: pass through the dominant child (no
            // cost attributed to the node itself).
            None => child_times
                .iter()
                .fold((0.0, 0.0), |acc, &(s, r)| (acc.0.max(s), acc.1.max(r))),
        }
    }
}

/// Walks the subtree at pre-order position `at` of `plan` collecting one
/// training row per node, each node's after its children's.
fn collect_rows<F: FnMut(OpType, [f64; OP_FEATURE_NAMES.len()], f64, f64)>(
    plan: &[PlanNode],
    at: usize,
    views: &[NodeView],
    timings: &[engine::sim::NodeTiming],
    sink: &mut F,
) {
    let mut child_views = [&views[at]; MAX_CHILDREN];
    let mut child_times = [(0.0, 0.0); MAX_CHILDREN];
    let mut n = 0;
    for c in children(plan, at) {
        if n < MAX_CHILDREN {
            child_views[n] = &views[c];
            child_times[n] = (timings[c].start, timings[c].run);
            n += 1;
        }
        collect_rows(plan, c, views, timings, sink);
    }
    let row = op_features(&views[at], &child_views[..n], &child_times[..n]);
    sink(plan[at].op, row, timings[at].start, timings[at].run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{quiet_log, QueryDataset};
    use crate::hybrid::HybridModel;
    use ml::mean_relative_error;

    fn dataset(templates: &[u8], n: usize) -> QueryDataset {
        quiet_log(templates, n, 0.1)
    }

    #[test]
    fn trains_models_for_present_operator_types() {
        let ds = dataset(&[1, 3, 6], 8);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let has_model = |op: OpType| model.per_type[op.index()].is_some();
        assert!(has_model(OpType::SeqScan));
        assert!(has_model(OpType::Sort));
        // No template here uses a SubqueryScan.
        assert!(!has_model(OpType::SubqueryScan));
    }

    #[test]
    fn composed_prediction_is_reasonable_on_training_data() {
        let ds = dataset(&[1, 3, 6, 14], 12);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let actual: Vec<f64> = refs.iter().map(|q| q.latency()).collect();
        let preds: Vec<f64> = refs.iter().map(|q| model.predict(q)).collect();
        let err = mean_relative_error(&actual, &preds);
        assert!(err < 0.6, "training error = {err}");
        assert!(preds.iter().all(|p| *p >= 0.0 && p.is_finite()));
    }

    #[test]
    fn generalizes_to_unseen_template_with_shared_operators() {
        // Train without template 14, predict template 14 (its operators —
        // scan, hash join, aggregate — all appear elsewhere).
        let ds = dataset(&[1, 3, 6, 14], 10);
        let (train, test): (Vec<&ExecutedQuery>, Vec<&ExecutedQuery>) = {
            let (tr, te) = ds.leave_template_out(14);
            (tr, te)
        };
        let model = OpLevelModel::train(&train, &OpModelConfig::default()).unwrap();
        let actual: Vec<f64> = test.iter().map(|q| q.latency()).collect();
        let preds: Vec<f64> = test.iter().map(|q| model.predict(q)).collect();
        let err = mean_relative_error(&actual, &preds);
        assert!(err < 2.0, "dynamic error = {err}");
    }

    #[test]
    fn per_node_times_are_monotone_within_node() {
        let ds = dataset(&[3], 6);
        let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
        let model = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
        let composed = HybridModel::operator_only(model).predict_detailed(refs[0]);
        for node in &composed.nodes {
            let (s, r) = node.times().expect("every node is operator-predicted");
            assert!(r >= s, "run {r} < start {s}");
        }
    }
}
