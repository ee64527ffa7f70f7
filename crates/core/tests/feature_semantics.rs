//! Semantics of the Table-1 feature extractor and of the composition walk
//! across the full template set. (The Table-2 extractor, the feature
//! names and the structure-hash pass are checked by `features`' and
//! `subplan`'s unit tests.)

use engine::plan::children;
use engine::{Catalog, PlanNode, Planner, Simulator, ALL_OP_TYPES};
use qpp::features::{node_views, plan_features, FeatureSource, NodeView, PLAN_FEATURES};
use qpp::hybrid::{train_subplan_model, NodePrediction};
use qpp::{
    observations_at, predict_progressive, ExecutedQuery, HybridModel, OpLevelModel, OpModelConfig,
    QueryDataset, SubplanIndex,
};
use rng::StdRng;
use std::sync::Arc;

fn planned(t: u8, sf: f64) -> engine::Planned {
    let catalog = Catalog::new(sf, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(12);
    planner.plan(&tpch::instantiate(t, sf, &mut rng))
}

fn plan(t: u8, sf: f64) -> Box<[PlanNode]> {
    planned(t, sf).plan
}

/// [`planned`]'s query, executed: its actual views read the truth it
/// keeps beside the plan.
fn executed(t: u8, sf: f64) -> ExecutedQuery {
    let planned = planned(t, sf);
    let trace = Simulator::new().execute(&planned, sf, 1);
    ExecutedQuery {
        template: t,
        plan: planned.plan,
        truth: planned.truth,
        trace,
    }
}

/// Sub-tree features are consistent with whole-plan features: the subtree
/// slice of views produces the same vector as re-extracting on the
/// subtree.
#[test]
fn subtree_features_use_contiguous_view_slices() {
    let p = plan(5, 0.5);
    let views = node_views(&p);
    // Pick the first join node.
    let idx = (0..p.len())
        .find(|&i| children(&p, i).count() == 2)
        .expect("a join exists");
    let size = p[idx].subtree_len();
    let slice = &views[idx..idx + size];
    let f = plan_features(&p[idx..idx + size], slice);
    assert_eq!(f[4] as usize, size);
    // The sub-tree root's cost is the first feature.
    assert_eq!(f[0], p[idx].est.total_cost);
}

/// Estimated and actual views share widths but differ in rows wherever
/// estimation errs.
#[test]
fn view_sources_share_structure() {
    let q = {
        let catalog = Catalog::new(0.5, 1);
        let workload = tpch::Workload::generate(&[18], 1, 0.5, 3);
        qpp::QueryDataset::execute(
            &catalog,
            &workload,
            &engine::Simulator::new(),
            5,
            f64::INFINITY,
        )
    };
    let q = &q.queries[0];
    let est = q.views(FeatureSource::Estimated);
    let act = q.views(FeatureSource::Actual);
    assert_eq!(est.len(), act.len());
    let mut any_row_gap = false;
    for (e, a) in est.iter().zip(&act) {
        assert_eq!(e.width, a.width);
        if (e.rows - a.rows).abs() > a.rows.max(1.0) * 0.5 {
            any_row_gap = true;
        }
    }
    assert!(any_row_gap, "template 18 must show estimation gaps");
}

/// Table 1 as a naive loop over the fragment's materialized pre-order list.
fn naive_plan_features(fragment: &[PlanNode], views: &[NodeView]) -> Vec<f64> {
    let ops = ALL_OP_TYPES.len();
    let nodes = fragment;
    assert_eq!(nodes.len(), views.len());
    let mut f = vec![0.0; PLAN_FEATURES];
    let (mut row_count, mut byte_count) = (0.0, 0.0);
    for (node, v) in nodes.iter().zip(views) {
        f[7 + node.op.index()] += 1.0;
        f[7 + ops + node.op.index()] += v.rows;
        row_count += v.rows;
        byte_count += v.rows * v.width;
    }
    for v in &views[1..] {
        row_count += v.rows;
        byte_count += v.rows * v.width;
    }
    f[..7].copy_from_slice(&[
        views[0].total_cost,
        views[0].startup_cost,
        views[0].rows,
        views[0].width,
        nodes.len() as f64,
        row_count,
        byte_count,
    ]);
    f
}

/// [`plan_features`] over every fragment of one plan per template, on
/// either feature source, equals the naive loop bit for bit.
#[test]
fn plan_features_of_every_fragment_match_a_naive_loop() {
    for t in tpch::ALL_TEMPLATES {
        let q = executed(t, 0.5);
        for source in [FeatureSource::Estimated, FeatureSource::Actual] {
            let views = q.views(source);
            for i in 0..q.plan.len() {
                let fragment = engine::plan::subplan(&q.plan, i);
                let slice = &views[i..i + fragment.len()];
                let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&plan_features(fragment, slice)),
                    bits(&naive_plan_features(fragment, slice)),
                    "t{t} {source:?} fragment {i}"
                );
            }
        }
    }
}

/// The hybrid's walk answers a node with its observed times, the
/// plan-level model of its structure or the operator-level step, and every
/// entry point through it agrees bit for bit, on one plan per template and
/// on a hybrid whose one sub-plan model covers nodes of those plans:
/// progressive prediction with nothing observed is the static prediction,
/// with everything observed the root's observed run time, and the
/// operator-level model is the operator-only hybrid.
#[test]
fn the_walks_three_answers_agree_bit_for_bit() {
    let catalog = Catalog::new(0.1, 1);
    let workload = tpch::Workload::generate(&tpch::ALL_TEMPLATES, 3, 0.1, 7);
    let ds = QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = Arc::new(OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap());
    let source = op.source();
    let views: Vec<Vec<NodeView>> = refs.iter().map(|q| q.views(source)).collect();
    let plans: Vec<(u8, &[PlanNode])> = refs.iter().map(|q| (q.template, &q.plan[..])).collect();
    let index = SubplanIndex::build(&plans);
    let fragment = index
        .common(1)
        .into_iter()
        .filter(|info| info.size >= 2)
        .max_by_key(|info| (info.frequency(), info.key))
        .expect("a multi-operator fragment")
        .key;
    let operator_only = HybridModel::operator_only(Arc::clone(&op));
    let mut hybrid = operator_only.clone();
    hybrid.plan_models.insert(
        fragment,
        train_subplan_model(fragment, &refs, &views, &index).unwrap(),
    );

    let mut covered = 0;
    for t in tpch::ALL_TEMPLATES {
        let q = refs
            .iter()
            .find(|q| q.template == t)
            .expect("a query per template");
        let views = q.views(source);
        let n = q.plan.len();
        for model in [&operator_only, &hybrid] {
            let prediction = model.predict_plan(&q.plan, &views);
            covered += (prediction.nodes.iter())
                .filter(|p| matches!(p, NodePrediction::PlanModel { .. }))
                .count();
            let unobserved = predict_progressive(model, &q.plan, &views, &vec![None; n]);
            assert_eq!(
                unobserved.to_bits(),
                prediction.latency.to_bits(),
                "t{t}: nothing observed"
            );
            let finished = observations_at(&q.trace, f64::INFINITY);
            let observed = predict_progressive(model, &q.plan, &views, &finished);
            assert_eq!(
                observed.to_bits(),
                q.trace.timings[0].run.to_bits(),
                "t{t}: everything observed"
            );
        }
        assert_eq!(
            op.predict(q).to_bits(),
            operator_only
                .predict_plan(&q.plan, &views)
                .latency
                .to_bits(),
            "t{t}: operator level"
        );
    }
    assert!(
        covered > 0,
        "the sub-plan model covers no node of the plans"
    );
}
