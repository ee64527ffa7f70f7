//! Semantics of the Table-1 / Table-2 feature extractors, of the
//! structure-hash pass and of the composition walk across the full
//! template set.

use engine::plan::children;
use engine::{Catalog, OpDetail, OpType, PlanNode, Planner, Simulator, ALL_OP_TYPES};
use qpp::features::{
    node_views, op_histogram, plan_feature_names, plan_features, FeatureSource, NodeView,
    PLAN_FEATURES,
};
use qpp::hybrid::{train_subplan_model, NodePrediction};
use qpp::{
    observations_at, predict_progressive, structure_hashes_into, structure_key, ExecutedQuery,
    HybridModel, OpLevelModel, OpModelConfig, QueryDataset, StructureKey, SubplanIndex,
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

/// Feature names are unique and aligned with the vector layout.
#[test]
fn feature_names_are_unique() {
    let names = plan_feature_names();
    let set: std::collections::HashSet<&String> = names.iter().collect();
    assert_eq!(set.len(), names.len());
    assert_eq!(names[0], "p_tot_cost");
    assert_eq!(names[1], "p_st_cost");
    assert_eq!(names[4], "op_count");
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

/// `<op>_cnt` features count exactly the operators in the histogram.
#[test]
fn op_count_features_match_histogram() {
    for t in [1u8, 3, 9, 13, 18] {
        let p = plan(t, 0.5);
        let views = node_views(&p);
        let f = plan_features(&p, &views);
        for (op, count) in op_histogram(&p) {
            let feature = f[7 + op.index()];
            assert_eq!(feature as usize, count, "t{t} {op:?}");
        }
    }
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

/// Operator-level feature vectors encode the child arity: unary operators
/// have zeroed right-child features.
#[test]
fn unary_operators_zero_right_child_features() {
    use qpp::features::op_features;
    let p = plan(1, 0.5);
    let views = node_views(&p);
    // Root (Sort) is unary.
    let f = op_features(&views[0], &[&views[1]], &[(1.0, 2.0)]);
    assert_eq!(f[3], 0.0); // nt2
    assert_eq!(f[7], 0.0); // st2
    assert_eq!(f[8], 0.0); // rt2
}

/// A structure hash by its definition, recursively: the node's operator,
/// scanned table and join kind, folded with its children's hashes in
/// order, except a binary hash join, which combines its two inputs as an
/// unordered pair with a `Hash` build wrapper stripped.
fn naive_structure_hash(plan: &[PlanNode], at: usize) -> u64 {
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x1000_0000_01b3);
    let node = &plan[at];
    let mut seed = mix(0xcbf2_9ce4_8422_2325, node.op.index() as u64 + 1);
    if let OpDetail::Scan { table, .. } = &node.detail {
        seed = mix(seed, *table as u64 + 101);
    }
    if let OpDetail::Join { kind, .. } = &node.detail {
        seed = mix(seed, *kind as u64 + 501);
    }
    let kids: Vec<usize> = children(plan, at).collect();
    if node.op == OpType::HashJoin && kids.len() == 2 {
        let input = |c: usize| {
            let wrapper = plan[c].op == OpType::Hash && children(plan, c).count() == 1;
            naive_structure_hash(plan, c + usize::from(wrapper))
        };
        let (a, b) = (input(kids[0]), input(kids[1]));
        let pair = (a ^ b).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ a.wrapping_add(b)
            ^ a.min(b).rotate_left(13);
        return mix(seed, pair);
    }
    kids.into_iter()
        .fold(seed, |h, c| mix(h, naive_structure_hash(plan, c)))
}

/// The one bottom-up pass agrees with the recursive definition and with
/// [`structure_key`] of the sub-plan on its own, at every pre-order
/// position of one plan per template, hash joins with and without a
/// `Hash` build wrapper included.
#[test]
fn the_hash_pass_matches_structure_key_at_every_node() {
    let mut hashes = Vec::new();
    for t in tpch::ALL_TEMPLATES {
        let p = plan(t, 0.5);
        structure_hashes_into(&p, &mut hashes);
        assert_eq!(hashes.len(), p.len(), "t{t}");
        for (i, &hash) in hashes.iter().enumerate() {
            assert_eq!(hash, naive_structure_hash(&p, i), "t{t} node {i}");
            assert_eq!(
                StructureKey(hash),
                structure_key(engine::plan::subplan(&p, i)),
                "t{t} node {i}"
            );
        }
    }
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
        .all()
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
