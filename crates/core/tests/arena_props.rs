//! Arena-vs-boxed equivalence tests.
//!
//! The prediction hot path now runs on [`engine::arena::PlanArena`] views
//! of plan trees instead of recursive boxed walks. Every ported consumer
//! must be *exactly* equivalent to the boxed original:
//!
//! - traversal: arena nodes/sizes/children/postorder mirror
//!   `PlanNode::preorder`/`node_count`/`children` pointer-for-pointer;
//! - subtree hashes: [`qpp::arena_structure_hashes`] agrees with the
//!   recursive [`qpp::structure_key`] at every pre-order position,
//!   including HashJoin's unordered-pair combine with Hash-wrapper
//!   stripping;
//! - feature rows: [`qpp::plan_features_slice`] over an arena fragment
//!   is bit-identical to [`qpp::plan_features`] over the boxed subtree;
//! - cached batch predictions: memoized and batched hybrid walks equal
//!   the direct arena compose bit-for-bit.
//!
//! Plans come from two generators: the real planner over the TPC-H
//! templates (exercising Join details, Hash wrappers, SubqueryScan), and
//! hand-built random trees sweeping shapes the planner never emits (deep
//! chains, arity > 2, detail-free joins). Each runs a deterministic grid,
//! then seeds drawn at random.

use engine::arena::PlanArena;
use engine::plan::{NodeEst, NodeTruth, OpDetail, OpType, PlanNode};
use engine::{Catalog, Planner};
use qpp::features::{node_views, FeatureSource};
use qpp::{
    arena_structure_hashes, plan_features, plan_features_slice, structure_key, subtree_hash_sizes,
    StructureKey,
};
use rng::StdRng;
use tpch::schema::TableId;

const TEMPLATES: [u8; 8] = [1, 3, 5, 6, 10, 12, 14, 18];

fn planner_plan(template: u8, seed: u64) -> PlanNode {
    let catalog = Catalog::new(0.1, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(seed);
    planner.plan(&tpch::instantiate(template, 0.1, &mut rng))
}

const TABLES: [TableId; 8] = [
    TableId::Region,
    TableId::Nation,
    TableId::Supplier,
    TableId::Customer,
    TableId::Part,
    TableId::Partsupp,
    TableId::Orders,
    TableId::Lineitem,
];

fn synth_node(rng: &mut StdRng, op: OpType, children: Vec<PlanNode>) -> PlanNode {
    let detail = if children.is_empty() {
        OpDetail::Scan {
            table: TABLES[rng.gen_range(0..TABLES.len())],
            filters: vec![],
        }
    } else {
        OpDetail::None
    };
    PlanNode {
        op,
        children,
        est: NodeEst {
            startup_cost: rng.gen_range(0.0..100.0),
            total_cost: rng.gen_range(100.0..10_000.0),
            rows: rng.gen_range(1.0..1e6),
            width: rng.gen_range(8.0..512.0),
            pages: rng.gen_range(1.0..1e4),
            selectivity: rng.gen_range(0.0..1.0),
        },
        truth: NodeTruth {
            rows: rng.gen_range(1.0..1e6),
            pages: rng.gen_range(1.0..1e4),
            selectivity: rng.gen_range(0.0..1.0),
        },
        detail,
    }
}

/// Random tree of bounded depth. Mixes arities 0–3 (the planner caps at
/// 2; the arena must not care) and, at depth ≥ 1, sometimes emits a
/// HashJoin whose build side carries the Hash wrapper — the structure
/// hash's strip-and-combine special case.
fn synth_tree(rng: &mut StdRng, depth: usize) -> PlanNode {
    if depth == 0 {
        let op = if rng.gen_bool(0.5) {
            OpType::SeqScan
        } else {
            OpType::IndexScan
        };
        return synth_node(rng, op, vec![]);
    }
    if rng.gen_bool(0.35) {
        // HashJoin(probe, Hash(build)) — and occasionally a bare build
        // side, since strip only fires on a unary Hash child.
        let probe = synth_tree(rng, depth - 1);
        let build = synth_tree(rng, depth - 1);
        let build = if rng.gen_bool(0.75) {
            synth_node(rng, OpType::Hash, vec![build])
        } else {
            build
        };
        return synth_node(rng, OpType::HashJoin, vec![probe, build]);
    }
    let internal = [
        OpType::Sort,
        OpType::Materialize,
        OpType::HashAggregate,
        OpType::GroupAggregate,
        OpType::Aggregate,
        OpType::Limit,
        OpType::NestedLoop,
        OpType::MergeJoin,
        OpType::SubqueryScan,
    ];
    let op = internal[rng.gen_range(0..internal.len())];
    let n_children = rng.gen_range(1..4usize);
    let children = (0..n_children)
        .map(|_| synth_tree(rng, depth - 1))
        .collect();
    synth_node(rng, op, children)
}

/// The full equivalence battery for one plan.
fn check_arena_equivalences(plan: &PlanNode) {
    let arena = PlanArena::flatten(plan);
    let boxed = plan.preorder();

    // Traversal: pre-order pointers, subtree sizes, child linkage.
    assert_eq!(arena.len(), boxed.len());
    for (i, n) in boxed.iter().enumerate() {
        assert!(std::ptr::eq(arena.node(i), *n), "node {i} differs");
        assert_eq!(arena.size(i), n.node_count(), "size {i} differs");
        let via_arena: Vec<*const PlanNode> = arena
            .children(i)
            .map(|c| arena.node(c) as *const PlanNode)
            .collect();
        let via_boxed: Vec<*const PlanNode> =
            n.children.iter().map(|c| c as *const PlanNode).collect();
        assert_eq!(via_arena, via_boxed, "children of {i} differ");
    }
    let post: Vec<usize> = arena.postorder().collect();
    assert_eq!(post.len(), arena.len());
    assert_eq!(*post.last().unwrap(), 0, "root must exit last");

    // Subtree hashes: arena pass vs the recursive per-subtree entry point.
    let hashes = arena_structure_hashes(&arena);
    for (i, n) in boxed.iter().enumerate() {
        assert_eq!(
            StructureKey(hashes[i]),
            structure_key(n),
            "hash at {i} diverged from recursive hashing"
        );
    }
    let (hashes2, sizes2) = subtree_hash_sizes(plan);
    assert_eq!(hashes, hashes2);
    assert_eq!(arena.sizes(), &sizes2[..]);

    // Feature rows: arena fragment slices vs boxed subtree extraction,
    // bit for bit, for every fragment.
    let views = node_views(plan, FeatureSource::Estimated, None);
    for i in 0..arena.len() {
        let slice = &views[i..i + arena.size(i)];
        let via_slice: Vec<u64> = plan_features_slice(arena.subtree_nodes(i), slice)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let via_boxed: Vec<u64> = plan_features(boxed[i], slice)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(via_slice, via_boxed, "feature row at {i} differs");
    }
}

#[test]
fn arena_equivalences_hold_for_planner_plans() {
    for &t in &TEMPLATES {
        for seed in 0..3u64 {
            check_arena_equivalences(&planner_plan(t, seed * 31 + t as u64));
        }
    }
    rng::cases(48, |rng| {
        let t = TEMPLATES[rng.gen_range(0usize..8)];
        check_arena_equivalences(&planner_plan(t, rng.next_u64()));
    });
}

#[test]
fn arena_equivalences_hold_for_random_trees() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = 1 + (seed as usize % 5);
        check_arena_equivalences(&synth_tree(&mut rng, depth));
    }
    rng::cases(48, |rng| {
        let depth = rng.gen_range(1usize..6);
        check_arena_equivalences(&synth_tree(rng, depth));
    });
}

#[test]
fn hash_join_orientation_symmetry_survives_the_arena_port() {
    // The structural key treats HashJoin inputs as an unordered pair with
    // the Hash wrapper stripped; both hashing implementations must keep
    // that across orientations.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ seed);
        let a = synth_tree(&mut rng, 2);
        let b = synth_tree(&mut rng, 2);
        let mut forward_rng = StdRng::seed_from_u64(7);
        let wrapped_b = synth_node(&mut forward_rng, OpType::Hash, vec![b.clone()]);
        let forward = synth_node(
            &mut forward_rng,
            OpType::HashJoin,
            vec![a.clone(), wrapped_b],
        );
        let mut reverse_rng = StdRng::seed_from_u64(7);
        let wrapped_a = synth_node(&mut reverse_rng, OpType::Hash, vec![a]);
        let reverse = synth_node(&mut reverse_rng, OpType::HashJoin, vec![b, wrapped_a]);
        assert_eq!(structure_key(&forward), structure_key(&reverse));
        let fwd_arena = PlanArena::flatten(&forward);
        let rev_arena = PlanArena::flatten(&reverse);
        assert_eq!(
            arena_structure_hashes(&fwd_arena)[0],
            arena_structure_hashes(&rev_arena)[0]
        );
        check_arena_equivalences(&forward);
        check_arena_equivalences(&reverse);
    }
}

#[test]
fn cached_batch_predictions_match_the_direct_arena_walk() {
    // The memoized walk, the shared-cache batch walk, and repeat walks
    // against a warm cache must all equal the direct (uncached) arena
    // compose bit-for-bit, with plan-level fragment models in play.
    use qpp::dataset::ExecutedQuery;
    use qpp::op_model::{OpLevelModel, OpModelConfig};
    use qpp::{train_hybrid, HybridConfig, PredictionCache, QueryDataset};

    let catalog = Catalog::new(0.1, 1);
    let workload = tpch::Workload::generate(&[1, 3, 6], 8, 0.1, 7);
    let sim = engine::Simulator::with_config(engine::SimConfig {
        additive_noise_secs: 0.05,
        ..engine::SimConfig::default()
    });
    let ds = QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("op model");
    let (hybrid, _) = train_hybrid(
        &refs,
        op,
        &HybridConfig {
            max_iterations: 4,
            min_frequency: 3,
            ..HybridConfig::default()
        },
    )
    .expect("hybrid");

    let cache = PredictionCache::default();
    let mut direct_bits = Vec::with_capacity(refs.len());
    for q in &refs {
        let views = q.views(hybrid.op_model.source());
        let direct = hybrid.predict_plan(&q.plan, &views).latency;
        let memo = hybrid.predict_plan_memo(&q.plan, &views, &cache);
        assert_eq!(direct.to_bits(), memo.to_bits(), "cold memo walk differs");
        let warm = hybrid.predict_plan_memo(&q.plan, &views, &cache);
        assert_eq!(direct.to_bits(), warm.to_bits(), "warm memo walk differs");
        direct_bits.push(direct.to_bits());
    }
    assert!(cache.stats().hits > 0, "repeat walks must hit the cache");

    let batch_bits: Vec<u64> = hybrid
        .predict_batch(&refs)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    assert_eq!(direct_bits, batch_bits, "batch walk differs from direct");
}
