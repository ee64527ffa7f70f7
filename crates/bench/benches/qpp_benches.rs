//! Criterion micro-benchmarks for the operational path: what it costs to
//! plan, simulate, extract features, train models and make predictions.
//!
//! These quantify the paper's deployability argument — prediction from
//! static features must be orders of magnitude cheaper than running the
//! query.

// Offline builds may substitute a stub criterion whose `Criterion` is a
// unit struct; `Criterion::default()` is the form that compiles on both.
#![allow(clippy::default_constructed_unit_structs)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use engine::{Catalog, Planner, Simulator};
use qpp::op_model::{OpLevelModel, OpModelConfig};
use qpp::plan_model::{PlanLevelModel, PlanModelConfig};
use qpp::{ExecutedQuery, FeatureSource, QueryDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpch::Workload;

fn small_dataset() -> QueryDataset {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 10, 0.1, 7);
    QueryDataset::execute(&catalog, &workload, &Simulator::new(), 11, f64::INFINITY)
}

fn bench_planner(c: &mut Criterion) {
    let catalog = Catalog::new(1.0, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(3);
    let spec = tpch::instantiate(5, 1.0, &mut rng);
    c.bench_function("planner/plan_template_5", |b| {
        b.iter(|| std::hint::black_box(planner.plan(&spec)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let catalog = Catalog::new(1.0, 1);
    let planner = Planner::new(&catalog);
    let mut rng = StdRng::seed_from_u64(3);
    let plan = planner.plan(&tpch::instantiate(5, 1.0, &mut rng));
    let sim = Simulator::new();
    c.bench_function("simulator/execute_template_5", |b| {
        b.iter(|| std::hint::black_box(sim.execute(&plan, 1.0, 9)))
    });
}

fn bench_features(c: &mut Criterion) {
    let ds = small_dataset();
    let q = &ds.queries[0];
    c.bench_function("features/plan_level_extraction", |b| {
        b.iter(|| {
            let views = q.views(FeatureSource::Estimated);
            std::hint::black_box(qpp::plan_features(&q.plan, &views))
        })
    });
}

fn bench_training(c: &mut Criterion) {
    let ds = small_dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    c.bench_function("train/plan_level_40_queries", |b| {
        b.iter_batched(
            || refs.clone(),
            |r| std::hint::black_box(PlanLevelModel::train(&r, &PlanModelConfig::default())),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("train/op_level_40_queries", |b| {
        b.iter_batched(
            || refs.clone(),
            |r| std::hint::black_box(OpLevelModel::train(&r, &OpModelConfig::default())),
            BatchSize::SmallInput,
        )
    });
}

fn bench_prediction(c: &mut Criterion) {
    let ds = small_dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let plan_model = PlanLevelModel::train(&refs, &PlanModelConfig::default()).unwrap();
    let op_model = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let q = refs[0];
    c.bench_function("predict/plan_level", |b| {
        b.iter(|| std::hint::black_box(plan_model.predict(q)))
    });
    c.bench_function("predict/operator_level", |b| {
        b.iter(|| std::hint::black_box(op_model.predict(q)))
    });
    // The guarded path adds feature-finiteness checks and breaker reads
    // on top of the raw prediction; its overhead must stay negligible.
    let qpp = qpp::QppPredictor::train(&refs, qpp::QppConfig::default()).unwrap();
    c.bench_function("predict/checked_plan_level", |b| {
        b.iter(|| std::hint::black_box(qpp.predict_checked(q, qpp::Method::PlanLevel)))
    });
}

fn bench_compiled_inference(c: &mut Criterion) {
    use rand::Rng;
    // A plan-level-sized SVR: linear kernel, forward-selected feature
    // count, noisy target so nearly all rows stay support vectors.
    let mut rng = StdRng::seed_from_u64(0x51E9);
    let rows: Vec<Vec<f64>> = (0..512)
        .map(|_| (0..3).map(|_| rng.gen_range(-5.0f64..5.0)).collect())
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 2.0 * r[0] + 3.0 * r[1] - r[2] + rng.gen_range(-2.0..2.0))
        .collect();
    let x = ml::Dataset::from_rows(rows);
    let model = ml::svr::Svr::new(ml::SvrParams {
        kernel: ml::Kernel::Linear,
        max_iter: 2_000_000,
        ..ml::SvrParams::default()
    })
    .fit(&x, &y)
    .expect("SVR fit");
    let compiled = model.compile();
    let probes: Vec<Vec<f64>> = (0..256)
        .map(|_| (0..3).map(|_| rng.gen_range(-6.0f64..6.0)).collect())
        .collect();
    c.bench_function("predict/svr_reference_single_row", |b| {
        b.iter(|| std::hint::black_box(model.predict(&probes[0])))
    });
    let mut scratch = ml::PredictScratch::new();
    c.bench_function("predict/svr_compiled_single_row", |b| {
        b.iter(|| std::hint::black_box(compiled.predict_into(&probes[0], &mut scratch)))
    });
    let mut out = Vec::with_capacity(probes.len());
    c.bench_function("predict/svr_compiled_batch_256", |b| {
        b.iter(|| {
            compiled.predict_batch_into(&probes, &mut out, &mut scratch);
            std::hint::black_box(out.last().copied())
        })
    });
}

fn bench_hybrid_batch(c: &mut Criterion) {
    use qpp::hybrid::{train_hybrid, HybridConfig};
    let ds = small_dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let cfg = HybridConfig {
        max_iterations: 6,
        min_frequency: 3,
        ..HybridConfig::default()
    };
    let (hybrid, _) = train_hybrid(&refs, op, &cfg).unwrap();
    // Sub-plan-reuse workload: the training queries repeated 8x.
    let batch: Vec<&ExecutedQuery> = refs.iter().cycle().take(refs.len() * 8).copied().collect();
    c.bench_function("predict/hybrid_serial_loop_x8", |b| {
        b.iter(|| {
            std::hint::black_box(batch.iter().map(|q| hybrid.predict(q)).sum::<f64>())
        })
    });
    c.bench_function("predict/hybrid_batch_x8", |b| {
        b.iter(|| std::hint::black_box(hybrid.predict_batch(&batch)))
    });
}

fn bench_subplan_index(c: &mut Criterion) {
    let ds = small_dataset();
    let plans: Vec<(u8, &engine::PlanNode)> =
        ds.queries.iter().map(|q| (q.template, &q.plan)).collect();
    c.bench_function("subplan/index_40_plans", |b| {
        b.iter(|| std::hint::black_box(qpp::SubplanIndex::build(&plans, 2)))
    });
}

fn bench_arena(c: &mut Criterion) {
    use engine::PlanArena;
    let ds = small_dataset();
    let plan = &ds
        .queries
        .iter()
        .max_by_key(|q| q.plan.node_count())
        .unwrap()
        .plan;
    // Boxed walk: what the hot path did pre-arena — recursive pre-order
    // collection plus a per-node `node_count` and recursive hash.
    c.bench_function("arena/boxed_hash_sizes_walk", |b| {
        b.iter(|| {
            let nodes = plan.preorder();
            let hs: Vec<(u64, usize)> = nodes
                .iter()
                .map(|n| (qpp::structure_key(n).0, n.node_count()))
                .collect();
            std::hint::black_box(hs)
        })
    });
    // Arena walk: one flatten, then linear postorder hashing with the
    // sizes coming out of the flatten itself.
    c.bench_function("arena/flatten_hash_sizes", |b| {
        b.iter(|| {
            let arena = PlanArena::flatten(plan);
            let hashes = qpp::arena_structure_hashes(&arena);
            std::hint::black_box((hashes, arena.sizes().len()))
        })
    });
    let arena = PlanArena::flatten(plan);
    c.bench_function("arena/child_cursor_full_walk", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..arena.len() {
                for ci in arena.children(i) {
                    acc += ci;
                }
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_simd_kernel(c: &mut Criterion) {
    use ml::scaler::TargetScaler;
    use rand::Rng;
    // Hand-built SVR with every support vector retained (512 x the full
    // plan-feature arity) — the same shape perf_trajectory gates on.
    let d = qpp::features::plan_feature_count();
    let mut rng = StdRng::seed_from_u64(0x51E9);
    let sv: Vec<Vec<f64>> = (0..512)
        .map(|_| (0..d).map(|_| rng.gen_range(-5.0f64..5.0)).collect())
        .collect();
    let coef: Vec<f64> = (0..512)
        .map(|_| {
            let v: f64 = rng.gen_range(0.05f64..2.0);
            if rng.gen_bool(0.5) {
                v
            } else {
                -v
            }
        })
        .collect();
    let scaler_rows: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..d).map(|_| rng.gen_range(-20.0f64..20.0)).collect())
        .collect();
    let x_scaler = ml::StandardScaler::fit(&ml::Dataset::from_rows(scaler_rows));
    let y_scaler = TargetScaler::fit(&[-10.0, 0.0, 25.0]);
    let model = ml::SvrModel::from_parts(
        ml::Kernel::Linear,
        0.05,
        sv,
        coef,
        0.3,
        x_scaler,
        y_scaler,
        d,
    );
    let compiled = ml::compiled::CompiledSvr::compile(&model);
    let probes: Vec<Vec<f64>> = (0..256)
        .map(|_| (0..d).map(|_| rng.gen_range(-6.0f64..6.0)).collect())
        .collect();
    let mut scratch = ml::PredictScratch::new();
    c.bench_function("kernel/unblocked_single_row", |b| {
        b.iter(|| std::hint::black_box(model.predict(&probes[0])))
    });
    c.bench_function("kernel/scalar_tree_single_row", |b| {
        b.iter(|| std::hint::black_box(compiled.predict_into_scalar(&probes[0], &mut scratch)))
    });
    c.bench_function("kernel/dispatched_single_row", |b| {
        b.iter(|| std::hint::black_box(compiled.predict_into(&probes[0], &mut scratch)))
    });
    let mut out = Vec::with_capacity(probes.len());
    c.bench_function("kernel/block_4_rows", |b| {
        b.iter(|| {
            compiled.predict_batch_into(&probes[..4], &mut out, &mut scratch);
            std::hint::black_box(out.last().copied())
        })
    });
    c.bench_function("kernel/batch_256", |b| {
        b.iter(|| {
            compiled.predict_batch_into(&probes, &mut out, &mut scratch);
            std::hint::black_box(out.last().copied())
        })
    });
}

fn bench_ml(c: &mut Criterion) {
    use ml::{Dataset, Learner, LearnerKind};
    let mut rng = StdRng::seed_from_u64(4);
    use rand::Rng;
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..8).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>() * 2.0 + 1.0).collect();
    let x = Dataset::from_rows(rows);
    c.bench_function("ml/linreg_fit_200x8", |b| {
        b.iter(|| std::hint::black_box(LearnerKind::Linear { ridge: 1e-6 }.fit(&x, &y)))
    });
    c.bench_function("ml/svr_fit_200x8", |b| {
        b.iter(|| {
            std::hint::black_box(LearnerKind::Svr(ml::SvrParams::default()).fit(&x, &y))
        })
    });
    c.bench_function("ml/nusvr_fit_200x8", |b| {
        b.iter(|| {
            std::hint::black_box(LearnerKind::NuSvr(ml::NuSvrParams::default()).fit(&x, &y))
        })
    });
    // Five-fold CV over the same data: exercises the parallel fold fan-out
    // and the Gram cache (each distinct fold misses once, then hits).
    let folds = ml::cv::kfold(x.n_rows(), 5, 4);
    c.bench_function("ml/cv5_svr_200x8", |b| {
        b.iter(|| {
            std::hint::black_box(ml::cv::cross_validate(
                &LearnerKind::Svr(ml::SvrParams::default()),
                &x,
                &y,
                &folds,
            ))
        })
    });
}

fn bench_collection(c: &mut Criterion) {
    let catalog = Catalog::new(0.1, 1);
    let workload = Workload::generate(&[1, 3, 6, 14], 10, 0.1, 7);
    let sim = Simulator::new();
    c.bench_function("collect/execute_40_queries", |b| {
        b.iter(|| {
            std::hint::black_box(QueryDataset::execute(
                &catalog,
                &workload,
                &sim,
                11,
                f64::INFINITY,
            ))
        })
    });
}

fn bench_hybrid_build(c: &mut Criterion) {
    use qpp::hybrid::{train_hybrid, HybridConfig};
    let ds = small_dataset();
    let refs: Vec<&ExecutedQuery> = ds.queries.iter().collect();
    let op = OpLevelModel::train(&refs, &OpModelConfig::default()).unwrap();
    let cfg = HybridConfig {
        max_iterations: 6,
        min_frequency: 3,
        ..HybridConfig::default()
    };
    c.bench_function("train/hybrid_build_40_queries", |b| {
        b.iter_batched(
            || op.clone(),
            |op| std::hint::black_box(train_hybrid(&refs, op, &cfg)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_planner, bench_simulator, bench_features, bench_training,
              bench_prediction, bench_compiled_inference, bench_hybrid_batch,
              bench_subplan_index, bench_arena, bench_simd_kernel, bench_ml,
              bench_collection, bench_hybrid_build
}
criterion_main!(benches);
