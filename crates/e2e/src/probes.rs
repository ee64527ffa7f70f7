//! Per-layer probes of the traced run: each times calls into one layer's
//! **public** functions from outside (no edits to the layers), inside a
//! span, and reports the median over a few repetitions.
//!
//! Only this module and `traced` reach past the narrow surface the
//! workloads use (`compute_gram_blocked`, `Svr::fit`, `PredictionServer`,
//! `encode_snapshot`, …), so refactors that collapse that wider API need
//! to touch the probes, never the workloads.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use engine::Planner;
use ml::{GramCache, LearnerKind, PredictScratch, Svr, SvrParams};
use qpp::{
    plan_features, ExecutedQuery, FeatureSource, HybridConfig, MaterializedModels, ModelRegistry,
    OpLevelModel, OpModelConfig, PlanLevelModel, PlanModelConfig, QppConfig, QppPredictor,
    QueryDataset,
};
use serve::{AdmissionController, PredictionServer, ServeConfig, WeightedFairQueue};
use tpch::Workload;

use crate::fixture::{Fixture, Sizes};
use crate::report::Metric;
use crate::span::{SpanId, SpanLog, Tracer, ROOT};
use crate::stats::{median, percentile_sorted};
use crate::stream::{method_of, METHODS};

/// Collects probe readings and the spans behind them.
pub struct Probes<'a> {
    log: &'a mut SpanLog,
    root: SpanId,
    reps: usize,
    /// Readings so far.
    pub metrics: Vec<Metric>,
}

impl<'a> Probes<'a> {
    /// Probes recording into `log`, `reps` repetitions each.
    pub fn new(log: &'a mut SpanLog, reps: usize) -> Probes<'a> {
        let root = log.enter("probes", ROOT, 0);
        Probes {
            log,
            root,
            reps: reps.max(1),
            metrics: Vec::new(),
        }
    }

    /// Closes the probes' root span.
    pub fn finish(self) -> Vec<Metric> {
        self.log.exit(self.root);
        self.metrics
    }

    /// Records a reading.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Runs `f` once per repetition inside a span called `span`; returns
    /// the median duration in seconds.
    fn time(&mut self, span: &'static str, mut f: impl FnMut(u64)) -> f64 {
        let secs: Vec<f64> = (0..self.reps as u64)
            .map(|rep| {
                let id = self.log.enter(span, self.root, rep);
                let t = Instant::now();
                f(rep);
                let elapsed = t.elapsed().as_secs_f64();
                self.log.exit(id);
                elapsed
            })
            .collect();
        median(&secs)
    }
}

/// Runs `f` with `ml::par` forced to one thread.
fn serially<R>(f: impl FnOnce() -> R) -> R {
    ml::par::set_threads(1);
    let out = f();
    ml::par::set_threads(0);
    out
}

/// Collection and set-up: should move `train/*` and `setup_s` everywhere,
/// and nothing on the serving workloads' throughput.
pub fn collection(p: &mut Probes<'_>, fx: &Fixture, sizes: &Sizes, seed: u64) {
    let per = sizes.train_per_template;
    let n = (per * fx.templates.len()) as f64;
    let workload = |rep: u64| Workload::generate(fx.templates, per, fx.sf, seed ^ (0x7000 + rep));
    let secs = p.time("tpch.Workload.generate", |rep| {
        std::hint::black_box(workload(rep));
    });
    p.push("tpch.generate_us_per_query", secs * 1e6 / n, "us");

    let specs = workload(0);
    let planner = Planner::new(&fx.catalog);
    let secs = p.time("engine.Planner.plan", |_| {
        for spec in &specs.queries {
            std::hint::black_box(planner.plan(spec));
        }
    });
    p.push("engine.plan_us_per_query", secs * 1e6 / n, "us");

    let plans: Vec<_> = specs.queries.iter().map(|s| planner.plan(s)).collect();
    let secs = p.time("engine.Simulator.execute", |rep| {
        for (i, plan) in plans.iter().enumerate() {
            std::hint::black_box(fx.sim.execute(plan, fx.sf, seed + rep + i as u64));
        }
    });
    p.push("engine.simulate_us_per_query", secs * 1e6 / n, "us");

    let execute =
        |rep: u64| QueryDataset::execute(&fx.catalog, &specs, &fx.sim, seed + rep, f64::INFINITY);
    let parallel = p.time("core.QueryDataset.execute", |rep| {
        std::hint::black_box(execute(rep));
    });
    p.push(
        "core.dataset.execute_us_per_query",
        parallel * 1e6 / n,
        "us",
    );
    let serial = p.time("core.QueryDataset.execute.1thread", |rep| {
        std::hint::black_box(serially(|| execute(rep)));
    });
    p.push("core.dataset.par_speedup", serial / parallel, "ratio");
}

/// Training: should move `train/*` and `setup_s` on the serving
/// workloads, and nothing on `lib_batch/throughput`.
pub fn training(p: &mut Probes<'_>, fx: &Fixture, seed: u64, dir: &Path) {
    let refs: Vec<&ExecutedQuery> = fx.train.queries.iter().collect();
    let n = refs.len() as f64;
    let source = FeatureSource::Estimated;

    let secs = p.time("core.plan_model.assemble", |_| {
        std::hint::black_box(qpp::plan_model::assemble(&refs, source));
    });
    p.push("core.features.assemble_us_per_query", secs * 1e6 / n, "us");

    let (x, y) = qpp::plan_model::assemble(&refs, source);
    let y: Vec<f64> = y.iter().map(|v| v.ln_1p()).collect();
    let params = SvrParams::default();
    let secs = p.time("ml.gram.compute_gram_blocked", |_| {
        let gamma = 1.0 / x.n_cols() as f64;
        std::hint::black_box(ml::gram::compute_gram_blocked(&x, params.kernel, gamma));
    });
    p.push("ml.gram.build_ms", secs * 1e3, "ms");

    let secs = p.time("ml.Svr.fit", |_| {
        std::hint::black_box(
            Svr::new(params.clone())
                .fit(&x, &y)
                .expect("SVR fits a clean log"),
        );
    });
    p.push("ml.svr.fit_ms", secs * 1e3, "ms");

    let learner = LearnerKind::Svr(params.clone());
    let folds = ml::kfold(x.n_rows(), 5.min(x.n_rows()), seed);
    let secs = p.time("ml.cv.cross_validate", |_| {
        std::hint::black_box(ml::cv::cross_validate(&learner, &x, &y, &folds).expect("CV runs"));
    });
    p.push("ml.cv.cv5_ms", secs * 1e3, "ms");

    let secs = p.time("core.PlanLevelModel.train", |_| {
        std::hint::black_box(
            PlanLevelModel::train(&refs, &PlanModelConfig::default()).expect("trains"),
        );
    });
    p.push("core.plan_model.train_ms", secs * 1e3, "ms");

    let secs = p.time("core.OpLevelModel.train", |_| {
        std::hint::black_box(
            OpLevelModel::train(&refs, &OpModelConfig::default()).expect("trains"),
        );
    });
    p.push("core.op_model.train_ms", secs * 1e3, "ms");

    let op_model = OpLevelModel::train(&refs, &OpModelConfig::default()).expect("trains");
    let mut iterations = 0;
    let secs = p.time("core.train_hybrid", |_| {
        let (_, trajectory) =
            qpp::train_hybrid(&refs, op_model.clone(), &HybridConfig::default()).expect("trains");
        iterations = trajectory.len();
    });
    p.push("core.hybrid.train_ms", secs * 1e3, "ms");
    p.push("core.hybrid.iterations", iterations as f64, "count");

    // The Gram cache is content-addressed, so training on a log it has
    // seen hits and training on fresh data misses; read it across one
    // training of a fresh log, which is what the `train` workload does.
    let fresh = fx.collect_fresh(fx.train.len() / fx.templates.len(), seed ^ 0xF4E5);
    let fresh_refs: Vec<&ExecutedQuery> = fresh.queries.iter().collect();
    let before = GramCache::global().stats();
    QppPredictor::train(&fresh_refs, QppConfig::default()).expect("trains");
    let after = GramCache::global().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    p.push(
        "ml.gram.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
    );

    let train = || QppPredictor::train(&refs, QppConfig::default()).expect("trains");
    let parallel = p.time("core.QppPredictor.train", |_| {
        std::hint::black_box(train());
    });
    p.push("core.predictor.train_ms", parallel * 1e3, "ms");
    let serial = p.time("core.QppPredictor.train.1thread", |_| {
        std::hint::black_box(serially(train));
    });
    p.push(
        "core.predictor.train_par_speedup",
        serial / parallel,
        "ratio",
    );

    let mut candidates: Vec<QppPredictor> = (0..2 * p.reps).map(|_| train()).collect();
    let mut registries = Vec::new();
    let secs = p.time("core.ModelRegistry.create", |rep| {
        let initial = candidates.pop().expect("one per repetition");
        let at = dir.join(format!("probe-create-{rep}"));
        registries.push(ModelRegistry::create(at, initial, QppConfig::default()).expect("creates"));
    });
    p.push("core.registry.create_ms", secs * 1e3, "ms");
    let secs = p.time("core.ModelRegistry.promote", |_| {
        let candidate = candidates.pop().expect("one per repetition");
        registries[0].promote(candidate).expect("promotes");
    });
    p.push("core.registry.promote_ms", secs * 1e3, "ms");

    let materialized = MaterializedModels::from_predictor(&registries[0].current());
    let secs = p.time("core.encode_snapshot", |_| {
        std::hint::black_box(qpp::encode_snapshot(&materialized));
    });
    p.push("core.registry.encode_snapshot_ms", secs * 1e3, "ms");
    let bytes = qpp::encode_snapshot(&materialized);
    let secs = p.time("core.decode_snapshot", |_| {
        std::hint::black_box(qpp::decode_snapshot(&bytes).expect("decodes what it encoded"));
    });
    p.push("core.registry.decode_snapshot_ms", secs * 1e3, "ms");
    p.push("core.registry.snapshot_bytes", bytes.len() as f64, "bytes");
}

/// Inference: should move `lib_batch/throughput` and `latency_p50_us`
/// nearly 1:1, a minority of `serve_open/latency_p50_us`, and nothing on
/// `wire_closed/*`.
pub fn inference(p: &mut Probes<'_>, fx: &Fixture, predictor: &QppPredictor) {
    let pool: Vec<&ExecutedQuery> = fx.pool.iter().map(|q| &**q).collect();
    let n = pool.len() as f64;
    let source = FeatureSource::Estimated;

    let secs = p.time("core.features.views+plan_features", |_| {
        for q in &pool {
            let views = q.views(source);
            std::hint::black_box(plan_features(&q.plan, &views));
        }
    });
    p.push("core.features.featurize_ns_per_query", secs * 1e9 / n, "ns");

    // A plan-level-shaped SVR fitted here, because the trained models keep
    // their compiled kernels private.
    let train_refs: Vec<&ExecutedQuery> = fx.train.queries.iter().collect();
    let (x, y) = qpp::plan_model::assemble(&train_refs, source);
    let y: Vec<f64> = y.iter().map(|v| v.ln_1p()).collect();
    let model = Svr::new(SvrParams::default())
        .fit(&x, &y)
        .expect("SVR fits a clean log");
    let compiled = model.compile();
    let (pool_x, _) = qpp::plan_model::assemble(&pool, source);
    let rows: Vec<&[f64]> = pool_x.rows().collect();
    let mut scratch = PredictScratch::new();
    let mut out = Vec::new();
    let secs = p.time("ml.CompiledSvr.predict_batch_into", |_| {
        compiled.predict_batch_into(&rows, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });
    p.push("ml.compiled.ns_per_row", secs * 1e9 / n, "ns");
    let secs = p.time("ml.CompiledSvr.predict_into", |_| {
        for row in &rows {
            std::hint::black_box(compiled.predict_into(row, &mut scratch));
        }
    });
    p.push("ml.compiled.single_ns_per_row", secs * 1e9 / n, "ns");
    p.push(
        "ml.compiled.support_vectors",
        model.n_support_vectors() as f64,
        "count",
    );

    let secs = p.time("core.PlanLevelModel.predict_batch", |_| {
        std::hint::black_box(predictor.plan_level.predict_batch(&pool));
    });
    p.push("core.plan_model.ns_per_query", secs * 1e9 / n, "ns");
    let secs = p.time("core.OpLevelModel.predict_batch", |_| {
        std::hint::black_box(predictor.op_level.predict_batch(&pool));
    });
    p.push("core.op_model.ns_per_query", secs * 1e9 / n, "ns");
    let secs = p.time("core.HybridModel.predict_batch", |_| {
        std::hint::black_box(predictor.hybrid.predict_batch(&pool));
    });
    p.push("core.hybrid.ns_per_query", secs * 1e9 / n, "ns");
    let cache = qpp::PredictionCache::default();
    predictor.hybrid.predict_batch_cached(&pool, &cache);
    let secs = p.time("core.HybridModel.predict_batch_cached", |_| {
        std::hint::black_box(predictor.hybrid.predict_batch_cached(&pool, &cache));
    });
    p.push("core.hybrid.cached_ns_per_query", secs * 1e9 / n, "ns");

    let checked = p.time("core.QppPredictor.predict_checked_batch_cached", |_| {
        for &method in &METHODS {
            std::hint::black_box(predictor.predict_checked_batch_cached(&pool, method, &cache));
        }
    });
    let raw = p.time("core.QppPredictor.predict_batch", |_| {
        for &method in &METHODS {
            std::hint::black_box(predictor.predict_batch(&pool, method));
        }
    });
    p.push(
        "core.predictor.guard_self_ns",
        (checked - raw) * 1e9 / (3.0 * n),
        "ns",
    );
}

/// In-process serving pieces that can be driven alone: should move
/// `serve_open/latency_p50_us` and `slo_met_share` and their share of
/// `wire_closed/latency_p50_us`, and nothing on `lib_batch/*`, `train/*`.
pub fn serving(p: &mut Probes<'_>, fx: &Fixture, sizes: &Sizes, dir: &Path) {
    const ADMITS: u64 = 1_000_000;
    let secs = p.time("serve.AdmissionController.admit", |_| {
        let mut admission = AdmissionController::new(None, 1024);
        for i in 0..ADMITS {
            std::hint::black_box(admission.admit(i as f64 * 1e-6, (i % 512) as usize).is_ok());
        }
    });
    p.push("serve.admission.admit_ns", secs * 1e9 / ADMITS as f64, "ns");

    // Bursts of 24 + 8 pushed into two lanes weighted 4:1 and popped in
    // batches of up to 32, as the workers do under `serve_open`.
    const BURSTS: u64 = 20_000;
    let secs = p.time("serve.WeightedFairQueue.push+pop", |_| {
        let queue = WeightedFairQueue::<u64>::new(1024);
        let gold = queue.add_tenant(4.0, 512);
        let bronze = queue.add_tenant(1.0, 512);
        for burst in 0..BURSTS {
            for k in 0..32 {
                let lane = if k % 4 == 3 { bronze } else { gold };
                let _ = queue.try_push(lane, burst * 32 + k);
            }
            while let Some(batch) = queue.try_pop_batch(32) {
                std::hint::black_box(batch);
            }
        }
    });
    p.push(
        "serve.tenant.wfq_pops_per_s",
        (BURSTS * 32) as f64 / secs,
        "1/s",
    );

    // The single-tenant server, for the roadmap's "collapse to one" item.
    let registry = Arc::new(
        ModelRegistry::create(
            dir.join("probe-single"),
            fx.train_predictor(),
            QppConfig::default(),
        )
        .expect("creates"),
    );
    let server = PredictionServer::start(registry, ServeConfig::default());
    let requests = (sizes.replay / 4).max(1) as u64;
    let mut latencies: Vec<u64> = (0..requests)
        .map(|i| {
            let span = p.log.enter("serve.PredictionServer.predict", p.root, i);
            let t = Instant::now();
            let answer = server.predict(fx.request(i).clone(), method_of(i), None);
            let ns = t.elapsed().as_nanos() as u64;
            p.log.exit(span);
            std::hint::black_box(answer.is_ok());
            ns
        })
        .collect();
    latencies.sort_unstable();
    p.push(
        "serve.server.predict_us_p50",
        percentile_sorted(&latencies, 50.0) as f64 / 1e3,
        "us",
    );
}
