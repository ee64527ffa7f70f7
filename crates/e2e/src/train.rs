//! `train`: the offline / heal cycle — collect a **fresh** training
//! workload, train all three model sets, promote through the registry.
//! `ml::gram`/`svr`/`cv`/`par`, `core::hybrid::train_hybrid` and the
//! registry *write* path work here; inference and `serve` are idle. It is
//! the same `ml` layer as `lib_batch` used differently (fit vs predict,
//! snapshot write vs read), so a layout change that speeds one and slows
//! the other shows.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qpp::{ExecutedQuery, ModelRegistry, QppConfig, QppPredictor};

use crate::fixture::{train_on, Fixture, Sizes};
use crate::harness::{Check, RoundRaw, Verified, Workload};
use crate::serving::same_bits;
use crate::span::{Tracer, ROOT};
use crate::stream::METHODS;

/// State of the `train` workload.
pub struct Train {
    fx: Fixture,
    registry: ModelRegistry,
    seed: u64,
    ops: usize,
    per_template: usize,
    /// The model serving at the end of each timed round; `mre_*` is the
    /// mean over them, which repeats far better across seeds than the
    /// error of any single freshly trained model.
    round_models: Vec<Arc<QppPredictor>>,
}

impl Train {
    /// One collect → train → promote cycle; `Ok` when the new version is
    /// serving.
    pub fn op<T: Tracer>(&self, op: u64, tracer: &mut T) -> Result<u64, qpp::QppError> {
        // A new collection seed per op: genuinely new data, so the
        // content-addressed Gram cache misses as it would in production.
        let collection_seed = self.seed.wrapping_add(op);
        let span = tracer.enter("train.op", ROOT, op);
        let collect = tracer.enter("core.dataset.execute", span, op);
        let dataset = self.fx.collect_fresh(self.per_template, collection_seed);
        tracer.exit(collect);
        let refs: Vec<&ExecutedQuery> = dataset.queries.iter().collect();
        let fit = tracer.enter("core.predictor.train", span, op);
        let candidate = QppPredictor::train(&refs, QppConfig::default());
        tracer.exit(fit);
        let promote = tracer.enter("core.registry.promote", span, op);
        let version = candidate.and_then(|c| self.registry.promote(c));
        tracer.exit(promote);
        tracer.exit(span);
        version
    }
}

impl Workload for Train {
    const NAME: &'static str = "train";
    const LIMIT: Duration = Duration::from_secs(5);

    fn work_per_op(sizes: &Sizes) -> u64 {
        (sizes.train_per_template * sizes.templates.len()) as u64
    }

    fn set_up(sizes: &Sizes, seed: u64, dir: &Path) -> Train {
        let fx = Fixture::build(sizes, seed);
        let registry = ModelRegistry::create(dir, fx.train_predictor(), QppConfig::default())
            .expect("registry directory is writable");
        Train {
            fx,
            registry,
            seed,
            ops: sizes.train_ops,
            per_template: sizes.train_per_template,
            round_models: Vec::new(),
        }
    }

    fn context(&self) -> String {
        format!("1 caller thread, ml::par threads={}", ml::par::threads())
    }

    fn round<T: Tracer + Send>(&mut self, round: usize, tracer: &mut T) -> RoundRaw {
        let mut latencies = Vec::with_capacity(self.ops);
        let started = Instant::now();
        for k in 0..self.ops {
            let t = Instant::now();
            if self.op((round * self.ops + k) as u64, tracer).is_ok() {
                latencies.push(t.elapsed().as_nanos() as u64);
            }
        }
        let wall = started.elapsed();
        if round > 0 {
            self.round_models.push(self.registry.current());
        }
        RoundRaw {
            wall,
            attempted: self.ops as u64,
            ok_latencies_ns: latencies,
            gen_late_ns: Vec::new(),
        }
    }

    fn verify(&mut self) -> Verified {
        let pool: Vec<&ExecutedQuery> = self.fx.pool.iter().map(|q| &**q).collect();
        let actual: Vec<f64> = pool.iter().map(|q| q.latency()).collect();
        let mut mre = [0.0; 3];
        for model in &self.round_models {
            for (m, &method) in METHODS.iter().enumerate() {
                let values: Vec<f64> = pool
                    .iter()
                    .map(|q| model.predict_checked(q, method).value)
                    .collect();
                mre[m] +=
                    ml::mean_relative_error(&actual, &values) / self.round_models.len() as f64;
            }
        }
        // One more cycle, off the clock: what the registry serves after a
        // promote (rebuilt from the snapshot it wrote) must answer exactly
        // like the candidate that was handed in.
        let candidate = train_on(&self.fx.collect_fresh(self.per_template, self.seed ^ 0xC0DE));
        let before: Vec<_> = METHODS
            .iter()
            .flat_map(|&m| pool.iter().map(move |q| (q, m)))
            .map(|(q, m)| candidate.predict_checked(q, m))
            .collect();
        let versions_before = self.registry.current();
        let promoted = self.registry.promote(candidate).is_ok();
        let serving = self.registry.current();
        let identical = METHODS
            .iter()
            .flat_map(|&m| pool.iter().map(move |q| (q, m)))
            .zip(&before)
            .all(|((q, m), b)| same_bits(&serving.predict_checked(q, m), b));
        Verified {
            mre,
            checks: vec![
                Check::new(
                    "promote swapped the serving model",
                    promoted && !Arc::ptr_eq(&versions_before, &serving),
                ),
                Check::new(
                    "the promoted snapshot predicts bit-identically to its candidate",
                    identical,
                ),
            ],
        }
    }

    fn tear_down(self) -> Vec<Check> {
        Vec::new()
    }
}
