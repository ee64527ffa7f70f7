//! `lib_batch`: one thread calls the batched, cached, guarded library
//! entry point. The model stack does all the work and `serve` does none,
//! so kernel, featurisation and prediction-cache gains must show here.

use std::path::Path;
use std::time::{Duration, Instant};

use qpp::{ExecutedQuery, ModelRegistry, QppConfig};

use crate::fixture::{Fixture, Sizes, LIB_BATCH};
use crate::harness::{Check, RoundRaw, Verified, Workload};
use crate::span::{Tracer, ROOT};
use crate::stream::METHODS;

/// State of the `lib_batch` workload.
pub struct LibBatch {
    fx: Fixture,
    registry: ModelRegistry,
    batches: usize,
}

impl Workload for LibBatch {
    const NAME: &'static str = "lib_batch";
    const LIMIT: Duration = Duration::from_millis(20);

    fn work_per_op(_: &Sizes) -> u64 {
        LIB_BATCH as u64
    }

    fn set_up(sizes: &Sizes, seed: u64, dir: &Path) -> LibBatch {
        let fx = Fixture::build(sizes, seed);
        let registry = ModelRegistry::create(dir, fx.train_predictor(), QppConfig::default())
            .expect("registry directory is writable");
        LibBatch {
            fx,
            registry,
            batches: sizes.lib_batches,
        }
    }

    fn context(&self) -> String {
        format!("1 caller thread, ml::par threads={}", ml::par::threads())
    }

    fn round<T: Tracer + Send>(&mut self, round: usize, tracer: &mut T) -> RoundRaw {
        let cache = self.registry.pred_cache();
        let mut latencies = Vec::with_capacity(self.batches);
        let mut group: Vec<&ExecutedQuery> = Vec::with_capacity(LIB_BATCH);
        let started = Instant::now();
        for b in 0..self.batches {
            let batch = (round * self.batches + b) as u64;
            let first = batch * LIB_BATCH as u64;
            let t = Instant::now();
            let span = tracer.enter("lib_batch.batch", ROOT, batch);
            let predictor = self.registry.current();
            let mut answered = 0;
            // A batch mixes the three methods; the entry point takes one
            // method per call, so the batch is three calls.
            for (m, &method) in METHODS.iter().enumerate() {
                group.clear();
                group.extend(
                    (first..first + LIB_BATCH as u64)
                        .filter(|i| (i % 3) as usize == m)
                        .map(|i| &**self.fx.request(i)),
                );
                let call = tracer.enter("core.predictor.predict_checked_batch_cached", span, batch);
                let out = predictor.predict_checked_batch_cached(&group, method, cache);
                tracer.exit(call);
                answered += std::hint::black_box(out).len();
            }
            tracer.exit(span);
            if answered == LIB_BATCH {
                latencies.push(t.elapsed().as_nanos() as u64);
            }
        }
        RoundRaw {
            wall: started.elapsed(),
            attempted: self.batches as u64,
            ok_latencies_ns: latencies,
            gen_late_ns: Vec::new(),
        }
    }

    fn verify(&mut self) -> Verified {
        let predictor = self.registry.current();
        let pool: Vec<&ExecutedQuery> = self.fx.pool.iter().map(|q| &**q).collect();
        let actual: Vec<f64> = pool.iter().map(|q| q.latency()).collect();
        let mut mre = [f64::NAN; 3];
        let mut identical = true;
        for (m, &method) in METHODS.iter().enumerate() {
            let batch =
                predictor.predict_checked_batch_cached(&pool, method, self.registry.pred_cache());
            identical &= pool
                .iter()
                .zip(&batch)
                .all(|(q, p)| *p == predictor.predict_checked(q, method));
            let values: Vec<f64> = batch.iter().map(|p| p.value).collect();
            mre[m] = ml::mean_relative_error(&actual, &values);
        }
        Verified {
            mre,
            checks: vec![Check::new(
                "batched cached predictions are bit-identical to predict_checked",
                identical,
            )],
        }
    }

    fn tear_down(self) -> Vec<Check> {
        Vec::new()
    }
}

impl LibBatch {
    /// The registry's prediction cache counters (a per-layer reading).
    pub fn pred_cache_stats(&self) -> qpp::PredictionCacheStats {
        self.registry.pred_cache().stats()
    }
}
