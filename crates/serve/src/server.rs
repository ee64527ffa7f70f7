//! The single-registry prediction front-end, and the request plumbing it
//! shares with [`crate::tenant`].
//!
//! [`PredictionServer`] puts one hot-swap [`ModelRegistry`] behind
//! admission control and a worker pool. It owns no thread, queue or
//! admission state of its own: it *is* a [`TenantServer`] with exactly one
//! tenant whose lane quota is unbounded, so the only limits a caller can
//! meet are the service-wide ones and every refusal is typed
//! [`QppError::Overloaded`]. The four behaviours a predictor on a live
//! system's critical path needs (Section 1's admission-control and
//! workload-management use cases) are the tenant server's:
//!
//! 1. **Backpressure** — admission control (queue-depth shedding, then a
//!    token bucket) rejects excess load synchronously with
//!    [`QppError::Overloaded`] instead of queueing it unboundedly.
//! 2. **Deadlines** — each request may carry a budget; a worker refuses a
//!    request whose budget has run out by the time it is dequeued with
//!    [`QppError::DeadlineExceeded`], and serves every other one at the
//!    tier it asked for.
//! 3. **Coalescing** — a worker pops up to `max_batch` queued requests at
//!    once and funnels same-method groups through the batched predictor
//!    path, whose results are bit-identical to the serial checked loop.
//! 4. **Swap safety** — workers snapshot `registry.current()` per batch,
//!    so a promote/rollback mid-flight never mixes model versions inside
//!    one batch and never tears a single prediction.

use qpp::{Method, ModelRegistry, Prediction, PredictionCache, QppError, QppPredictor};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::admission::RateLimit;
use crate::stats::{Endpoint, ServeStats, ServeStatsSnapshot};
use crate::tenant::{TenantBudget, TenantServeConfig, TenantServer, TenantSpec};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `None` defers to the process-wide
    /// `ml::par` setting (`QPP_THREADS` / `set_threads`), so one knob
    /// sizes the training fan-outs and the serving pool alike.
    pub workers: Option<usize>,
    /// Bounded queue capacity: the depth at which admission sheds.
    pub queue_capacity: usize,
    /// Optional token-bucket rate limit at the front door.
    pub rate_limit: Option<RateLimit>,
    /// Most requests a worker coalesces into one batch (at least 1).
    pub max_batch: usize,
    /// Deadline applied to requests submitted without one. `None` means
    /// such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Fault injection: every worker sleeps this long before serving each
    /// batch it pops (a GC pause, a page fault, a noisy neighbour). Zero,
    /// the default, injects nothing.
    pub worker_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: None,
            queue_capacity: 256,
            rate_limit: None,
            max_batch: 32,
            default_deadline: None,
            worker_stall: Duration::ZERO,
        }
    }
}

/// One queued prediction request. Shared with the multi-tenant front-end
/// in [`crate::tenant`], which queues the same jobs per-tenant.
pub(crate) struct Job {
    pub(crate) query: Arc<qpp::ExecutedQuery>,
    pub(crate) method: Method,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) budget_secs: f64,
    pub(crate) reply: mpsc::Sender<Result<Prediction, QppError>>,
}

/// Handle to a submitted request; resolves to the prediction or a typed
/// serving error.
pub struct PendingPrediction {
    rx: mpsc::Receiver<Result<Prediction, QppError>>,
}

impl PendingPrediction {
    pub(crate) fn new(rx: mpsc::Receiver<Result<Prediction, QppError>>) -> PendingPrediction {
        PendingPrediction { rx }
    }

    /// Blocks until the request is answered.
    pub fn wait(self) -> Result<Prediction, QppError> {
        self.rx
            .recv()
            .unwrap_or(Err(QppError::Internal("serving worker dropped the reply")))
    }

    /// Blocks until the request is answered or `timeout` elapses. Used by
    /// the networked front door's drain: a reply that does not arrive
    /// within the drain budget is abandoned (the worker may still serve
    /// it, but no one is listening).
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<Prediction, QppError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(QppError::Internal("request aborted at shutdown"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(QppError::Internal("serving worker dropped the reply"))
            }
        }
    }
}

/// The name of a [`PredictionServer`]'s one tenant.
const TENANT: &str = "default";

/// A concurrent, overload-resilient prediction service over a hot-swap
/// model registry: the one-tenant case of [`TenantServer`]. Dropping the
/// server closes the queue, drains what was already admitted, and joins
/// all workers.
pub struct PredictionServer {
    registry: Arc<ModelRegistry>,
    inner: TenantServer,
}

impl PredictionServer {
    /// Starts a server with `config.workers` (resolved against the
    /// process-wide `ml::par` setting) worker threads over `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> PredictionServer {
        let tenant = TenantSpec {
            name: TENANT.to_string(),
            registry: Arc::clone(&registry),
            budget: TenantBudget {
                rate_limit: None,
                // Never the binding limit: a full queue is the service's
                // (`Overloaded`), not the tenant's (`TenantOverloaded`).
                queue_quota: usize::MAX,
                weight: 1.0,
                default_deadline: config.default_deadline,
            },
        };
        let inner = TenantServer::start(
            vec![tenant],
            TenantServeConfig {
                workers: config.workers,
                global_capacity: config.queue_capacity,
                global_rate_limit: config.rate_limit,
                max_batch: config.max_batch,
                worker_stall: config.worker_stall,
            },
        );
        PredictionServer { registry, inner }
    }

    /// The registry this server predicts from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Serving statistics snapshot.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.inner
            .stats(TENANT)
            .expect("the one tenant is never removed")
    }

    /// Submits a prediction request. Admission control runs synchronously
    /// on the calling thread: an overloaded server answers
    /// [`QppError::Overloaded`] immediately, without queueing.
    ///
    /// `deadline` overrides the configured default budget; `None` uses
    /// the default (which may itself be "no deadline").
    pub fn submit(
        &self,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<PendingPrediction, QppError> {
        self.inner.submit(TENANT, query, method, deadline)
    }

    /// Convenience: submit and block for the answer.
    pub fn predict(
        &self,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<Prediction, QppError> {
        self.submit(query, method, deadline)?.wait()
    }
}

/// Serves one popped batch against one model snapshot: expired jobs are
/// refused, the rest go through the batched predictor path grouped by
/// method. Every job is answered and recorded in `stats` exactly once.
pub(crate) fn serve_batch(
    batch: Vec<Job>,
    stats: &ServeStats,
    predictor: &QppPredictor,
    cache: &PredictionCache,
) {
    let now = Instant::now();
    let mut groups: Vec<(Method, Vec<Job>)> = Vec::new();
    for job in batch {
        if job.deadline.is_some_and(|d| d <= now) {
            refuse_expired(stats, job);
            continue;
        }
        match groups.iter_mut().find(|(m, _)| *m == job.method) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((job.method, vec![job])),
        }
    }
    for (method, jobs) in groups {
        let queries: Vec<&qpp::ExecutedQuery> = jobs.iter().map(|j| &*j.query).collect();
        let predictions = predictor.predict_checked_batch_cached(&queries, method, cache);
        for (job, p) in jobs.into_iter().zip(predictions) {
            reply(stats, job, p);
        }
    }
}

fn refuse_expired(stats: &ServeStats, job: Job) {
    stats.record_deadline_miss();
    let _ = job.reply.send(Err(QppError::DeadlineExceeded {
        budget_secs: job.budget_secs,
    }));
}

fn reply(stats: &ServeStats, job: Job, prediction: Prediction) {
    stats.record_served(
        Endpoint::of(job.method),
        prediction.method_used,
        prediction.degraded,
        job.submitted.elapsed().as_secs_f64(),
    );
    let _ = job.reply.send(Ok(prediction));
}
