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
//!
//! A blocking [`PredictionServer::predict`] on an idle server is served on
//! the calling thread, through the same admission, ledger and
//! `serve_batch` as a queued one.

use qpp::{Method, ModelRegistry, Prediction, PredictionCache, QppError, QppPredictor};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::RateLimit;
use crate::stats::{Endpoint, ServeStats, ServeStatsSnapshot};
use crate::tenant::{TenantBudget, TenantServeConfig, TenantServer, TenantSpec};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most batches in service at once: the cap on worker threads, which
    /// start as queued work needs them, and on callers served in place.
    /// `None` defers to the process-wide `ml::par` setting
    /// (`QPP_THREADS` / `set_threads`), so one knob sizes the training
    /// fan-outs and the serving pool alike.
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

/// One prediction request on its way through [`crate::tenant`]'s lanes,
/// or served where it was asked ([`TenantServer::predict`] on an idle
/// server).
pub(crate) struct Job {
    pub(crate) query: Arc<qpp::ExecutedQuery>,
    pub(crate) method: Method,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) budget_secs: f64,
    /// Where a queued job's answer goes; `None` for a job served on the
    /// thread that asked, whose answer [`serve_batch`] returns instead.
    pub(crate) reply: Option<ReplySender>,
}

type Answer = Result<Prediction, QppError>;

/// A one-slot hand-off from the serving worker to the waiting caller:
/// one allocation (the `Arc`) per queued request, filled at most once.
struct ReplySlot {
    state: Mutex<SlotState>,
    filled: Condvar,
}

enum SlotState {
    Empty,
    Full(Answer),
    /// The sender went away without answering (or the answer was taken).
    Closed,
}

/// The worker's end of a [`ReplySlot`]. Dropping it unanswered closes
/// the slot, so a waiter learns the reply is lost instead of hanging.
pub(crate) struct ReplySender(Option<Arc<ReplySlot>>);

impl ReplySender {
    fn fill(slot: &ReplySlot, state: SlotState) {
        *slot.state.lock().unwrap() = state;
        slot.filled.notify_one();
    }

    fn send(mut self, answer: Answer) {
        if let Some(slot) = self.0.take() {
            Self::fill(&slot, SlotState::Full(answer));
        }
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            Self::fill(&slot, SlotState::Closed);
        }
    }
}

/// Handle to a request; resolves to the prediction or a typed serving
/// error.
pub struct PendingPrediction(Pending);

enum Pending {
    /// Served on the asking thread: the answer is already here.
    Ready(Answer),
    /// Queued: a worker fills the slot.
    Queued(Arc<ReplySlot>),
}

impl PendingPrediction {
    /// A queued request's handle and the sender its worker answers on.
    pub(crate) fn queued() -> (PendingPrediction, ReplySender) {
        let slot = Arc::new(ReplySlot {
            state: Mutex::new(SlotState::Empty),
            filled: Condvar::new(),
        });
        let sender = ReplySender(Some(Arc::clone(&slot)));
        (PendingPrediction(Pending::Queued(slot)), sender)
    }

    /// The handle of a request already answered on the asking thread.
    pub(crate) fn ready(answer: Answer) -> PendingPrediction {
        PendingPrediction(Pending::Ready(answer))
    }

    /// Blocks until the request is answered.
    pub fn wait(self) -> Result<Prediction, QppError> {
        self.wait_until(None)
    }

    /// Blocks until the request is answered or `timeout` elapses. Used by
    /// the networked front door's drain: a reply that does not arrive
    /// within the drain budget is abandoned (the worker may still serve
    /// it, but no one is listening).
    pub(crate) fn wait_timeout(self, timeout: Duration) -> Result<Prediction, QppError> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(self, deadline: Option<Instant>) -> Answer {
        let slot = match self.0 {
            Pending::Ready(answer) => return answer,
            Pending::Queued(slot) => slot,
        };
        let mut state = slot.state.lock().unwrap();
        while matches!(*state, SlotState::Empty) {
            state = match deadline {
                None => slot.filled.wait(state).unwrap(),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(QppError::Internal("request aborted at shutdown"));
                    }
                    slot.filled.wait_timeout(state, left).unwrap().0
                }
            };
        }
        match std::mem::replace(&mut *state, SlotState::Closed) {
            SlotState::Full(answer) => answer,
            _ => Err(QppError::Internal("serving worker dropped the reply")),
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
    inner: TenantServer,
}

impl PredictionServer {
    /// Starts a server over `registry` that serves up to `config.workers`
    /// (resolved against the process-wide `ml::par` setting) batches at
    /// once. No thread starts here: [`TenantServer::start`] says when.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> PredictionServer {
        let tenant = TenantSpec {
            name: TENANT.to_string(),
            registry,
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
        PredictionServer { inner }
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

    /// Blocks for the answer; on an idle server it is served on the
    /// calling thread ([`TenantServer::predict`]).
    pub fn predict(
        &self,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<Prediction, QppError> {
        self.inner.predict(TENANT, query, method, deadline)
    }
}

/// Serves one batch against one model snapshot: expired jobs are
/// refused, the rest go through the batched predictor path grouped by
/// method. Every job is answered and recorded in `stats` exactly once; the
/// answer of a job without a reply slot (a request served on the thread
/// that asked) is returned.
pub(crate) fn serve_batch(
    batch: Vec<Job>,
    stats: &ServeStats,
    predictor: &QppPredictor,
    cache: &PredictionCache,
) -> Option<Answer> {
    let now = Instant::now();
    let mut own = None;
    let mut groups: Vec<(Method, Vec<Job>)> = Vec::new();
    for job in batch {
        if job.deadline.is_some_and(|d| d <= now) {
            stats.record_deadline_miss();
            let refusal = Err(QppError::DeadlineExceeded {
                budget_secs: job.budget_secs,
            });
            deliver(job.reply, refusal, &mut own);
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
        for (job, prediction) in jobs.into_iter().zip(predictions) {
            stats.record_served(
                Endpoint::of(job.method),
                prediction.method_used,
                prediction.degraded,
                job.submitted.elapsed().as_secs_f64(),
            );
            deliver(job.reply, Ok(prediction), &mut own);
        }
    }
    own
}

fn deliver(reply: Option<ReplySender>, answer: Answer, own: &mut Option<Answer>) {
    match reply {
        Some(sender) => sender.send(answer),
        None => *own = Some(answer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_slot_answers_once_times_out_and_reports_a_dropped_sender() {
        let (pending, sender) = PendingPrediction::queued();
        sender.send(Err(QppError::DeadlineExceeded { budget_secs: 0.5 }));
        assert_eq!(
            pending.wait(),
            Err(QppError::DeadlineExceeded { budget_secs: 0.5 })
        );

        let (pending, sender) = PendingPrediction::queued();
        drop(sender);
        assert_eq!(
            pending.wait(),
            Err(QppError::Internal("serving worker dropped the reply"))
        );

        let (pending, sender) = PendingPrediction::queued();
        assert_eq!(
            pending.wait_timeout(Duration::from_millis(5)),
            Err(QppError::Internal("request aborted at shutdown"))
        );
        // The worker may still answer; no one is listening.
        sender.send(Err(QppError::Internal("late")));

        let (pending, sender) = PendingPrediction::queued();
        sender.send(Err(QppError::Internal("in time")));
        assert_eq!(
            pending.wait_timeout(Duration::from_secs(60)),
            Err(QppError::Internal("in time"))
        );

        let ready = PendingPrediction::ready(Err(QppError::Internal("now")));
        assert_eq!(ready.wait(), Err(QppError::Internal("now")));
    }
}
