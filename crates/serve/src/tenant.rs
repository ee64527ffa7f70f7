//! Multi-tenant bulkhead serving with a per-tenant drift → heal path.
//!
//! This module is the crate's one prediction worker pool:
//! [`crate::server::PredictionServer`] is a [`TenantServer`] with a single
//! tenant. One lane protects the *service* from overload, but not tenants
//! from each other: one noisy workload fills the shared queue and every
//! other caller's p99 pays for it — the per-workload heterogeneity that
//! production studies of learned QPP report as a dominant failure mode.
//! So the front-end is partitioned into bulkheads:
//!
//! - **Per-tenant shards.** Each tenant owns its own hot-swap
//!   [`ModelRegistry`], token-bucket admission budget, queue-depth quota,
//!   SLO counters, and drift monitor (and per-tier breaker state on its
//!   own predictor). A noisy tenant is shed at admission with
//!   [`QppError::TenantOverloaded`] while quiet tenants keep their
//!   deadline budgets.
//! - **Weighted-fair dequeue.** [`WeightedFairQueue`] gives every tenant
//!   its own FIFO lane and serves the backlogged lane with the smallest
//!   virtual time (vtime advances by `items / weight` on dequeue), so
//!   service capacity divides by weight no matter how asymmetric the
//!   arrival streams are. A global capacity bounds total memory on top of
//!   the per-tenant quotas.
//! - **A fixed tenant set.** The tenants are given at
//!   [`TenantServer::start`] and stay for the server's life: tenant `i`
//!   owns lane `i` and shard `i`, so a request's admission and a worker's
//!   batch find their shard by index, without a lock.
//! - **The caller serves when it can.** The model answers in about 2 µs,
//!   and handing a request to a worker and back costs more than that. So
//!   a blocking [`TenantServer::predict`] that finds no request of any
//!   tenant queued and fewer than `workers` batches in service is served
//!   on the calling thread as a batch of one
//!   (`WeightedFairQueue::try_claim`): the same admission, stall, WFQ
//!   charge, model snapshot, `serve_batch` and ledger as a worker's batch,
//!   counted in [`ServeStatsSnapshot::caller_batches`]. Anything else
//!   queues and waits its weighted-fair turn; [`TenantServer::submit`]
//!   always queues. Worker threads (`qpp-serve-{i}`) start on demand: none
//!   at [`TenantServer::start`], one more whenever a push finds no idle
//!   worker, up to the resolved `workers`, so a server only ever asked
//!   through `predict` by as many threads as it has `workers` runs none.
//! - **Closed loop.** Residuals fed back through [`TenantServer::observe`]
//!   drive the tenant's [`DriftMonitor`] — one signal, the relative error
//!   the paper judges a model by, against the error the serving model
//!   recorded at training (a promotion brings its own). A tenant needs a
//!   heal when that monitor has quarantined a learned tier or its serving
//!   predictor has an open learned-tier breaker (three invalid outputs in
//!   a row). Load never asks for one: shed and expired requests are not the
//!   model's fault, and neither is an answer degraded by corrupted inputs.
//!   [`TenantServer::heal`] then runs shadow retrain → promote on *that
//!   tenant's* registry only, with post-promotion validation and rollback
//!   when the promoted model regresses on fresh traffic.
//!   [`crate::healer::Healer`] drives this loop unattended.
//!
//! **Accounting order.** Every path records `submitted` strictly before
//! any `shed`/`served`/`deadline_missed` outcome for the same request, so
//! a concurrent snapshot can transiently see an outcome *missing* but
//! never an outcome *without its submission* — `submitted < shed + served
//! + deadline_missed` is unobservable. [`TenantServer::shutdown`] takes
//! the final reconciliation read while holding the queue lock (after the
//! workers have been joined), at which point the ledgers balance exactly:
//! `accepted == served + deadline_missed`.

use qpp::{
    DriftMonitor, Method, ModelHealth, ModelRegistry, Prediction, PredictionTier, PromotionReport,
    QppError, MODEL_TIERS,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionController, RateLimit, ShedReason, TokenBucket};
use crate::server::{serve_batch, Job, PendingPrediction};
use crate::stats::{ServeStats, ServeStatsSnapshot};

/// Why a tenant-aware push was refused.
#[derive(Debug)]
pub enum TenantPushError<T> {
    /// The tenant's own queue quota is exhausted; the item is handed back
    /// with the tenant's depth at rejection. Only this tenant is affected.
    TenantFull(T, usize),
    /// The queue's *global* capacity is exhausted; the item is handed back
    /// with the total depth at rejection.
    GlobalFull(T, usize),
    /// The queue was closed for shutdown; the item is handed back.
    Closed(T),
}

/// One tenant's lane plus its scheduling state. Weight and quota live
/// inside the queue lock so lanes can be added while producers and
/// consumers are active.
struct Lane<T> {
    items: VecDeque<T>,
    /// Virtual finish time: advanced by `items / weight` on every
    /// dequeue, so the backlogged lane with the smallest vtime is always
    /// the one furthest below its fair share.
    vtime: f64,
    weight: f64,
    quota: usize,
}

struct WfqInner<T> {
    lanes: Vec<Lane<T>>,
    /// Global virtual time: the vtime of the most recent dequeue. A lane
    /// going from empty to non-empty (or a lane just added) is lifted to
    /// at least this value, so idle tenants cannot bank credit while away.
    global_v: f64,
    total: usize,
    /// Batches popped (or claimed, [`WeightedFairQueue::try_claim`])
    /// whose consumer has not yet called [`WeightedFairQueue::finish`].
    in_service: usize,
    /// Consumers parked in [`WeightedFairQueue::pop_blocking_batch`] that
    /// no push has woken yet: a push wakes one of them, or reports that
    /// none was there.
    idle: usize,
    closed: bool,
}

/// A bounded multi-lane MPMC queue with weighted-fair dequeue.
///
/// Producers push into their tenant's lane and are rejected synchronously
/// when either the tenant's quota or the global capacity is exhausted —
/// the bulkhead property: lane `t` filling up never consumes another
/// lane's quota. Consumers pop *single-tenant batches*: the backlogged
/// lane with the smallest virtual time is drained up to the batch limit,
/// and its vtime is charged `items / weight`, which makes long-run service
/// proportional to weight for continuously backlogged lanes (the classic
/// virtual-time WFQ argument; the properties in `tenant_props.rs` pin the
/// `batch / min_weight` fairness bound exactly).
///
/// Lanes can be added ([`WeightedFairQueue::add_tenant`]) concurrently
/// with pushes and pops; a lane is never removed.
pub struct WeightedFairQueue<T> {
    inner: Mutex<WfqInner<T>>,
    not_empty: Condvar,
    /// Signalled by [`WeightedFairQueue::finish`].
    finished: Condvar,
    global_capacity: usize,
}

impl<T> WeightedFairQueue<T> {
    /// An empty queue with no lanes and a global capacity of at least 1.
    pub fn new(global_capacity: usize) -> WeightedFairQueue<T> {
        WeightedFairQueue {
            inner: Mutex::new(WfqInner {
                lanes: Vec::new(),
                global_v: 0.0,
                total: 0,
                in_service: 0,
                idle: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            finished: Condvar::new(),
            global_capacity: global_capacity.max(1),
        }
    }

    /// Adds a lane with the given fair-share weight and queue-depth quota
    /// and returns its tenant index. The lane joins at the current global
    /// virtual time, so it competes fairly from now on but starts with no
    /// banked credit. Safe to call while producers and consumers run.
    /// A weight that is not finite counts as 1, one below `1e-6` as
    /// `1e-6`, and a quota below 1 as 1.
    pub fn add_tenant(&self, weight: f64, quota: usize) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let vtime = inner.global_v;
        inner.lanes.push(Lane {
            items: VecDeque::new(),
            vtime,
            weight: if weight.is_finite() { weight.max(1e-6) } else { 1.0 },
            quota: quota.max(1),
        });
        inner.lanes.len() - 1
    }

    /// Total queued items across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().total
    }

    /// Queued items in one tenant's lane.
    #[cfg(test)]
    fn tenant_len(&self, tenant: usize) -> usize {
        self.inner.lock().unwrap().lanes[tenant].items.len()
    }

    /// Non-blocking push into `tenant`'s lane: enqueues and returns the
    /// lane depth after the push, or rejects (shutdown first, then the
    /// tenant quota — the bulkhead — then global capacity) without
    /// waiting.
    pub fn try_push(&self, tenant: usize, item: T) -> Result<usize, TenantPushError<T>> {
        self.push(tenant, item).map(|(depth, _)| depth)
    }

    /// [`WeightedFairQueue::try_push`], also telling whether a parked
    /// consumer was woken for the item (`false`: none was idle).
    pub(crate) fn push(&self, tenant: usize, item: T) -> Result<(usize, bool), TenantPushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TenantPushError::Closed(item));
        }
        let depth = inner.lanes[tenant].items.len();
        if depth >= inner.lanes[tenant].quota {
            return Err(TenantPushError::TenantFull(item, depth));
        }
        if inner.total >= self.global_capacity {
            let total = inner.total;
            return Err(TenantPushError::GlobalFull(item, total));
        }
        if depth == 0 {
            // A lane waking from idle joins at the current virtual time:
            // it competes fairly from now on but gets no credit for the
            // time it spent away.
            let global_v = inner.global_v;
            let lane = &mut inner.lanes[tenant];
            lane.vtime = lane.vtime.max(global_v);
        }
        inner.lanes[tenant].items.push_back(item);
        inner.total += 1;
        let depth = inner.lanes[tenant].items.len();
        let wake = inner.idle > 0;
        if wake {
            inner.idle -= 1;
        }
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok((depth, wake))
    }

    /// Blocking weighted-fair pop: waits until any lane has items (or the
    /// queue is closed *and* fully drained, in which case `None` signals
    /// shutdown), then drains up to `max_batch` items from the backlogged
    /// lane with the smallest virtual time. Returns the lane's tenant
    /// index with the (FIFO-ordered, single-tenant) batch.
    pub(crate) fn pop_blocking_batch(&self, max_batch: usize) -> Option<(usize, Vec<T>)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.total > 0 {
                return Some(Self::take_batch(&mut inner, max_batch));
            }
            if inner.closed {
                return None;
            }
            // The push that wakes this consumer takes it off the idle
            // count. A spurious wake-up counts it twice, so some later push
            // expects a consumer that is already awake; that one takes the
            // item when it next looks, and no item waits for a wake-up.
            inner.idle += 1;
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking weighted-fair pop; `None` when every lane is empty.
    /// Same selection and vtime accounting as
    /// `WeightedFairQueue::pop_blocking_batch` — the property tests drive
    /// this entry point in virtual time.
    pub fn try_pop_batch(&self, max_batch: usize) -> Option<(usize, Vec<T>)> {
        let mut inner = self.inner.lock().unwrap();
        if inner.total == 0 {
            return None;
        }
        Some(Self::take_batch(&mut inner, max_batch))
    }

    fn take_batch(inner: &mut WfqInner<T>, max_batch: usize) -> (usize, Vec<T>) {
        debug_assert!(inner.total > 0);
        // Backlogged lane with the smallest vtime; ties go to the lowest
        // index so the selection is deterministic.
        let tenant = (0..inner.lanes.len())
            .filter(|&t| !inner.lanes[t].items.is_empty())
            .min_by(|&a, &b| {
                inner.lanes[a]
                    .vtime
                    .partial_cmp(&inner.lanes[b].vtime)
                    .unwrap()
            })
            .expect("total > 0 implies a non-empty lane");
        inner.global_v = inner.global_v.max(inner.lanes[tenant].vtime);
        let k = inner.lanes[tenant].items.len().min(max_batch.max(1));
        let batch: Vec<T> = inner.lanes[tenant].items.drain(..k).collect();
        inner.total -= k;
        let weight = inner.lanes[tenant].weight;
        inner.lanes[tenant].vtime += k as f64 / weight;
        inner.in_service += 1;
        (tenant, batch)
    }

    /// Claims a batch of one item for `tenant` that the caller serves
    /// itself, without queueing it: succeeds only while the queue is open,
    /// no item of any lane is queued and fewer than `max_in_service`
    /// batches are in service. The lane is charged as a pop of one item
    /// from idle would charge it (it joins at the global virtual time,
    /// then advances by `1 / weight`), and the claim counts as in service
    /// until [`WeightedFairQueue::finish`].
    pub(crate) fn try_claim(&self, tenant: usize, max_in_service: usize) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.total > 0 || inner.in_service >= max_in_service {
            return false;
        }
        let global_v = inner.global_v;
        let lane = &mut inner.lanes[tenant];
        lane.vtime = lane.vtime.max(global_v);
        let vtime = lane.vtime;
        lane.vtime += 1.0 / lane.weight;
        inner.global_v = global_v.max(vtime);
        inner.in_service += 1;
        true
    }

    /// Reports that a popped or claimed batch has been handled. A
    /// consumer need only report when it counts on the caller path's
    /// limit or reads through `WeightedFairQueue::quiesced`.
    pub(crate) fn finish(&self) {
        self.inner.lock().unwrap().in_service -= 1;
        self.finished.notify_all();
    }

    /// Waits until no batch is in service, then runs `f` while holding
    /// the queue lock, so the closure cannot interleave with any push,
    /// pop, claim or add. Used for the final shutdown reconciliation read
    /// ([`TenantServer::shutdown`]), after the close has stopped new
    /// claims.
    pub(crate) fn quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        while inner.in_service > 0 {
            inner = self.finished.wait(inner).unwrap();
        }
        f()
    }

    /// Closes the queue: subsequent pushes and claims are rejected,
    /// blocked consumers drain what is left and then observe shutdown.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

/// One tenant's serving budget: the bulkhead parameters.
#[derive(Debug, Clone)]
pub struct TenantBudget {
    /// Optional token-bucket rate limit for this tenant alone.
    pub rate_limit: Option<RateLimit>,
    /// The tenant's queue-depth quota (its lane's capacity).
    pub queue_quota: usize,
    /// Weighted-fair share of service capacity (relative to the other
    /// tenants' weights).
    pub weight: f64,
    /// Deadline applied to this tenant's requests submitted without one.
    /// `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
}

impl Default for TenantBudget {
    fn default() -> Self {
        TenantBudget {
            rate_limit: None,
            queue_quota: 64,
            weight: 1.0,
            default_deadline: None,
        }
    }
}

/// One tenant to serve: a name, its model registry shard, and its budget.
pub struct TenantSpec {
    /// Unique tenant name (the key clients submit under).
    pub name: String,
    /// The tenant's own hot-swap model registry.
    pub registry: Arc<ModelRegistry>,
    /// The tenant's admission budget and fair-share weight.
    pub budget: TenantBudget,
}

/// Multi-tenant serving configuration (the shared, non-bulkhead knobs).
#[derive(Debug, Clone)]
pub struct TenantServeConfig {
    /// Most batches in service at once: the cap on worker threads (each
    /// started when a push finds no idle one) and on callers served in
    /// place. `None` defers to the process-wide `ml::par` setting, like
    /// [`crate::ServeConfig`].
    pub workers: Option<usize>,
    /// Global queue capacity across all tenant lanes (enforced on top of
    /// per-tenant quotas).
    pub global_capacity: usize,
    /// Optional global token-bucket rate limit over all tenants combined.
    pub global_rate_limit: Option<RateLimit>,
    /// Most requests a worker coalesces into one (single-tenant) batch.
    pub max_batch: usize,
    /// Fault injection: every batch, popped by a worker or served by a
    /// caller, sleeps this long before it is served, like
    /// [`crate::ServeConfig::worker_stall`]. Zero, the default, injects
    /// nothing.
    pub worker_stall: Duration,
}

impl Default for TenantServeConfig {
    fn default() -> Self {
        TenantServeConfig {
            workers: None,
            global_capacity: 1024,
            global_rate_limit: None,
            max_batch: 32,
            worker_stall: Duration::ZERO,
        }
    }
}

pub(crate) struct TenantShard {
    pub(crate) name: String,
    pub(crate) registry: Arc<ModelRegistry>,
    budget: TenantBudget,
    /// The tenant's own rate budget (its lane quota bounds its depth).
    rate: Option<Mutex<TokenBucket>>,
    pub(crate) stats: ServeStats,
    monitor: Mutex<DriftMonitor>,
}

impl TenantShard {
    /// The one "needs a heal" question: the tenant's monitor has
    /// quarantined a learned tier, or its serving predictor has an open
    /// learned-tier breaker. An open breaker stays open until a reset or a
    /// promotion, so this cannot flicker back to false on its own.
    pub(crate) fn needs_heal(&self) -> bool {
        if self.monitor.lock().unwrap().any_quarantined() {
            return true;
        }
        let predictor = self.registry.current();
        MODEL_TIERS
            .iter()
            .any(|&tier| predictor.breaker_tripped(tier))
    }

    /// One healing round ([`TenantServer::heal`]); its action lands in
    /// the tenant's stats.
    pub(crate) fn heal(&self, recent: &[&qpp::ExecutedQuery]) -> Result<HealReport, QppError> {
        let result = self.heal_round(recent);
        if let Ok(report) = &result {
            self.stats.record_heal(&report.action);
        }
        result
    }

    fn heal_round(&self, recent: &[&qpp::ExecutedQuery]) -> Result<HealReport, QppError> {
        if !self.needs_heal() {
            return Ok(HealReport {
                action: HealAction::NotNeeded,
                report: None,
                version: self.registry.version(),
            });
        }
        let report = self.registry.shadow_retrain(recent)?;
        if !report.promoted {
            return Ok(HealReport {
                action: HealAction::KeptIncumbent,
                version: report.version,
                report: Some(report),
            });
        }
        // Post-promotion validation on fresh traffic: the served model is
        // the snapshot round-trip of the candidate, so score *it*, not
        // the in-memory candidate the comparison used.
        let promoted_error = self.registry.score_current(recent);
        if !promoted_error.is_finite()
            || promoted_error > report.incumbent_error * (1.0 + ROLLBACK_TOLERANCE)
        {
            let version = self.registry.rollback()?;
            return Ok(HealReport {
                action: HealAction::RolledBack,
                version,
                report: Some(report),
            });
        }
        let mut monitor = self.monitor.lock().unwrap();
        monitor.reset_all();
        self.registry.current().reset_breakers();
        Ok(HealReport {
            action: HealAction::Promoted,
            version: report.version,
            report: Some(report),
        })
    }
}

/// How far past the incumbent's held-out error (relative) a just-promoted
/// model may score on the recent window before [`TenantServer::heal`]
/// rolls the promotion back.
const ROLLBACK_TOLERANCE: f64 = 0.25;

/// What one [`TenantServer::heal`] round did to a tenant's registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealAction {
    /// No learned tier was quarantined or had an open breaker; nothing to
    /// heal.
    NotNeeded,
    /// A retrained candidate was promoted and validated; the tenant's
    /// monitor and breakers were reset.
    Promoted,
    /// The candidate did not beat the incumbent by the configured margin;
    /// the incumbent keeps serving and the quarantine stands.
    KeptIncumbent,
    /// The candidate was promoted but regressed on the validation window,
    /// so the promotion was rolled back. The quarantine stands.
    RolledBack,
}

/// Outcome of one healing round for one tenant.
#[derive(Debug, Clone)]
pub struct HealReport {
    /// What happened.
    pub action: HealAction,
    /// The shadow-retrain comparison, when one ran.
    pub report: Option<PromotionReport>,
    /// Serving registry version after the round.
    pub version: u64,
}

/// Per-tenant final ledgers from [`TenantServer::shutdown`], read under
/// the queue lock after every worker was joined.
pub struct ShutdownReport {
    /// `(tenant name, final stats)` for every tenant, in tenant-index
    /// order.
    pub tenants: Vec<(String, ServeStatsSnapshot)>,
}

impl ShutdownReport {
    /// True when every tenant's ledger balances exactly:
    /// `accepted == served + deadline_missed` (nothing admitted was lost,
    /// nothing was double-counted).
    pub fn reconciles(&self) -> bool {
        self.tenants
            .iter()
            .all(|(_, s)| s.accepted() == s.served + s.deadline_missed)
    }
}

/// A tenant-isolated prediction service: per-tenant registries, budgets,
/// SLO accounting, and drift monitors behind one weighted-fair worker
/// pool. The tenant set is given at start and never changes. Dropping
/// the server closes the queue, drains what was admitted, and joins all
/// workers; call [`TenantServer::shutdown`] first to get the
/// reconciliation report.
pub struct TenantServer {
    /// Shard `i` is tenant `i`'s, the owner of lane `i`; shared with the
    /// workers, which find a popped batch's shard by its lane index.
    shards: Arc<[TenantShard]>,
    by_name: HashMap<String, usize>,
    queue: Arc<WeightedFairQueue<Job>>,
    global_admission: Mutex<AdmissionController>,
    started: Instant,
    /// The resolved `workers`: most batches in service, most threads.
    worker_cap: usize,
    worker_stall: Duration,
    max_batch: usize,
    /// The workers started so far; a push that finds none idle adds one.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl TenantServer {
    /// Starts a server over the given tenant shards. Tenant names must be
    /// unique (duplicates panic).
    ///
    /// No thread starts here: a worker starts when a push finds none idle
    /// (up to the resolved `workers`), and a blocking
    /// [`TenantServer::predict`] on an idle server needs none.
    pub fn start(tenants: Vec<TenantSpec>, config: TenantServeConfig) -> TenantServer {
        let mut by_name = HashMap::with_capacity(tenants.len());
        for (idx, spec) in tenants.iter().enumerate() {
            if by_name.insert(spec.name.clone(), idx).is_some() {
                panic!("duplicate tenant name {:?} in the tenant set", spec.name);
            }
        }
        // Each tenant gets the next lane (all join at virtual time zero)
        // and the shard slot of the same index.
        let queue = WeightedFairQueue::new(config.global_capacity);
        let shards = tenants
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                let lane = queue.add_tenant(spec.budget.weight, spec.budget.queue_quota);
                debug_assert_eq!(lane, idx);
                TenantShard {
                    name: spec.name,
                    registry: spec.registry,
                    rate: spec
                        .budget
                        .rate_limit
                        .map(|limit| Mutex::new(TokenBucket::new(limit))),
                    budget: spec.budget,
                    stats: ServeStats::default(),
                    monitor: Mutex::default(),
                }
            })
            .collect();
        TenantServer {
            shards,
            by_name,
            queue: Arc::new(queue),
            global_admission: Mutex::new(AdmissionController::new(
                config.global_rate_limit,
                config.global_capacity,
            )),
            started: Instant::now(),
            worker_cap: ml::par::resolve_workers(config.workers),
            worker_stall: config.worker_stall,
            max_batch: config.max_batch.max(1),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Starts one more worker unless `workers` are running or the queue
    /// has closed. Checked under the handle lock, which `shutdown` takes
    /// after closing the queue, so every worker ever started is joined.
    fn start_worker(&self) {
        let mut workers = self.workers.lock().unwrap();
        if workers.len() >= self.worker_cap || self.queue.is_closed() {
            return;
        }
        let queue = Arc::clone(&self.queue);
        let shards = Arc::clone(&self.shards);
        let (worker_stall, max_batch) = (self.worker_stall, self.max_batch);
        let handle = std::thread::Builder::new()
            .name(format!("qpp-serve-{}", workers.len()))
            .spawn(move || tenant_worker_loop(&queue, &shards, worker_stall, max_batch))
            .expect("spawning a serving worker");
        workers.push(handle);
    }

    /// One tenant's serving statistics snapshot.
    pub fn stats(&self, tenant: &str) -> Result<ServeStatsSnapshot, QppError> {
        Ok(self.shard(tenant)?.stats.snapshot())
    }

    /// Submits a prediction request on behalf of `tenant` to the queue; a
    /// worker serves it, never the calling thread. Admission runs
    /// synchronously on the calling thread, cheapest refusal first:
    ///
    /// 1. the global capacity ([`QppError::Overloaded`] — the service as a
    ///    whole is saturated; a request the full queue refuses spends no
    ///    rate token of either budget),
    /// 2. the tenant's own rate budget
    ///    ([`QppError::TenantOverloaded`] — only this tenant is shed, and
    ///    the shared budget is not charged for it: a flooding tenant
    ///    cannot drain the global bucket for quiet ones),
    /// 3. the global rate budget (`Overloaded`; the tenant token step 2
    ///    spent is lost, which costs only that tenant),
    /// 4. the tenant's queue quota (`TenantOverloaded`) and, for a request
    ///    that raced past step 1, the global capacity again
    ///    (`Overloaded`), enforced atomically inside the queue.
    pub fn submit(
        &self,
        tenant: &str,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<PendingPrediction, QppError> {
        let (idx, shard, job) = self.admit(tenant, query, method, deadline)?;
        self.enqueue(idx, shard, job)
    }

    /// Blocks for the answer to a request on behalf of `tenant`, after the
    /// same admission as [`TenantServer::submit`]. When no request of any
    /// tenant is queued and fewer batches are in service than `workers`,
    /// the request is served on the calling thread as a batch of one: the
    /// same stall, ledger, WFQ charge and model snapshot a worker's batch
    /// gets, without a hand-off to a worker and back. Otherwise it is
    /// queued and waits its weighted-fair turn, as a submit does.
    pub fn predict(
        &self,
        tenant: &str,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<Prediction, QppError> {
        self.serve_or_submit(tenant, query, method, deadline)?
            .wait()
    }

    /// [`TenantServer::predict`] up to the wait: a request served on the
    /// calling thread comes back answered, a queued one pending (so the
    /// front door can bound its wait by the drain budget).
    pub(crate) fn serve_or_submit(
        &self,
        tenant: &str,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<PendingPrediction, QppError> {
        let (idx, shard, job) = self.admit(tenant, query, method, deadline)?;
        if !self.queue.try_claim(idx, self.worker_cap) {
            return self.enqueue(idx, shard, job);
        }
        // Counted in service until dropped, even if serving panics, so
        // `shutdown` waits for this batch.
        let _finish = Finish(&self.queue);
        let answer = self
            .serve_on_caller(shard, vec![job])
            .expect("a job without a reply slot is answered in place");
        Ok(PendingPrediction::ready(answer))
    }

    /// Counts the request `submitted`, runs admission (see
    /// [`TenantServer::submit`], steps 1–3) and builds its job, which
    /// has no reply slot yet.
    fn admit(
        &self,
        tenant: &str,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<(usize, &TenantShard, Job), QppError> {
        let (idx, shard) = self.lookup(tenant)?;
        shard.stats.record_submitted();
        let now = Instant::now();
        let now_secs = self.started.elapsed().as_secs_f64();
        let total_depth = self.queue.len();
        let overloaded = || QppError::Overloaded {
            queue_depth: total_depth,
        };
        let tenant_overloaded = || QppError::TenantOverloaded {
            tenant: shard.name.clone(),
        };
        let verdict = {
            let mut global = self.global_admission.lock().unwrap();
            global
                .admit_depth(total_depth)
                .map_err(|reason| (reason, overloaded()))
                .and_then(|()| match &shard.rate {
                    Some(bucket) if !bucket.lock().unwrap().try_acquire(now_secs) => {
                        Err((ShedReason::RateLimited, tenant_overloaded()))
                    }
                    _ => Ok(()),
                })
                .and_then(|()| {
                    global
                        .admit_rate(now_secs)
                        .map_err(|reason| (reason, overloaded()))
                })
        };
        if let Err((reason, refusal)) = verdict {
            shard.stats.record_shed(reason);
            return Err(refusal);
        }
        let budget = deadline.or(shard.budget.default_deadline);
        let job = Job {
            query,
            method,
            submitted: now,
            deadline: budget.map(|d| now + d),
            budget_secs: budget.map_or(f64::INFINITY, |d| d.as_secs_f64()),
            reply: None,
        };
        Ok((idx, shard, job))
    }

    /// Pushes an admitted job into its tenant's lane (step 4 of
    /// [`TenantServer::submit`]) and starts a worker when none was idle.
    fn enqueue(
        &self,
        idx: usize,
        shard: &TenantShard,
        mut job: Job,
    ) -> Result<PendingPrediction, QppError> {
        let (pending, reply) = PendingPrediction::queued();
        job.reply = Some(reply);
        match self.queue.push(idx, job) {
            Ok((_, woke)) => {
                if !woke {
                    self.start_worker();
                }
                Ok(pending)
            }
            Err(TenantPushError::TenantFull(_, _)) => {
                shard.stats.record_shed(ShedReason::QueueFull);
                Err(QppError::TenantOverloaded {
                    tenant: shard.name.clone(),
                })
            }
            Err(TenantPushError::GlobalFull(_, depth)) => {
                shard.stats.record_shed(ShedReason::QueueFull);
                Err(QppError::Overloaded { queue_depth: depth })
            }
            Err(TenantPushError::Closed(_)) => {
                // Without this recording, the submission above would leak
                // as forever-pending and shutdown reconciliation could
                // never balance (`accepted` would exceed every outcome).
                shard.stats.record_shed(ShedReason::Shutdown);
                Err(QppError::Internal("tenant server is shutting down"))
            }
        }
    }

    /// Serves one batch of `shard`'s jobs on the calling thread, as a
    /// worker serves a popped one (the injected stall, one model snapshot),
    /// and records it as a caller batch. Returns the answer of a job that
    /// has no reply slot.
    fn serve_on_caller(
        &self,
        shard: &TenantShard,
        jobs: Vec<Job>,
    ) -> Option<Result<Prediction, QppError>> {
        shard.stats.record_caller_batch(jobs.len());
        inject_stall(&shard.stats, self.worker_stall);
        let predictor = shard.registry.current();
        let cache = Arc::clone(shard.registry.pred_cache());
        serve_batch(jobs, &shard.stats, &predictor, &cache)
    }

    /// Folds one `(prediction, observed latency)` residual into `tenant`'s
    /// drift monitor, judged against the error the serving model recorded
    /// for the tier at training, and trips the tenant's circuit breaker on
    /// quarantine — the accuracy half of the feedback loop, scoped to one
    /// bulkhead.
    pub fn observe(
        &self,
        tenant: &str,
        tier: PredictionTier,
        predicted: f64,
        observed: f64,
    ) -> Result<ModelHealth, QppError> {
        let shard = self.shard(tenant)?;
        let predictor = shard.registry.current();
        let health = shard
            .monitor
            .lock()
            .unwrap()
            .observe(&predictor, tier, predicted, observed);
        Ok(health)
    }

    /// Current drift-monitor health of one tenant's tier.
    pub fn health(&self, tenant: &str, tier: PredictionTier) -> Result<ModelHealth, QppError> {
        Ok(self.shard(tenant)?.monitor.lock().unwrap().health(tier))
    }

    /// True when `tenant` needs a heal: its drift monitor has quarantined
    /// a learned tier, or its serving predictor has an open learned-tier
    /// breaker — the cue to call [`TenantServer::heal`].
    pub fn any_quarantined(&self, tenant: &str) -> Result<bool, QppError> {
        Ok(self.shard(tenant)?.needs_heal())
    }

    /// One healing round for one tenant: when the tenant needs a heal (see
    /// [`TenantServer::any_quarantined`]), shadow-retrains on `recent`,
    /// promotes the candidate if it wins the held-out comparison, then
    /// *validates the promotion* by scoring the just-promoted model (as
    /// reloaded from its snapshot) on the same recent window — if it
    /// regressed past the incumbent's held-out error by more than a
    /// quarter (relative), the promotion is rolled back. On a validated
    /// promotion the tenant's monitor and circuit breakers are reset so the
    /// new model serves at full accuracy. Other tenants' registries are never touched. Every
    /// round's action lands in the tenant's `ServeStats`.
    pub fn heal(
        &self,
        tenant: &str,
        recent: &[&qpp::ExecutedQuery],
    ) -> Result<HealReport, QppError> {
        self.shard(tenant)?.heal(recent)
    }

    fn lookup(&self, tenant: &str) -> Result<(usize, &TenantShard), QppError> {
        let &idx = self
            .by_name
            .get(tenant)
            .ok_or(QppError::Internal("unknown tenant"))?;
        Ok((idx, &self.shards[idx]))
    }

    fn shard(&self, tenant: &str) -> Result<&TenantShard, QppError> {
        Ok(self.lookup(tenant)?.1)
    }

    /// The tenant shards, in tenant-index order.
    pub(crate) fn shards(&self) -> &[TenantShard] {
        &self.shards
    }

    /// Graceful shutdown, idempotent: closes the queue (new submissions
    /// are refused and recorded as shutdown-shed, nothing more is served
    /// in place), lets the workers drain every admitted request, joins
    /// them, waits for callers still serving in place, and only then takes
    /// the final per-tenant reconciliation read — **under the queue
    /// lock**, so the read cannot interleave with a straggling push or
    /// pop. After this returns, every tenant's ledger balances:
    /// `accepted == served + deadline_missed`.
    pub fn shutdown(&self) -> ShutdownReport {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            if let Err(p) = handle.join() {
                std::panic::resume_unwind(p);
            }
        }
        // A push admitted just before the close may have found no worker
        // to start (the close stops starts): the closing thread serves
        // what is left as the last worker, and returns once it is drained.
        tenant_worker_loop(&self.queue, &self.shards, self.worker_stall, self.max_batch);
        let tenants = self.queue.quiesced(|| {
            self.shards
                .iter()
                .map(|s| (s.name.clone(), s.stats.snapshot()))
                .collect()
        });
        ShutdownReport { tenants }
    }
}

impl Drop for TenantServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn tenant_worker_loop(
    queue: &WeightedFairQueue<Job>,
    shards: &[TenantShard],
    worker_stall: Duration,
    max_batch: usize,
) {
    while let Some((tenant, batch)) = queue.pop_blocking_batch(max_batch) {
        // Reports the batch handled even if serving it panics, so
        // `shutdown`'s final read cannot hang.
        let _finish = Finish(queue);
        let shard = &shards[tenant];
        shard.stats.record_batch(batch.len());
        inject_stall(&shard.stats, worker_stall);

        // Snapshot *this tenant's* serving model once per batch: batches
        // are single-tenant, so one tenant's promote/rollback can never
        // tear — or even touch — another tenant's predictions.
        let predictor = shard.registry.current();
        let cache = Arc::clone(shard.registry.pred_cache());

        serve_batch(batch, &shard.stats, &predictor, &cache);
    }
}

/// Sleeps the configured fault-injection stall before a batch is served.
fn inject_stall(stats: &ServeStats, stall: Duration) {
    if !stall.is_zero() {
        stats.record_stall();
        std::thread::sleep(stall);
    }
}

/// Calls [`WeightedFairQueue::finish`] for one popped or claimed batch
/// when dropped.
struct Finish<'a>(&'a WeightedFairQueue<Job>);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quotas are bulkheads: pushing one lane to (and past) its quota
    /// rejects only that lane with `TenantFull`, and never consumes
    /// another lane's quota.
    #[test]
    fn tenant_quota_never_bleeds_into_another_lane() {
        rng::cases(64, |rng| {
            let quota_a = rng.gen_range(1usize..8);
            let extra = rng.gen_range(1usize..16);
            let quota_b = rng.gen_range(1usize..8);
            let q = WeightedFairQueue::new(1024);
            let a = q.add_tenant(1.0, quota_a);
            let b = q.add_tenant(1.0, quota_b);
            for i in 0..quota_a {
                assert!(q.try_push(a, i).is_ok());
            }
            for i in 0..extra {
                match q.try_push(a, quota_a + i) {
                    Err(TenantPushError::TenantFull(_, depth)) => assert_eq!(depth, quota_a),
                    other => panic!("expected TenantFull, got {:?}", other.is_ok()),
                }
            }
            // The noisy lane being saturated must not cost lane b anything.
            for i in 0..quota_b {
                assert!(
                    q.try_push(b, i).is_ok(),
                    "quiet lane rejected at depth {}",
                    i
                );
            }
            assert_eq!(q.tenant_len(a), quota_a);
            assert_eq!(q.tenant_len(b), quota_b);
        });
    }

    /// Caller-given lane parameters are clamped (`TenantBudget::weight` is
    /// caller input): a capacity or quota of 0 holds one item, and a lane
    /// whose weight is NaN, infinite, zero or negative takes pushes, is
    /// served, and does not shut a backlogged weight-1 lane out. Unclamped,
    /// a NaN vtime panics `take_batch`'s comparison in a serving worker and
    /// an infinite or negative weight never advances its lane's vtime.
    #[test]
    fn lane_parameters_are_clamped_to_a_serving_lane() {
        let q = WeightedFairQueue::new(0);
        let (a, b) = (q.add_tenant(1.0, 0), q.add_tenant(1.0, 0));
        q.try_push(a, 1).unwrap();
        assert!(matches!(
            q.try_push(a, 2),
            Err(TenantPushError::TenantFull(2, 1))
        ));
        assert!(matches!(
            q.try_push(b, 3),
            Err(TenantPushError::GlobalFull(3, 1))
        ));
        assert_eq!(q.try_pop_batch(8), Some((a, vec![1])));
        q.try_push(b, 3).unwrap();
        assert_eq!(q.try_pop_batch(8), Some((b, vec![3])));

        for weight in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let q = WeightedFairQueue::new(64);
            let odd = q.add_tenant(weight, 8);
            let plain = q.add_tenant(1.0, 8);
            for round in 0..3 {
                for i in 0..4 {
                    q.try_push(odd, i).unwrap();
                    q.try_push(plain, i).unwrap();
                }
                let mut order = Vec::new();
                while let Some((t, batch)) = q.try_pop_batch(1) {
                    assert_eq!(batch.len(), 1);
                    order.push(t);
                }
                assert_eq!(order.len(), 8, "weight {weight}: {order:?}");
                assert!(
                    order[..2].contains(&plain),
                    "weight {weight}, round {round}: the weight-1 lane waited: {order:?}"
                );
            }
        }
    }

    /// Closing the queue drains what was admitted, then reports shutdown.
    #[test]
    fn close_drains_then_signals_shutdown() {
        let q = WeightedFairQueue::new(16);
        let a = q.add_tenant(1.0, 16);
        q.try_push(a, 1).unwrap();
        q.try_push(a, 2).unwrap();
        q.close();
        assert!(matches!(q.try_push(a, 3), Err(TenantPushError::Closed(3))));
        assert_eq!(q.pop_blocking_batch(8), Some((a, vec![1, 2])));
        assert_eq!(q.pop_blocking_batch(8), None);
    }

    /// A tenant set that names one tenant twice is refused at start, by a
    /// panic that names the duplicate.
    #[test]
    #[should_panic(expected = "duplicate tenant name \"a\"")]
    fn start_refuses_a_duplicate_tenant_name() {
        let catalog = engine::Catalog::new(0.1, 1);
        let workload = tpch::Workload::generate(&[1, 3, 6], 8, 0.1, 7);
        let sim = engine::Simulator::with_config(engine::SimConfig {
            additive_noise_secs: 0.05,
            ..engine::SimConfig::default()
        });
        let ds = qpp::QueryDataset::execute(&catalog, &workload, &sim, 11, f64::INFINITY);
        let refs: Vec<&qpp::ExecutedQuery> = ds.queries.iter().collect();
        let predictor = qpp::QppPredictor::train(&refs, qpp::QppConfig::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("qpp-tenant-dup-{}", std::process::id()));
        let registry =
            Arc::new(ModelRegistry::create(&dir, predictor, qpp::QppConfig::default()).unwrap());
        // The check runs before the registry is read again.
        std::fs::remove_dir_all(&dir).unwrap();
        let spec = |name: &str| TenantSpec {
            name: name.to_string(),
            registry: Arc::clone(&registry),
            budget: TenantBudget::default(),
        };
        TenantServer::start(
            vec![spec("a"), spec("b"), spec("a")],
            TenantServeConfig::default(),
        );
    }
}
