//! Multi-tenant bulkhead serving with a closed-loop SLO → drift healing
//! path.
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
//!   SLO counters, and drift monitor (and with it per-tier breaker state
//!   on its own predictor). A noisy tenant is shed at admission with
//!   [`QppError::TenantOverloaded`] while quiet tenants keep their
//!   deadline budgets.
//! - **Weighted-fair dequeue.** [`WeightedFairQueue`] gives every tenant
//!   its own FIFO lane and serves the backlogged lane with the smallest
//!   virtual time (vtime advances by `items / weight` on dequeue), so
//!   service capacity divides by weight no matter how asymmetric the
//!   arrival streams are. A global capacity bounds total memory on top of
//!   the per-tenant quotas.
//! - **Dynamic tenancy.** Tenants can be added and removed while the
//!   server is under load: [`TenantServer::add_tenant`] opens a new lane
//!   that joins at the current virtual time (no banked credit), and
//!   [`TenantServer::remove_tenant`] closes the lane, serves what was
//!   already queued in it, and hands back the tenant's registry and a
//!   final stats snapshot. Shard slots are tombstoned, never deleted, so
//!   a worker holding a popped batch can always resolve its shard.
//! - **Closed loop.** Each tenant's SLO counters fold into its
//!   [`DriftMonitor`] as a second escalation signal
//!   ([`TenantServer::slo_tick`]): sustained degraded/missed/shed traffic
//!   drives the same Suspect → Quarantined ladder as residual drift, and
//!   [`TenantServer::heal`] runs quarantine → shadow retrain → promote on
//!   *that tenant's* registry only, with post-promotion validation and
//!   rollback when the promoted model regresses on fresh traffic.
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
    QppError, SloWindow,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
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
    /// The tenant's lane was removed ([`WeightedFairQueue::remove_tenant`]);
    /// the item is handed back. Other lanes keep serving.
    Removed(T),
    /// The queue was closed for shutdown; the item is handed back.
    Closed(T),
}

/// One tenant's lane plus its scheduling state. Weight and quota live
/// inside the queue lock so lanes can be added and removed while
/// producers and consumers are active.
struct Lane<T> {
    items: VecDeque<T>,
    /// Virtual finish time: advanced by `items / weight` on every
    /// dequeue, so the backlogged lane with the smallest vtime is always
    /// the one furthest below its fair share.
    vtime: f64,
    weight: f64,
    quota: usize,
    /// False after [`WeightedFairQueue::remove_tenant`]: pushes are
    /// refused with [`TenantPushError::Removed`] and the (already empty)
    /// lane is never selected again.
    open: bool,
}

struct WfqInner<T> {
    lanes: Vec<Lane<T>>,
    /// Global virtual time: the vtime of the most recent dequeue. A lane
    /// going from empty to non-empty (or a lane just added) is lifted to
    /// at least this value, so idle tenants cannot bank credit while away.
    global_v: f64,
    total: usize,
    closed: bool,
}

/// A bounded multi-lane MPMC queue with weighted-fair dequeue and a
/// dynamic lane set.
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
/// Lanes can be added ([`WeightedFairQueue::add_tenant`]) and removed
/// ([`WeightedFairQueue::remove_tenant`]) concurrently with pushes and
/// pops; lane indices are never reused, a removed lane is tombstoned.
pub struct WeightedFairQueue<T> {
    inner: Mutex<WfqInner<T>>,
    not_empty: Condvar,
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
                closed: false,
            }),
            not_empty: Condvar::new(),
            global_capacity: global_capacity.max(1),
        }
    }

    /// Adds a lane with the given fair-share weight and queue-depth quota
    /// and returns its tenant index. The lane joins at the current global
    /// virtual time, so it competes fairly from now on but starts with no
    /// banked credit. Safe to call while producers and consumers run.
    pub fn add_tenant(&self, weight: f64, quota: usize) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let vtime = inner.global_v;
        inner.lanes.push(Lane {
            items: VecDeque::new(),
            vtime,
            weight: if weight.is_finite() { weight.max(1e-6) } else { 1.0 },
            quota: quota.max(1),
            open: true,
        });
        inner.lanes.len() - 1
    }

    /// Tombstones a lane: subsequent pushes are refused with
    /// [`TenantPushError::Removed`] and everything queued is handed back
    /// to the caller in FIFO order (the caller decides whether to serve
    /// or refuse the drained items). The index is never reused; other
    /// lanes are untouched.
    pub fn remove_tenant(&self, tenant: usize) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap();
        let lane = &mut inner.lanes[tenant];
        lane.open = false;
        let drained: Vec<T> = lane.items.drain(..).collect();
        inner.total -= drained.len();
        drained
    }

    /// Number of lanes ever added, including tombstoned ones.
    pub fn tenants(&self) -> usize {
        self.inner.lock().unwrap().lanes.len()
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().total
    }

    /// True when no items are queued in any lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued items in one tenant's lane.
    pub fn tenant_len(&self, tenant: usize) -> usize {
        self.inner.lock().unwrap().lanes[tenant].items.len()
    }

    /// Non-blocking push into `tenant`'s lane: enqueues and returns the
    /// lane depth after the push, or rejects (shutdown and tombstone
    /// first, then the tenant quota — the bulkhead — then global
    /// capacity) without waiting.
    pub fn try_push(&self, tenant: usize, item: T) -> Result<usize, TenantPushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TenantPushError::Closed(item));
        }
        if !inner.lanes[tenant].open {
            return Err(TenantPushError::Removed(item));
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
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocking weighted-fair pop: waits until any lane has items (or the
    /// queue is closed *and* fully drained, in which case `None` signals
    /// shutdown), then drains up to `max_batch` items from the backlogged
    /// lane with the smallest virtual time. Returns the lane's tenant
    /// index with the (FIFO-ordered, single-tenant) batch.
    pub fn pop_blocking_batch(&self, max_batch: usize) -> Option<(usize, Vec<T>)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.total > 0 {
                return Some(Self::take_batch(&mut inner, max_batch));
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking weighted-fair pop; `None` when every lane is empty.
    /// Same selection and vtime accounting as
    /// [`WeightedFairQueue::pop_blocking_batch`] — the property tests drive
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
        // index so the selection is deterministic. Tombstoned lanes are
        // drained at removal, so the emptiness filter skips them too.
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
        (tenant, batch)
    }

    /// Runs `f` while holding the queue lock, so the closure cannot
    /// interleave with any push, pop, add, or remove. Used for the final
    /// shutdown reconciliation read ([`TenantServer::shutdown`]).
    pub fn quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.inner.lock().unwrap();
        f()
    }

    /// Closes the queue: subsequent pushes are rejected, blocked consumers
    /// drain what is left and then observe shutdown.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
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
    /// Worker threads. `None` defers to the process-wide `ml::par`
    /// setting, like [`crate::ServeConfig`].
    pub workers: Option<usize>,
    /// Global queue capacity across all tenant lanes (enforced on top of
    /// per-tenant quotas).
    pub global_capacity: usize,
    /// Optional global token-bucket rate limit over all tenants combined.
    pub global_rate_limit: Option<RateLimit>,
    /// Most requests a worker coalesces into one (single-tenant) batch.
    pub max_batch: usize,
    /// Fault injection: every worker sleeps this long before serving each
    /// batch it pops, like [`crate::ServeConfig::worker_stall`]. Zero, the
    /// default, injects nothing.
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
    pub(crate) stats: Arc<ServeStats>,
    monitor: Mutex<DriftMonitor>,
    /// The ledger the previous [`TenantServer::slo_tick`] folded into the
    /// drift monitor, so consecutive ticks diff disjoint windows.
    slo_seen: Mutex<ServeStatsSnapshot>,
}

/// How far past the incumbent's held-out error (relative) a just-promoted
/// model may score on the recent window before [`TenantServer::heal`]
/// rolls the promotion back.
const ROLLBACK_TOLERANCE: f64 = 0.25;

/// What one [`TenantServer::heal`] round did to a tenant's registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealAction {
    /// No learned tier was quarantined; nothing to heal.
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

/// What [`TenantServer::remove_tenant`] hands back: the tenant's registry
/// (so models survive the eviction) and its final serving ledger.
pub struct RemovedTenant {
    /// The removed tenant's name.
    pub name: String,
    /// The tenant's model registry, snapshotted at removal — the caller
    /// can re-attach it later via [`TenantServer::add_tenant`].
    pub registry: Arc<ModelRegistry>,
    /// Final stats snapshot, taken after the drained backlog was served.
    pub stats: ServeStatsSnapshot,
    /// Requests that were queued in the tenant's lane at removal and were
    /// served (or deadline-refused) during the drain.
    pub drained: usize,
}

/// Per-tenant final ledgers from [`TenantServer::shutdown`], read under
/// the queue lock after every worker was joined.
pub struct ShutdownReport {
    /// `(tenant name, final stats)` for every shard ever attached,
    /// including removed ones, in tenant-index order.
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
/// pool. The tenant set is dynamic ([`TenantServer::add_tenant`] /
/// [`TenantServer::remove_tenant`]). Dropping the server closes the
/// queue, drains what was admitted, and joins all workers; call
/// [`TenantServer::shutdown`] first to get the reconciliation report.
pub struct TenantServer {
    /// Shard slots are append-only: a removed tenant's slot stays (its
    /// name is dropped from `by_name`), so a worker holding a popped
    /// batch for lane `i` can always resolve shard `i`.
    shards: Arc<RwLock<Vec<Arc<TenantShard>>>>,
    by_name: RwLock<HashMap<String, usize>>,
    queue: Arc<WeightedFairQueue<Job>>,
    global_admission: Mutex<AdmissionController>,
    started: Instant,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl TenantServer {
    /// Starts a server over the given tenant shards. Tenant names must be
    /// unique (duplicates panic). Starting with an empty tenant set is
    /// allowed — tenants can be attached later with
    /// [`TenantServer::add_tenant`].
    pub fn start(tenants: Vec<TenantSpec>, config: TenantServeConfig) -> TenantServer {
        let worker_count = ml::par::resolve_workers(config.workers);
        let queue = Arc::new(WeightedFairQueue::new(config.global_capacity));
        let shards: Arc<RwLock<Vec<Arc<TenantShard>>>> = Arc::new(RwLock::new(Vec::new()));
        let server = TenantServer {
            shards: Arc::clone(&shards),
            by_name: RwLock::new(HashMap::new()),
            queue: Arc::clone(&queue),
            global_admission: Mutex::new(AdmissionController::new(
                config.global_rate_limit,
                config.global_capacity,
            )),
            started: Instant::now(),
            workers: Mutex::new(Vec::new()),
        };
        for spec in tenants {
            if let Err(e) = server.add_tenant(spec) {
                panic!("tenant set rejected at start: {e}");
            }
        }
        let max_batch = config.max_batch.max(1);
        let handles = (0..worker_count)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shards = Arc::clone(&shards);
                let worker_stall = config.worker_stall;
                std::thread::Builder::new()
                    .name(format!("qpp-serve-{i}"))
                    .spawn(move || tenant_worker_loop(&queue, &shards, worker_stall, max_batch))
                    .expect("spawning a serving worker")
            })
            .collect();
        *server.workers.lock().unwrap() = handles;
        server
    }

    /// Attaches a new tenant under load: opens a weighted-fair lane (it
    /// joins at the current virtual time) and registers the shard.
    /// Returns the tenant's lane index, or an error when the name is
    /// already taken.
    pub fn add_tenant(&self, spec: TenantSpec) -> Result<usize, QppError> {
        // Held across lane + shard append so the lane index and the shard
        // slot cannot be torn apart by a concurrent add.
        let mut by_name = self.by_name.write().unwrap();
        if by_name.contains_key(&spec.name) {
            return Err(QppError::Internal("duplicate tenant name"));
        }
        let idx = self.queue.add_tenant(spec.budget.weight, spec.budget.queue_quota);
        let shard = Arc::new(TenantShard {
            name: spec.name.clone(),
            registry: spec.registry,
            rate: spec
                .budget
                .rate_limit
                .map(|limit| Mutex::new(TokenBucket::new(limit))),
            budget: spec.budget,
            stats: Arc::default(),
            monitor: Mutex::new(DriftMonitor::new(None)),
            slo_seen: Mutex::default(),
        });
        self.shards.write().unwrap().push(shard);
        debug_assert_eq!(self.shards.read().unwrap().len(), idx + 1);
        by_name.insert(spec.name, idx);
        Ok(idx)
    }

    /// Detaches a tenant under load. New submissions fail immediately
    /// (`unknown tenant`); requests already queued in the tenant's lane
    /// are drained and served on the *calling* thread (their replies
    /// still arrive, and the ledger stays balanced); the tenant's
    /// registry and final stats are handed back. Other tenants' lanes,
    /// budgets, and latencies are untouched.
    pub fn remove_tenant(&self, tenant: &str) -> Result<RemovedTenant, QppError> {
        let idx = self
            .by_name
            .write()
            .unwrap()
            .remove(tenant)
            .ok_or(QppError::Internal("unknown tenant"))?;
        let shard = Arc::clone(&self.shards.read().unwrap()[idx]);
        let drained = self.queue.remove_tenant(idx);
        let n = drained.len();
        if n > 0 {
            // Serve the backlog here rather than dropping it: every job
            // was already counted `submitted`, so dropping would leak
            // accepted-but-unaccounted requests. A worker that popped a
            // batch from this lane just before the drain still resolves
            // the shard (slots are never deleted), so there is no race.
            shard.stats.record_batch(n);
            let predictor = shard.registry.current();
            let cache = Arc::clone(shard.registry.pred_cache());
            serve_batch(drained, &shard.stats, &predictor, &cache);
        }
        Ok(RemovedTenant {
            name: shard.name.clone(),
            registry: Arc::clone(&shard.registry),
            stats: shard.stats.snapshot(),
            drained: n,
        })
    }

    /// The live tenant names (removed tenants excluded), in tenant-index
    /// order.
    pub fn tenant_names(&self) -> Vec<String> {
        let by_name = self.by_name.read().unwrap();
        let mut named: Vec<(usize, &String)> = by_name.iter().map(|(n, &i)| (i, n)).collect();
        named.sort_by_key(|&(i, _)| i);
        named.into_iter().map(|(_, n)| n.clone()).collect()
    }

    /// One tenant's model registry shard.
    pub fn registry(&self, tenant: &str) -> Result<Arc<ModelRegistry>, QppError> {
        Ok(Arc::clone(&self.shard(tenant)?.registry))
    }

    /// One tenant's serving statistics snapshot.
    pub fn stats(&self, tenant: &str) -> Result<ServeStatsSnapshot, QppError> {
        Ok(self.shard(tenant)?.stats.snapshot())
    }

    /// One tenant's live stats handle (for recorders outside this module,
    /// like the healer's supervision counters).
    pub(crate) fn stats_handle(&self, tenant: &str) -> Result<Arc<ServeStats>, QppError> {
        Ok(Arc::clone(&self.shard(tenant)?.stats))
    }

    /// Submits a prediction request on behalf of `tenant`. Admission runs
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
        let (tx, rx) = mpsc::channel();
        let job = Job {
            query,
            method,
            submitted: now,
            deadline: budget.map(|d| now + d),
            budget_secs: budget.map_or(f64::INFINITY, |d| d.as_secs_f64()),
            reply: tx,
        };
        match self.queue.try_push(idx, job) {
            Ok(_) => Ok(PendingPrediction::new(rx)),
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
            Err(TenantPushError::Removed(_)) => {
                // The tenant raced a remove between the name lookup and
                // the push. Recorded as shutdown-shed so this shard's
                // ledger still balances (`submitted` was already counted).
                shard.stats.record_shed(ShedReason::Shutdown);
                Err(QppError::Internal(
                    "tenant was removed while the request was in flight",
                ))
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

    /// Convenience: submit for `tenant` and block for the answer.
    pub fn predict(
        &self,
        tenant: &str,
        query: Arc<qpp::ExecutedQuery>,
        method: Method,
        deadline: Option<Duration>,
    ) -> Result<Prediction, QppError> {
        self.submit(tenant, query, method, deadline)?.wait()
    }

    /// Folds one `(prediction, observed latency)` residual into `tenant`'s
    /// drift monitor, tripping the tenant's circuit breaker on quarantine —
    /// the accuracy half of the feedback loop, scoped to one bulkhead.
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
            .ingest(&predictor, tier, predicted, observed);
        Ok(health)
    }

    /// Folds the tenant's SLO counters accumulated since the previous tick
    /// into its drift monitor as the second escalation signal, and returns
    /// the window that was applied with the resulting health.
    ///
    /// The window is attributed to the Hybrid tier — the entry of the
    /// degradation chain: sustained pressure means the accurate tier is
    /// not answering within budget, and that is the model set a shadow
    /// retrain would replace. Call this periodically (every accounting
    /// interval); consecutive ticks see disjoint windows.
    pub fn slo_tick(&self, tenant: &str) -> Result<(SloWindow, ModelHealth), QppError> {
        let shard = self.shard(tenant)?;
        let snap = shard.stats.snapshot();
        let mut seen = shard.slo_seen.lock().unwrap();
        let window = SloWindow {
            served: (snap.served - snap.degraded) - (seen.served - seen.degraded),
            degraded: snap.degraded - seen.degraded,
            deadline_missed: snap.deadline_missed - seen.deadline_missed,
            shed: snap.shed() - seen.shed(),
        };
        *seen = snap;
        drop(seen);
        let health = shard
            .monitor
            .lock()
            .unwrap()
            .observe_slo(PredictionTier::Hybrid, &window);
        Ok((window, health))
    }

    /// Current drift-monitor health of one tenant's tier.
    pub fn health(&self, tenant: &str, tier: PredictionTier) -> Result<ModelHealth, QppError> {
        Ok(self.shard(tenant)?.monitor.lock().unwrap().health(tier))
    }

    /// True when any of `tenant`'s learned tiers is quarantined — the cue
    /// to call [`TenantServer::heal`].
    pub fn any_quarantined(&self, tenant: &str) -> Result<bool, QppError> {
        Ok(self.shard(tenant)?.monitor.lock().unwrap().any_quarantined())
    }

    /// One healing round for one tenant: when a learned tier is
    /// quarantined, shadow-retrains on `recent`, promotes the candidate if
    /// it wins the held-out comparison, then *validates the promotion* by
    /// scoring the just-promoted model (as reloaded from its snapshot) on
    /// the same recent window — if it regressed past the incumbent's
    /// held-out error by more than a quarter (relative), the promotion is
    /// rolled back. On a validated promotion the tenant's
    /// monitor and circuit breakers are reset so the new model serves at
    /// full accuracy. Other tenants' registries are never touched. Every
    /// round's action lands in the tenant's [`ServeStats`].
    pub fn heal(
        &self,
        tenant: &str,
        recent: &[&qpp::ExecutedQuery],
    ) -> Result<HealReport, QppError> {
        let shard = self.shard(tenant)?;
        let result = Self::heal_shard(&shard, recent);
        if let Ok(report) = &result {
            shard.stats.record_heal(&report.action);
        }
        result
    }

    fn heal_shard(
        shard: &TenantShard,
        recent: &[&qpp::ExecutedQuery],
    ) -> Result<HealReport, QppError> {
        if !shard.monitor.lock().unwrap().any_quarantined() {
            return Ok(HealReport {
                action: HealAction::NotNeeded,
                report: None,
                version: shard.registry.version(),
            });
        }
        let report = shard.registry.shadow_retrain(recent)?;
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
        let promoted_error = shard.registry.score_current(recent);
        if !promoted_error.is_finite()
            || promoted_error > report.incumbent_error * (1.0 + ROLLBACK_TOLERANCE)
        {
            let version = shard.registry.rollback()?;
            return Ok(HealReport {
                action: HealAction::RolledBack,
                version,
                report: Some(report),
            });
        }
        let mut monitor = shard.monitor.lock().unwrap();
        monitor.reset_all();
        shard.registry.current().reset_breakers();
        Ok(HealReport {
            action: HealAction::Promoted,
            version: report.version,
            report: Some(report),
        })
    }

    fn lookup(&self, tenant: &str) -> Result<(usize, Arc<TenantShard>), QppError> {
        let idx = self
            .by_name
            .read()
            .unwrap()
            .get(tenant)
            .copied()
            .ok_or(QppError::Internal("unknown tenant"))?;
        let shard = Arc::clone(&self.shards.read().unwrap()[idx]);
        Ok((idx, shard))
    }

    fn shard(&self, tenant: &str) -> Result<Arc<TenantShard>, QppError> {
        Ok(self.lookup(tenant)?.1)
    }

    /// Graceful shutdown, idempotent: closes the queue (new submissions
    /// are refused and recorded as shutdown-shed), lets the workers drain
    /// every admitted request, joins them, and only then takes the final
    /// per-tenant reconciliation read — **under the queue lock**, so the
    /// read cannot interleave with a straggling push or pop. After this
    /// returns, every tenant's ledger balances:
    /// `accepted == served + deadline_missed`.
    pub fn shutdown(&self) -> ShutdownReport {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            if let Err(p) = handle.join() {
                std::panic::resume_unwind(p);
            }
        }
        let shards = self.shards.read().unwrap().clone();
        let tenants = self.queue.quiesced(|| {
            shards
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
    shards: &RwLock<Vec<Arc<TenantShard>>>,
    worker_stall: Duration,
    max_batch: usize,
) {
    while let Some((tenant, batch)) = queue.pop_blocking_batch(max_batch) {
        // Jobs only enter lane `i` after shard `i` is registered, and
        // slots are never deleted, so the index always resolves.
        let shard = Arc::clone(&shards.read().unwrap()[tenant]);
        shard.stats.record_batch(batch.len());

        if !worker_stall.is_zero() {
            shard.stats.record_stall();
            std::thread::sleep(worker_stall);
        }

        // Snapshot *this tenant's* serving model once per batch: batches
        // are single-tenant, so one tenant's promote/rollback can never
        // tear — or even touch — another tenant's predictions.
        let predictor = shard.registry.current();
        let cache = Arc::clone(shard.registry.pred_cache());

        serve_batch(batch, &shard.stats, &predictor, &cache);
    }
}
