//! Deterministic fork-join parallelism on a process-wide set of parked
//! worker threads.
//!
//! No external thread-pool dependency. Every helper is a pure fan-out —
//! work items are claimed from a shared atomic counter, results are always
//! returned **in input order**, and given the same inputs and closure the
//! output is identical regardless of the worker count — which is what lets
//! callers across the pipeline (collection, cross-validation, hybrid
//! training, batched prediction) uphold the bit-for-bit determinism
//! contract documented in DESIGN.md.
//!
//! # How a fan-out runs
//!
//! Workers are started lazily, the first time a fan-out wants more of them
//! than exist, and then live for the rest of the process, parked on a
//! condition variable between jobs. A fan-out posts one *ticket* per
//! helper it could use and then follows three rules the scoped-thread
//! design it replaces could not:
//!
//! - **The caller helps from the first instant.** The issuing thread runs
//!   the same claim loop as the helpers, so a fan-out never waits for a
//!   wake-up to make progress. Parked workers are woken when the tickets
//!   are posted: a fan-out costs a few uncontended lock operations and a
//!   wake, not a thread spawn and join per worker. Whether a fan-out is
//!   worth that wake is its call site's decision, not this module's.
//! - **Late workers find the job closed.** When the caller's claim loop
//!   runs dry it takes its unclaimed tickets back, so a worker that wakes
//!   late finds nothing and parks again; the caller then waits for the
//!   ones inside.
//! - **Nested fan-outs on a worker run inline.** A fan-out issued from a
//!   pool worker is a plain serial loop, so `join2 → par_map_n → par_map`
//!   occupies at most [`threads`] threads instead of multiplying them, and
//!   a worker never blocks on the pool — which is why the pool cannot
//!   deadlock: a caller waits only for workers that are running its body.
//!
//! # Who asks
//!
//! Fits, query executions and large prediction batches fan out; nothing
//! inside a fit does, and no per-query walk of training does either.
//! Hybrid training and online building compute each query's feature
//! views and walk on the calling thread, and fan out only fits: a
//! candidate's start- and run-time heads ([`join2`]) and online
//! building's candidate fragments. A prediction batch fans out only from
//! 64 queries (`qpp::plan_model::PAR_BATCH_MIN`), so a coalesced serve
//! batch stays on the thread that holds it. The one
//! nesting that still posts tickets is on the *caller* side: the thread
//! that issued `join2(plan, op)` runs the plan half itself, is not a pool
//! worker, and so its per-candidate fold fan-outs (`cv::cross_validate`)
//! are real ones. (The operator half's are not: its linear candidates are
//! solved from per-fold normal equations in place, so nothing below its
//! per-type fits fans out.) Everything those folds call — `Svr::fit`, the
//! Gram build, the SMO scans — is a plain loop and never reads
//! [`threads`]. Callers pass
//! their items to [`par_map`] / [`par_map_n`] without a serial twin of
//! their own: one thread, one item, or a pool worker already gets the
//! plain loop here. DESIGN.md §7 ("Threading model") lists every site.
//!
//! # Safety
//!
//! A fan-out's closure borrows from the caller's stack, but pool workers
//! are `'static` threads, so the borrow's lifetime is erased when a ticket
//! is posted. That erasure is the only `unsafe` in the parallel layer and
//! is confined to this file (`fan_out` and `worker_loop`). It is sound
//! because of one invariant: **`fan_out` returns, normally or by
//! re-raised panic, only after every worker that entered the job has left
//! it.** A worker enters (takes a ticket and is counted) under the pool
//! lock; the caller takes back the remaining tickets under the same lock,
//! after which the count can only fall; a worker's last access to the job
//! is the `Release` decrement of that count, and the caller returns only
//! after an `Acquire` read of zero.
//!
//! # Worker count
//!
//! The worker count is process-wide: the `QPP_THREADS` environment
//! variable sets the default (falling back to the machine's available
//! parallelism), and [`set_threads`] overrides it at runtime — benchmarks
//! use that to time the serial and parallel paths in one process. A
//! fan-out uses at most `threads() − 1` helpers beside its caller; callers
//! on different threads share the same helpers.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Sentinel meaning "no runtime override active".
const NO_OVERRIDE: usize = usize::MAX;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// Parses a `QPP_THREADS` value: `Ok(None)` when unset, `Ok(Some(n))` for
/// a valid positive count, `Err(reason)` for anything else (unparsable,
/// zero — a process cannot run on zero workers). The caller decides the
/// fallback; keeping the parse pure keeps it unit-testable without
/// touching process environment.
fn parse_thread_knob(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        Ok(_) => Err(format!(
            "QPP_THREADS={raw:?} is zero; a worker pool needs at least one thread"
        )),
        Err(_) => Err(format!("QPP_THREADS={raw:?} is not a positive integer")),
    }
}

/// `QPP_THREADS` if it parses, else the machine's available parallelism.
/// The environment is read once per process, so a rejected value warns
/// once: never a crash, never a silently ignored setting.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match parse_thread_knob(std::env::var("QPP_THREADS").ok().as_deref()) {
            Ok(requested) => requested.unwrap_or(machine),
            Err(reason) => {
                eprintln!(
                    "warning: ignoring invalid {reason}; using available parallelism ({machine})"
                );
                machine
            }
        }
    })
}

/// Number of worker threads fan-outs may use (always ≥ 1).
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o == NO_OVERRIDE {
        default_threads()
    } else {
        o.max(1)
    }
}

/// Overrides the process-wide worker count; `0` restores the default
/// (`QPP_THREADS`, else available parallelism). With a count of `1` every
/// fan-out runs inline on the calling thread — the serial path.
///
/// Intended for benchmarks and determinism tests; concurrent callers that
/// flip this global should serialize among themselves.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(if n == 0 { NO_OVERRIDE } else { n }, Ordering::Relaxed);
}

/// Resolves a requested worker count for a long-lived pool against the
/// process-wide setting: `None` or `Some(0)` defer to [`threads`] (which
/// honours `QPP_THREADS` and [`set_threads`]); an explicit request is
/// taken as-is. Always ≥ 1.
///
/// The serving worker pool sizes itself with this, so the one knob that
/// sizes the fan-outs sizes every thread pool in the process.
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n >= 1 => n,
        _ => threads(),
    }
}

/// A panic payload on its way back to the thread that issued the fan-out.
type Payload = Box<dyn Any + Send + 'static>;

/// One fan-out as the pool sees it. It lives on the issuing thread's stack
/// for the duration of [`fan_out`].
struct Job<'a> {
    /// What a helper runs: the fan-out's claim loop.
    helper: &'a (dyn Fn() + Sync),
    /// Workers that have entered this job and not yet left it. Raised
    /// under the pool lock together with taking a ticket; lowered with
    /// `Release` as the worker's last access to the job; the caller may
    /// free the job once an `Acquire` load, after it has taken its tickets
    /// back, reads zero.
    running: AtomicUsize,
    /// The first panic a helper's run ended in.
    panic: Mutex<Option<Payload>>,
}

/// A queued invitation for one worker to enter a job.
struct Ticket(*const Job<'static>);

// SAFETY: a ticket is a pointer to a `Job`, whose fields are all `Sync`
// (`&(dyn Fn() + Sync)`, an atomic, a mutex of a `Send` payload), so it may
// be dereferenced from another thread; `fan_out` keeps the job alive until
// the ticket is taken back or the worker that took it has left.
unsafe impl Send for Ticket {}

struct PoolState {
    /// One ticket per helper a running fan-out could still use, oldest
    /// first.
    tickets: VecDeque<Ticket>,
    /// Worker threads started so far; they never exit.
    spawned: usize,
    /// Workers parked in `Pool::work`.
    idle: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Parked workers wait here for a ticket.
    work: Condvar,
    /// Callers wait here for the last helper to leave their job.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        tickets: VecDeque::new(),
        spawned: 0,
        idle: 0,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

impl Pool {
    /// The lock is never held while a fan-out's closure runs, so it can
    /// only be poisoned by a panic in the bookkeeping itself, each step of
    /// which (a push, a pop, a counter) leaves the state valid. Recovering
    /// the guard matters for safety: `fan_out` must not unwind between
    /// posting its tickets and taking them back.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs of consecutive indices a fan-out is cut into, per participant.
const RUNS_PER_WORKER: usize = 8;

thread_local! {
    /// Whether this thread is one of the pool's workers.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is a pool worker, where a fan-out runs inline.
fn on_worker() -> bool {
    ON_WORKER.with(Cell::get)
}

/// What every pool worker runs, forever: take a ticket, run that job's
/// helper body, leave the job; park when there is no ticket.
fn worker_loop() {
    ON_WORKER.with(|w| w.set(true));
    let mut state = POOL.lock();
    loop {
        let Some(Ticket(job)) = state.tickets.pop_front() else {
            state.idle += 1;
            state = POOL
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
            continue;
        };
        // SAFETY: the ticket was still queued, so the job's `fan_out` has
        // not yet taken its tickets back (it does that under this lock),
        // and it cannot return before it has then seen the count raised
        // here come back to zero.
        let job: &Job<'static> = unsafe { &*job };
        job.running.fetch_add(1, Ordering::Relaxed);
        drop(state);
        // The erased borrows inside `helper` are alive for the same
        // reason: this worker is counted in `running`.
        let outcome = catch_unwind(AssertUnwindSafe(job.helper));
        state = POOL.lock();
        if let Err(payload) = outcome {
            let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
        // Last use of `job`: the caller may free it as soon as it reads
        // zero. `Release` hands it everything this worker wrote.
        if job.running.fetch_sub(1, Ordering::Release) == 1 {
            POOL.done.notify_all();
        }
    }
}

/// Runs `caller` on this thread while up to `helpers` pool workers run
/// `helper`, and returns `caller`'s result once every worker that entered
/// has left. A panic — `caller`'s first, else the first helper's — is
/// re-raised here, after that same wait.
///
/// The tickets are posted and as many parked workers woken before
/// `caller` starts; a worker that is already awake takes one unasked.
fn fan_out<R>(helpers: usize, helper: &(dyn Fn() + Sync), caller: impl FnOnce() -> R) -> R {
    let job = Job {
        helper,
        running: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    // Lifetime erasure: workers are `'static` threads. Sound because this
    // function does not return or unwind until no worker can reach `job`
    // (see the module docs); nothing between here and the wait below can
    // unwind: `caller` runs under `catch_unwind`, and `Pool::lock`
    // recovers from poison.
    let erased: *const Job<'static> = (&job as *const Job<'_>).cast();
    {
        let mut state = POOL.lock();
        while state.spawned < helpers {
            let name = format!("qpp-par-{}", state.spawned);
            // Detached on purpose: a worker parks between jobs for the
            // life of the process. If the OS refuses a thread the fan-out
            // still completes, on the caller and the workers there are.
            if std::thread::Builder::new()
                .name(name)
                .spawn(worker_loop)
                .is_err()
            {
                break;
            }
            state.spawned += 1;
        }
        state.tickets.extend((0..helpers).map(|_| Ticket(erased)));
        // A worker that is not idle finds its ticket on its own.
        for _ in 0..helpers.min(state.idle) {
            POOL.work.notify_one();
        }
    }
    let mine = catch_unwind(AssertUnwindSafe(caller));
    {
        // Close the job: no new worker can enter once the tickets are
        // gone, and the ones inside are counted. Each leaves under this
        // lock, so waiting on `done` while it is held misses no leave.
        let mut state = POOL.lock();
        state.tickets.retain(|t| !std::ptr::eq(t.0, erased));
        while job.running.load(Ordering::Acquire) != 0 {
            state = POOL
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    let helper_panic = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    match (mine, helper_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(result), None) => result,
    }
}

/// Order-preserving parallel map over a slice: returns
/// `items.iter().enumerate().map(|(i, t)| f(i, t))` collected in input
/// order, computed on up to [`threads`] workers.
///
/// Falls back to a plain serial loop when one worker (or one item) makes
/// a fan-out pointless, and on a pool worker. Panics in `f` are
/// propagated to the caller.
pub fn par_map<'a, T, U, F>(items: &'a [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &'a T) -> U + Sync,
{
    par_map_n(items.len(), |i| f(i, &items[i]))
}

/// Order-preserving parallel map over the index range `0..n`; see
/// [`par_map`].
pub fn par_map_n<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads().min(n);
    if workers <= 1 || on_worker() {
        return (0..n).map(f).collect();
    }
    // Indices are claimed a run at a time, so cheap items do not pay for
    // a contended atomic each; several runs per worker keep uneven items
    // balanced.
    let run = n.div_ceil(workers * RUNS_PER_WORKER);
    let next = AtomicUsize::new(0);
    // Every participant's runs, each as its first index and its results.
    let runs: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    // Claims one run and computes it; `None` once none is left.
    let claim_run = || {
        let lo = next.fetch_add(run, Ordering::Relaxed);
        (lo < n).then(|| (lo, (lo..n.min(lo + run)).map(&f).collect()))
    };
    // The caller and each helper claim runs until none is left.
    let work = || {
        let mut mine = Vec::new();
        while let Some(claimed) = claim_run() {
            mine.push(claimed);
        }
        runs.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(mine);
    };
    fan_out(workers - 1, &work, work);
    let mut runs = runs.into_inner().unwrap_or_else(PoisonError::into_inner);
    runs.sort_unstable_by_key(|&(start, _)| start);
    // Each result moves once more, from its run into the output.
    let mut out = Vec::with_capacity(n);
    for (_, results) in runs {
        out.extend(results);
    }
    out
}

/// Runs two independent closures, the second on a pool worker when more
/// than one worker is allowed and one takes it before the first closure is
/// done, and returns both results. Panics are propagated.
pub fn join2<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if threads() <= 1 || on_worker() {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    let fb = Mutex::new(Some(fb));
    let b = Mutex::new(None);
    // Whoever takes `fb` first runs it: a helper, or the caller once `fa`
    // is done.
    let run_b = || {
        let taken = fb.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(fb) = taken {
            let out = fb();
            *b.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
    };
    let a = fan_out(1, &run_b, || {
        let a = fa();
        run_b();
        a
    });
    let b = b.into_inner().unwrap_or_else(PoisonError::into_inner);
    (a, b.expect("the second closure ran exactly once"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Serializes the tests that pin the process-wide worker count.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    /// Holds `THREADS_LOCK` with the worker count pinned to `n`; restores
    /// the default when dropped, also on a failed assertion.
    pub(crate) struct Pinned {
        _guard: MutexGuard<'static, ()>,
    }

    pub(crate) fn pin_threads(n: usize) -> Pinned {
        let guard = THREADS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(n);
        Pinned { _guard: guard }
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            set_threads(0);
        }
    }

    fn wave(i: usize) -> f64 {
        (i as f64 * 0.37).sin() * (i as f64 * 0.11).cos()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..257).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(|v| v.sin() * v.cos()).collect();
        let parallel = par_map(&items, |_, v| v.sin() * v.cos());
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &v| v).is_empty());
        assert_eq!(par_map(&[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn resolve_workers_defers_to_global_setting() {
        let _pinned = pin_threads(0);
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(1)), 1);
        assert_eq!(resolve_workers(None), threads());
        assert_eq!(resolve_workers(Some(0)), threads());
    }

    #[test]
    fn thread_knob_parses_valid_rejects_invalid() {
        assert_eq!(parse_thread_knob(None), Ok(None));
        assert_eq!(parse_thread_knob(Some("4")), Ok(Some(4)));
        assert_eq!(parse_thread_knob(Some(" 8 ")), Ok(Some(8)));
        assert!(parse_thread_knob(Some("0")).unwrap_err().contains("zero"));
        for bad in ["", "four", "-2", "3.5", "1e3"] {
            let err = parse_thread_knob(Some(bad)).unwrap_err();
            assert!(
                err.contains("QPP_THREADS") && err.contains("positive integer"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn join2_returns_both_results() {
        let (a, b) = join2(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn nested_fan_outs_complete_and_equal_the_serial_result() {
        // The shape of a train: join2 → par_map_n → par_map.
        let inner: Vec<usize> = (0..33).collect();
        let side = |offset: usize| -> Vec<f64> {
            par_map_n(9, |i| {
                par_map(&inner, |_, &j| wave(offset + i * 33 + j))
                    .iter()
                    .sum::<f64>()
            })
        };
        let serial = {
            let _pinned = pin_threads(1);
            (side(0), side(1000))
        };
        for threads in [2, 4] {
            let _pinned = pin_threads(threads);
            let (a, b) = join2(|| side(0), || side(1000));
            assert_eq!((bits(&a), bits(&b)), (bits(&serial.0), bits(&serial.1)));
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_keeps_working() {
        let _pinned = pin_threads(2);
        let caller = std::thread::current().id();
        // Two items that meet at a barrier need two threads, so one of
        // them runs on a pool worker; `on_helper` picks which one panics.
        for on_helper in [false, true] {
            let both_in = Barrier::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_n(2, |i| {
                    both_in.wait();
                    if (std::thread::current().id() != caller) == on_helper {
                        panic!("item failed");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item failed"));
            assert_eq!(
                par_map_n(100, |i| i * 2),
                (0..100).map(|i| i * 2).collect::<Vec<_>>()
            );
        }
        let caught = catch_unwind(|| join2(|| 1, || -> u32 { panic!("second failed") }));
        assert!(caught.is_err());
        assert_eq!(join2(|| 1, || 2), (1, 2));
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_result() {
        // Serve workers plus a healer retrain: many threads fan out at
        // once and share the same helpers.
        let _pinned = pin_threads(2);
        const CALLERS: usize = 8;
        let start = Barrier::new(CALLERS);
        std::thread::scope(|s| {
            for c in 0..CALLERS {
                let start = &start;
                s.spawn(move || {
                    let items: Vec<usize> = (0..257).map(|i| c * 1000 + i).collect();
                    let expected: Vec<u64> = items.iter().map(|&v| wave(v).to_bits()).collect();
                    start.wait();
                    for _ in 0..40 {
                        let out = par_map(&items, |i, &v| {
                            assert_eq!(v, c * 1000 + i);
                            wave(v)
                        });
                        assert_eq!(bits(&out), expected, "caller {c}");
                    }
                });
            }
        });
    }

    #[test]
    fn output_is_identical_at_every_thread_count() {
        let serial: Vec<f64> = (0..1000).map(wave).collect();
        for threads in (1..=8).chain([0]) {
            let _pinned = pin_threads(threads);
            assert_eq!(
                bits(&par_map_n(1000, wave)),
                bits(&serial),
                "threads = {threads}"
            );
            let (a, b) = join2(|| wave(3), || wave(4));
            assert_eq!(
                (a.to_bits(), b.to_bits()),
                (wave(3).to_bits(), wave(4).to_bits())
            );
        }
    }

    /// A result that counts its drops in `drops[i]`.
    struct Counted<'a> {
        i: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops[self.i].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn loads(counters: &[AtomicUsize]) -> Vec<usize> {
        counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn one_item_runs_come_back_in_order_and_each_result_is_dropped_once() {
        for threads in [2, 4] {
            let _pinned = pin_threads(threads);
            // Few enough items that every run is one item long.
            let n = threads * RUNS_PER_WORKER;
            let drops = counters(n);
            // Items 0 and 1 meet, so they run on two threads.
            let both_in = Barrier::new(2);
            let out = par_map_n(n, |i| {
                if i < 2 {
                    both_in.wait();
                }
                Counted { i, drops: &drops }
            });
            let order: Vec<usize> = out.iter().map(|c| c.i).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "threads = {threads}");
            assert_eq!(loads(&drops), vec![0; n], "dropped before returned");
            drop(out);
            assert_eq!(loads(&drops), vec![1; n], "threads = {threads}");
        }
    }

    #[test]
    fn a_panic_among_one_item_runs_is_raised_after_the_workers_leave() {
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            let _pinned = pin_threads(threads);
            let n = threads * RUNS_PER_WORKER;
            let failing = n / 2;
            let drops = counters(n);
            let (entered, left) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let both_in = Barrier::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_n(n, |i| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let _leave = Leave(&left);
                    if i < 2 {
                        both_in.wait();
                    }
                    if std::thread::current().id() != caller {
                        // A helper is still inside when the caller's
                        // claims run dry.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    if i == failing {
                        panic!("item failed");
                    }
                    Counted { i, drops: &drops }
                })
            }));
            let Err(payload) = caught else {
                panic!("the panic must reach the caller");
            };
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item failed"));
            assert_eq!(
                left.load(Ordering::SeqCst),
                entered.load(Ordering::SeqCst),
                "raised with a worker still inside"
            );
            // Every other item ran, and what it returned was dropped once.
            let mut want = vec![1; n];
            want[failing] = 0;
            assert_eq!(loads(&drops), want, "threads = {threads}");
        }
    }

    #[test]
    fn a_fan_out_returns_only_after_every_worker_that_entered_has_left() {
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let _pinned = pin_threads(2);
        let caller = std::thread::current().id();
        // By normal return and by a panic re-raised from the caller's item.
        for caller_panics in [false, true] {
            let borrowed: Vec<usize> = vec![10, 20];
            let entered = AtomicUsize::new(0);
            let left = AtomicUsize::new(0);
            let both_in = Barrier::new(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(&borrowed, |_, &v| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let _leave = Leave(&left);
                    both_in.wait();
                    if std::thread::current().id() != caller {
                        // The helper is still inside, holding `borrowed`,
                        // long after the caller's own item is over.
                        std::thread::sleep(Duration::from_millis(20));
                    } else if caller_panics {
                        panic!("caller item failed");
                    }
                    v
                })
            }));
            assert_eq!(entered.load(Ordering::SeqCst), 2);
            assert_eq!(
                left.load(Ordering::SeqCst),
                2,
                "returned with a worker still inside"
            );
            assert_eq!(result.ok(), (!caller_panics).then(|| vec![10, 20]));
        }
    }
}
