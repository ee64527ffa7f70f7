//! Supervised background healing: the unattended half of the drift → heal
//! loop.
//!
//! [`TenantServer::heal`] closes the loop only when somebody calls it. In
//! production nobody does — the LinkedIn study (PAPERS.md) names
//! unattended model refresh as the layer where learned predictors rot.
//! [`Healer`] is that somebody: a single background thread that, on a
//! *jittered* cadence (deterministic given the seed, but de-phased from any
//! client's retry loop), walks the live tenants and runs a healing round
//! for any tenant that needs one ([`TenantServer::any_quarantined`]: a
//! quarantined tier or an open learned-tier breaker). Overload alone never
//! triggers a round.
//!
//! The thread is **supervised**, not trusted:
//!
//! - The workload source ([`HealSource`]) is caller-provided and runs
//!   *before* [`TenantServer::heal`], outside every server lock — a
//!   panicking source unwinds through no registry or monitor mutex, so
//!   nothing is poisoned.
//! - Every round runs under `catch_unwind`; a panic is counted
//!   ([`crate::ServeStatsSnapshot::heal_panics`]) and the tenant enters a
//!   breaker-style backoff: the next `2^k` ticks are skipped (capped),
//!   doubling on every consecutive failure and resetting on the first
//!   clean round. Serving traffic never stalls — the healer shares no
//!   lock with the submit or worker paths while it sleeps or backs off.
//! - Healing actions land in the tenant's [`crate::ServeStats`], so the
//!   operator sees promotes/rollbacks/panics in the same ledger as
//!   serving outcomes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qpp::QppError;
use rng::StdRng;

use crate::tenant::TenantServer;

/// Where the healer gets each tenant's recent executed workload for
/// shadow retraining. Implemented by closures `Fn(&str) ->
/// Vec<ExecutedQuery>`.
pub trait HealSource: Send + Sync {
    /// Recent executed queries for `tenant`, newest window preferred.
    fn recent(&self, tenant: &str) -> Vec<qpp::ExecutedQuery>;
}

impl<F> HealSource for F
where
    F: Fn(&str) -> Vec<qpp::ExecutedQuery> + Send + Sync,
{
    fn recent(&self, tenant: &str) -> Vec<qpp::ExecutedQuery> {
        self(tenant)
    }
}

/// Cadence and supervision knobs for [`Healer::spawn`].
#[derive(Debug, Clone)]
pub struct HealerConfig {
    /// Nominal time between rounds.
    pub interval: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is drawn uniformly from
    /// `interval * [1 - jitter, 1 + jitter)` so the healer de-phases from
    /// periodic client load. `0` disables jitter.
    pub jitter: f64,
    /// Seed for the jitter stream — the cadence is reproducible.
    pub seed: u64,
    /// Ticks skipped after the first failed round for a tenant; doubles
    /// per consecutive failure (breaker-style) up to `backoff_cap`.
    pub backoff_start: u32,
    /// Ceiling on skipped ticks per failure.
    pub backoff_cap: u32,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            interval: Duration::from_secs(5),
            jitter: 0.2,
            seed: 0x9E37_79B9_7F4A_7C15,
            backoff_start: 1,
            backoff_cap: 32,
        }
    }
}

struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopFlag {
    /// Sleeps up to `d`; returns true when a stop arrived meanwhile.
    fn wait_for(&self, d: Duration) -> bool {
        let mut stopped = self.stopped.lock().unwrap();
        let deadline = Instant::now() + d;
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            stopped = self.cv.wait_timeout(stopped, deadline - now).unwrap().0;
        }
        true
    }

    fn stop(&self) {
        *self.stopped.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

struct Backoff {
    skip_remaining: u32,
    next: u32,
}

/// A supervised background healer thread over a [`TenantServer`].
/// Dropping the handle stops the thread and joins it.
pub struct Healer {
    stop: Arc<StopFlag>,
    handle: Option<JoinHandle<()>>,
}

impl Healer {
    /// Starts the healer thread. It wakes on the configured jittered
    /// cadence and runs one supervised round per live tenant; see the
    /// module docs for the failure semantics.
    pub fn spawn(
        server: Arc<TenantServer>,
        source: Arc<dyn HealSource>,
        config: HealerConfig,
    ) -> Healer {
        let stop = Arc::new(StopFlag {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("qpp-healer".into())
            .spawn(move || healer_loop(&server, source.as_ref(), &config, &thread_stop))
            .expect("spawning the healer thread");
        Healer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the healer (idempotent); the next [`Drop`] joins the thread.
    pub fn stop(&self) {
        self.stop.stop();
    }
}

impl Drop for Healer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(handle) = self.handle.take() {
            // The healer loop catches round panics itself; a panic here
            // means the loop's own scaffolding broke — propagate it.
            if let Err(p) = handle.join() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

fn jittered(interval: Duration, jitter: f64, rng: &mut StdRng) -> Duration {
    let jitter = jitter.clamp(0.0, 1.0);
    if jitter == 0.0 {
        return interval;
    }
    let scale = 1.0 - jitter + 2.0 * jitter * rng.gen_f64();
    interval.mul_f64(scale.max(0.0))
}

fn healer_loop(
    server: &TenantServer,
    source: &dyn HealSource,
    config: &HealerConfig,
    stop: &StopFlag,
) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut backoff: HashMap<String, Backoff> = HashMap::new();
    loop {
        let sleep = jittered(config.interval, config.jitter, &mut rng);
        if stop.wait_for(sleep) {
            return;
        }
        for tenant in server.tenant_names() {
            // The tenant may be removed between the listing and here;
            // every call below then fails softly with `unknown tenant`.
            let Ok(stats) = server.stats_handle(&tenant) else {
                continue;
            };
            if let Some(b) = backoff.get_mut(&tenant) {
                if b.skip_remaining > 0 {
                    b.skip_remaining -= 1;
                    stats.record_heal_backoff_skip();
                    continue;
                }
            }
            let round = catch_unwind(AssertUnwindSafe(|| -> Result<(), QppError> {
                if !server.any_quarantined(&tenant)? {
                    return Ok(());
                }
                // Pull the retrain window *before* heal touches the
                // registry, outside every server lock: a panicking
                // source unwinds through nothing it could poison.
                let recent = source.recent(&tenant);
                let refs: Vec<&qpp::ExecutedQuery> = recent.iter().collect();
                server.heal(&tenant, &refs).map(|_| ())
            }));
            match round {
                Ok(Ok(())) => {
                    backoff.remove(&tenant);
                }
                Ok(Err(_)) => bump_backoff(&mut backoff, &tenant, config),
                Err(_panic) => {
                    stats.record_heal_panic();
                    bump_backoff(&mut backoff, &tenant, config);
                }
            }
        }
    }
}

fn bump_backoff(backoff: &mut HashMap<String, Backoff>, tenant: &str, config: &HealerConfig) {
    let cap = config.backoff_cap.max(1);
    let entry = backoff.entry(tenant.to_string()).or_insert(Backoff {
        skip_remaining: 0,
        next: config.backoff_start.max(1),
    });
    entry.skip_remaining = entry.next;
    entry.next = entry.next.saturating_mul(2).min(cap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_inside_the_band_and_is_reproducible() {
        let interval = Duration::from_millis(1000);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let da = jittered(interval, 0.25, &mut a);
            let db = jittered(interval, 0.25, &mut b);
            assert_eq!(da, db, "same seed, same cadence");
            assert!(da >= Duration::from_millis(750) - Duration::from_nanos(1));
            assert!(da <= Duration::from_millis(1250));
        }
        let mut c = StdRng::seed_from_u64(7);
        assert_eq!(jittered(interval, 0.0, &mut c), interval);
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_resets_on_removal() {
        let config = HealerConfig {
            backoff_start: 1,
            backoff_cap: 8,
            ..HealerConfig::default()
        };
        let mut map = HashMap::new();
        let skips: Vec<u32> = (0..6)
            .map(|_| {
                bump_backoff(&mut map, "t", &config);
                map["t"].skip_remaining
            })
            .collect();
        // Consecutive failures: skip 1, 2, 4, 8, then pinned at the cap.
        assert_eq!(skips, vec![1, 2, 4, 8, 8, 8]);
        map.remove("t");
        bump_backoff(&mut map, "t", &config);
        assert_eq!(map["t"].skip_remaining, 1, "clean round resets the breaker");
    }
}
