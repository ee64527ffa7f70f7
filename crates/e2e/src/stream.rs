//! The seeded request stream and the open-loop clock.
//!
//! The program under test sees only generated requests; everything
//! random about them comes from `--seed` through [`SplitMix64`] (the
//! harness has no `rand` dependency of its own).

use qpp::{Method, PlanOrdering};
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and good enough to drive a request mix.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` draws from Zipf(s = 1) over `pool` items: hot plans recur as in
/// a plan cache while the tail keeps arriving. Which items are hot is a
/// seeded permutation, so the popular plans change with the seed.
pub fn zipf_stream(pool: usize, len: usize, seed: u64) -> Vec<u32> {
    assert!(pool > 0 && pool <= u32::MAX as usize);
    let mut rng = SplitMix64::new(seed ^ 0x21BF_57EA);
    let mut by_rank: Vec<u32> = (0..pool as u32).collect();
    for i in (1..pool).rev() {
        by_rank.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let total: f64 = (1..=pool).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=pool)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect();
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            by_rank[cdf.partition_point(|&c| c < u).min(pool - 1)]
        })
        .collect()
}

/// The hybrid flavour every hybrid request asks for.
pub const HYBRID: Method = Method::Hybrid(PlanOrdering::ErrorBased);

/// The three methods, in the order requests cycle through them.
pub const METHODS: [Method; 3] = [Method::PlanLevel, Method::OperatorLevel, HYBRID];

/// Method of request `i`: plan, operator, hybrid, plan, …
pub fn method_of(i: u64) -> Method {
    METHODS[(i % 3) as usize]
}

/// Index (into `serving::TENANTS`) of the tenant of request `i`: three
/// `gold` requests to one `bronze`.
pub fn tenant_index(i: u64) -> usize {
    usize::from(i % 4 == 3)
}

/// Tenant of request `i`.
pub fn tenant_of(i: u64) -> &'static str {
    ["gold", "bronze"][tenant_index(i)]
}

/// Blocks until `due`, sleeping while far away and spinning for the last
/// stretch (a sleep alone overshoots by the timer slack). Returns how
/// late the caller is at return — what `client.gen_late_*` reports.
pub fn wait_until(due: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let remaining = due - now;
        if remaining > SPIN {
            std::thread::sleep(remaining - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open-loop latency: measured **from the due time**, so a generator
/// that falls behind charges its delay to the requests it delayed
/// instead of hiding it (no coordinated omission).
pub fn latency_from_due(due: Instant, completed: Instant) -> Duration {
    completed.saturating_duration_since(due)
}
