//! Admission control: queue-depth shedding plus token-bucket rate limiting.
//!
//! Both mechanisms run *before* a request touches the queue, on the
//! submitting thread, so rejection cost stays O(1) no matter how far gone
//! the overload is. Time is passed in explicitly (seconds since an
//! arbitrary epoch) rather than read from a clock, which makes every
//! admission decision a pure function of (config, arrival times) — the
//! overload tests replay seeded [`engine::faults::ArrivalPattern`] streams
//! and assert exact shed counts.

/// Token-bucket parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, requests per second.
    pub rate: f64,
    /// Burst allowance: the bucket's capacity in tokens.
    pub burst: f64,
}

/// A token bucket over explicit (virtual) time.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// A bucket that starts full, so an initial burst up to `burst` is
    /// admitted before sustained-rate policing kicks in.
    pub(crate) fn new(limit: RateLimit) -> TokenBucket {
        let rate = limit.rate.max(0.0);
        let burst = limit.burst.max(1.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    /// Takes one token at time `now_secs` if available. Time may not run
    /// backwards; a stale `now_secs` refills nothing but still spends.
    pub(crate) fn try_acquire(&mut self, now_secs: f64) -> bool {
        if now_secs > self.last {
            self.tokens = (self.tokens + (now_secs - self.last) * self.rate).min(self.burst);
            self.last = now_secs;
        }
        // The refill accumulates one multiply-add of rounding error per
        // arrival; without the epsilon, a token that exact arithmetic
        // says is there gets denied (e.g. four 0.25-token refills summing
        // to 0.999...), skewing steady-state admission below `rate`.
        if self.tokens >= 1.0 - 1e-9 {
            self.tokens = (self.tokens - 1.0).max(0.0);
            true
        } else {
            false
        }
    }
}

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket was empty: arrivals exceed the configured rate.
    RateLimited,
    /// The queue depth reached the shedding threshold: the backlog is
    /// already longer than the service capacity can clear in time.
    QueueFull,
    /// The queue was closed (server shutdown) or the tenant's lane was
    /// removed between admission and the push. Recorded so a request that
    /// was already counted `submitted` still lands exactly once in the
    /// ledger — otherwise shutdown reconciliation could never balance.
    Shutdown,
}

/// The serving front door: queue-depth shedding first, then the rate
/// limit, so a request the queue already doomed spends no token.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    bucket: Option<TokenBucket>,
    shed_depth: usize,
}

impl AdmissionController {
    /// `rate: None` disables rate limiting; `shed_depth` is the queue
    /// depth at which load shedding starts (inclusive).
    pub fn new(rate: Option<RateLimit>, shed_depth: usize) -> AdmissionController {
        AdmissionController {
            bucket: rate.map(TokenBucket::new),
            shed_depth: shed_depth.max(1),
        }
    }

    /// Admission decision for a request arriving at `now_secs` with the
    /// queue at `queue_depth`.
    pub fn admit(&mut self, now_secs: f64, queue_depth: usize) -> Result<(), ShedReason> {
        self.admit_depth(queue_depth)?;
        self.admit_rate(now_secs)
    }

    /// The depth half of [`AdmissionController::admit`]: spends nothing.
    pub(crate) fn admit_depth(&self, queue_depth: usize) -> Result<(), ShedReason> {
        if queue_depth >= self.shed_depth {
            return Err(ShedReason::QueueFull);
        }
        Ok(())
    }

    /// The rate half of [`AdmissionController::admit`]: takes one token.
    pub(crate) fn admit_rate(&mut self, now_secs: f64) -> Result<(), ShedReason> {
        if let Some(bucket) = &mut self.bucket {
            if !bucket.try_acquire(now_secs) {
                return Err(ShedReason::RateLimited);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::faults::ArrivalPattern;

    #[test]
    fn bucket_admits_burst_then_polices_sustained_rate() {
        let mut b = TokenBucket::new(RateLimit {
            rate: 10.0,
            burst: 3.0,
        });
        // Initial burst of 3 at t=0, fourth is refused.
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(0.0));
        assert!(!b.try_acquire(0.0));
        // 0.1 s refills exactly one token at 10/s.
        assert!(b.try_acquire(0.1));
        assert!(!b.try_acquire(0.1));
        // A long idle period refills to burst, not beyond.
        assert!(b.try_acquire(100.0));
        assert!(b.try_acquire(100.0));
        assert!(b.try_acquire(100.0));
        assert!(!b.try_acquire(100.0));
    }

    #[test]
    fn steady_overload_sheds_the_exact_excess_fraction() {
        // Arrivals at 4x the admitted rate: after the initial burst, every
        // 4th request gets the one token refilled between arrivals.
        let rate = 100.0;
        let arrivals = ArrivalPattern::Steady.arrival_offsets(4000, 4.0 * rate);
        let mut ctl = AdmissionController::new(
            Some(RateLimit {
                rate,
                burst: 1.0,
            }),
            usize::MAX >> 1,
        );
        let shed = arrivals
            .iter()
            .filter(|t| ctl.admit(**t, 0).is_err())
            .count();
        let frac = shed as f64 / arrivals.len() as f64;
        assert!(
            (frac - 0.75).abs() < 0.01,
            "expected ~75% shed at 4x overload, got {frac}"
        );
        // Determinism: replaying the same stream sheds identically.
        let mut ctl2 = AdmissionController::new(
            Some(RateLimit {
                rate,
                burst: 1.0,
            }),
            usize::MAX >> 1,
        );
        let shed2 = arrivals
            .iter()
            .filter(|t| ctl2.admit(**t, 0).is_err())
            .count();
        assert_eq!(shed, shed2);
    }

    #[test]
    fn bursty_overload_sheds_more_than_steady_at_equal_mean_rate() {
        let rate = 200.0;
        let limit = RateLimit {
            rate,
            burst: 4.0,
        };
        let n = 2048;
        let count_shed = |arrivals: &[f64]| {
            let mut ctl = AdmissionController::new(Some(limit), usize::MAX >> 1);
            arrivals
                .iter()
                .filter(|t| ctl.admit(**t, 0).is_err())
                .count()
        };
        let steady = count_shed(&ArrivalPattern::Steady.arrival_offsets(n, 2.0 * rate));
        let bursty = count_shed(
            &ArrivalPattern::Bursty { burst: 128, seed: 5 }.arrival_offsets(n, 2.0 * rate),
        );
        // Same mean arrival rate, but bursts exhaust the bucket instantly.
        assert!(
            bursty >= steady,
            "bursty shed {bursty} < steady shed {steady}"
        );
        assert!(bursty > n / 3, "bursty overload must shed substantially");
    }

    #[test]
    fn queue_depth_shedding_trips_at_threshold() {
        let mut ctl = AdmissionController::new(None, 8);
        assert_eq!(ctl.admit(0.0, 7), Ok(()));
        assert_eq!(ctl.admit(0.0, 8), Err(ShedReason::QueueFull));
        assert_eq!(ctl.admit(0.0, 9000), Err(ShedReason::QueueFull));
        // Depth check wins over rate limiting: no token is spent on a
        // request that the queue already doomed.
        let mut both = AdmissionController::new(
            Some(RateLimit {
                rate: 1.0,
                burst: 1.0,
            }),
            4,
        );
        assert_eq!(both.admit(0.0, 4), Err(ShedReason::QueueFull));
        assert_eq!(both.admit(0.0, 0), Ok(()), "token survived the doomed request");
    }

    /// The bucket never admits more than `burst + rate * elapsed` requests
    /// over any prefix of a monotone arrival stream, and replaying the
    /// stream reproduces every decision bit-for-bit.
    #[test]
    fn token_bucket_caps_admissions_and_replays() {
        rng::cases(64, |rng| {
            let rate = rng.gen_range(0.5f64..200.0);
            let burst = rng.gen_range(1.0f64..32.0);
            let gaps: Vec<f64> = (0..rng.gen_range(1usize..256))
                .map(|_| rng.gen_range(0.0f64..0.5))
                .collect();
            let limit = RateLimit { rate, burst };
            let mut bucket = TokenBucket::new(limit);
            let mut now = 0.0;
            let mut accepted = 0u64;
            let mut decisions = Vec::with_capacity(gaps.len());
            for &g in &gaps {
                now += g;
                let ok = bucket.try_acquire(now);
                decisions.push(ok);
                if ok {
                    accepted += 1;
                    // The cap holds at every prefix, not just the end.
                    assert!(
                        accepted as f64 <= burst + rate * now + 1.0 + 1e-6,
                        "admitted {} by t={} with rate {} burst {}",
                        accepted,
                        now,
                        rate,
                        burst
                    );
                }
            }
            let mut replay = TokenBucket::new(limit);
            let mut now = 0.0;
            for (i, &g) in gaps.iter().enumerate() {
                now += g;
                assert_eq!(replay.try_acquire(now), decisions[i]);
            }
        });
    }
}
