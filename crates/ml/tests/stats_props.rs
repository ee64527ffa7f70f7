//! Property tests for the streaming residual statistics: a single-pass
//! Welford accumulator (including arbitrary merge splits) must match the
//! two-pass mean/variance computation within 1e-9, and the rolling window
//! must always equal the mean of the last `cap` values.

use ml::stats::{mean, variance, RollingWindow, Welford};
use rng::StdRng;

const CASES: u64 = 96;

fn floats(rng: &mut StdRng, len: std::ops::Range<usize>, bound: f64) -> Vec<f64> {
    (0..rng.gen_range(len))
        .map(|_| rng.gen_range(-bound..bound))
        .collect()
}

#[test]
fn welford_matches_two_pass_within_1e9() {
    rng::cases(CASES, |rng| {
        let xs = floats(rng, 0..256, 1e6);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), xs.len() as u64);
        // Tolerance scales with the data's magnitude: Welford is stable,
        // but both sides carry round-off proportional to the values.
        let scale = xs.iter().fold(1.0f64, |a, x| a.max(x.abs()));
        assert!((w.mean() - mean(&xs)).abs() <= 1e-9 * scale);
        assert!((w.variance() - variance(&xs)).abs() <= 1e-9 * scale * scale);
    });
}

#[test]
fn welford_merge_matches_sequential() {
    rng::cases(CASES, |rng| {
        let xs = floats(rng, 2..128, 1e4);
        let split_frac = rng.gen_range(0.0f64..1.0);
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        let scale = xs.iter().fold(1.0f64, |a, x| a.max(x.abs()));
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() <= 1e-9 * scale);
        assert!((left.variance() - all.variance()).abs() <= 1e-9 * scale * scale);
    });
}

#[test]
fn rolling_window_mean_matches_tail() {
    rng::cases(CASES, |rng| {
        let xs = floats(rng, 1..128, 1e6);
        let cap = rng.gen_range(1usize..32);
        let mut w = RollingWindow::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail_start = xs.len().saturating_sub(cap);
        let tail = &xs[tail_start..];
        assert_eq!(w.len(), tail.len());
        assert!(w.is_full() == (xs.len() >= cap));
        let scale = tail.iter().fold(1.0f64, |a, x| a.max(x.abs()));
        assert!((w.mean() - mean(tail)).abs() <= 1e-9 * scale);
    });
}
