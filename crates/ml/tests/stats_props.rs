//! Property test for the streaming mean the drift monitor calibrates
//! with: a single-pass Welford accumulator must match the two-pass mean
//! within 1e-9.

use ml::stats::{mean, Welford};
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
    });
}
