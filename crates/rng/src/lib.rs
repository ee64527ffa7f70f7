//! The workspace's one source of randomness, and the seeded runner its
//! property tests draw their cases from.
//!
//! [`StdRng`] is xoshiro256++ (Blackman & Vigna) with its state filled by
//! SplitMix64. Every sampling rule is fixed here and pinned by the golden
//! tests below, because every seeded number this repository reports (the
//! `mre_*` of the benchmark, the EXPERIMENTS.md tables) is a function of
//! this stream:
//!
//! - unit floats take the top 53 bits of a word: `(w >> 11) * 2^-53`, in
//!   `[0, 1)`;
//! - an integer range of `span` values maps a word `w` to
//!   `low + ((w * span) >> 64)`, half-open or inclusive alike (one word per
//!   draw, no rejection);
//! - a float range is `low + (high - low) * unit`, for both range kinds;
//! - [`StdRng::shuffle`] is the descending Fisher–Yates: for `i` from the
//!   last index down to 1, swap `i` with `gen_range(0..=i)`;
//! - [`StdRng::normal`] is Box–Muller on two words, each mapped to
//!   `((w >> 11) + 1) * 2^-53` in `(0, 1]` so the logarithm is finite.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The seeded generator. Equal seeds give equal streams on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Deterministic generator for `seed`.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform over `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * UNIT
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A value uniform over `range` (half-open or inclusive).
    ///
    /// # Panics
    /// On an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_range(0..=i));
        }
    }

    /// A draw from `N(mean, std_dev²)`.
    ///
    /// # Panics
    /// When `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "standard deviation must be finite and non-negative"
        );
        let u1 = ((self.next_u64() >> 11) as f64 + 1.0) * UNIT;
        let u2 = ((self.next_u64() >> 11) as f64 + 1.0) * UNIT;
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// A draw from the log-normal distribution `exp(N(mu, sigma²))`.
    ///
    /// # Panics
    /// When `sigma` is negative or not finite.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

/// Ranges [`StdRng::gen_range`] accepts: `low..high` and `low..=high`.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

/// Number types [`StdRng::gen_range`] draws.
pub trait SampleUniform: PartialOrd + Sized {
    /// Uniform over `[low, high)`, or over `[low, high]` when `inclusive`;
    /// the range is not empty.
    fn sample_between(low: Self, high: Self, inclusive: bool, rng: &mut StdRng) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range: empty range");
        T::sample_between(low, high, true, rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between(low: $t, high: $t, inclusive: bool, rng: &mut StdRng) -> $t {
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between(low: f64, high: f64, _inclusive: bool, rng: &mut StdRng) -> f64 {
        low + (high - low) * rng.gen_f64()
    }
}

/// Seed of the first case [`cases`] runs.
const FIRST_CASE_SEED: u64 = 0x5EED_0000;

/// Runs `property` on `n` generators, case `i` seeded with
/// `0x5EED_0000 + i`. A panicking case is re-raised with its seed in the
/// message; to replay it alone, call the property from a `#[test]` with
/// `StdRng::seed_from_u64(that seed)`.
pub fn cases(n: u64, property: impl Fn(&mut StdRng)) {
    for seed in FIRST_CASE_SEED..FIRST_CASE_SEED + n {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            property(&mut StdRng::seed_from_u64(seed))
        }));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a panic that carried no message");
            panic!("case with seed {seed:#x} failed: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The values below were read from `crates/e2e/stubs/rand` (and
    // `rand_distr`) at seed 42 before this crate replaced them: the stream
    // every benchmark number has come from since PR 14 must not move.

    #[test]
    fn seed_42_words_are_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
            ]
        );
    }

    #[test]
    fn seed_42_ranges_are_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(rng.gen_range(0..1000usize), 814);
        assert_eq!(rng.gen_range(-5..=5i32), -2);
        assert_eq!(rng.gen_range(0.5..2.5f64).to_bits(), 0x4003_be07_cfb0_c24e);
        assert_eq!(
            rng.gen_range(-1.0..=1.0f64).to_bits(),
            0x3fd9_becf_b006_6c18
        );
        assert_eq!(rng.gen_f64().to_bits(), 0x3fe9_6463_870e_908d);

        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(rng.gen_range(0.5..2.5f64).to_bits(), 0x4001_0764_d4f4_4766);
    }

    #[test]
    fn seed_42_shuffle_is_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut items: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [5, 3, 1, 0, 9, 6, 4, 7, 2, 8]);
    }

    #[test]
    fn seed_42_normal_draws_are_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(rng.normal(1.0, 2.0).to_bits(), 0x3fdd_9e46_1259_0d16);
        assert_eq!(rng.log_normal(0.0, 0.25).to_bits(), 0x3fef_9137_a58c_fda6);
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3..9u8)));
            assert!((-4..=4).contains(&rng.gen_range(-4..=4i64)));
            assert!((0.25..0.75).contains(&rng.gen_range(0.25..0.75)));
        }
        assert_eq!(rng.gen_range(5..=5usize), 5);
        assert_eq!(rng.gen_range(u64::MAX - 1..=u64::MAX) | 1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        StdRng::seed_from_u64(1).gen_range(4..4usize);
    }

    #[test]
    fn cases_run_n_distinct_seeds() {
        let firsts = std::sync::Mutex::new(std::collections::BTreeSet::new());
        cases(32, |rng| {
            firsts.lock().unwrap().insert(rng.next_u64());
        });
        assert_eq!(firsts.lock().unwrap().len(), 32);
    }

    #[test]
    fn a_failing_case_names_its_seed() {
        let outcome = catch_unwind(|| {
            cases(8, |rng| {
                let seed_3 = StdRng::seed_from_u64(FIRST_CASE_SEED + 3).next_u64();
                assert_ne!(rng.next_u64(), seed_3, "the fourth case fails");
            })
        });
        let payload = outcome.expect_err("the fourth case panics");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("seed 0x5eed0003"), "{message}");
        assert!(message.contains("the fourth case fails"), "{message}");
    }
}
