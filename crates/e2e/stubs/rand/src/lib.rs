//! Offline stand-in for the `rand` 0.8 API surface this workspace uses.
//!
//! The benchmark must build in a checkout with no registry access, so
//! `stubs/offline.toml` patches crates.io's `rand` with this crate. It is
//! API-compatible, NOT stream-compatible: `StdRng` here is xoshiro256++
//! seeded through SplitMix64, so seeded values differ from the published
//! crate. Everything the benchmark reports is produced under this
//! generator on both sides of any comparison.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Generators constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Deterministic generator for `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// A value uniform over `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// 53 random mantissa bits mapped onto `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types uniform ranges are defined over.
pub trait SampleUniform: Sized {
    /// Uniform over `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform over `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                low + (high - low) * unit_f64(rng.next_u64()) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                low + (high - low) * unit_f64(rng.next_u64()) as $t
            }
        }
    )*};
}
uniform_float!(f32, f64);

pub mod distributions {
    //! The `Distribution` trait and the `Standard` distribution.
    use super::{unit_f64, RngCore};

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        /// One draw.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform over a type's natural domain (`[0, 1)` for floats).
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng.next_u64())
        }
    }
    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod rngs {
    //! Concrete generators.
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), state filled by SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
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
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

pub mod seq {
    //! Slice helpers.
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    //! The usual glob import.
    pub use super::distributions::Distribution;
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
