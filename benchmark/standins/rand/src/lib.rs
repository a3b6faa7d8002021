//! Offline stand-in for the part of `rand` 0.8 that the UniAsk crates
//! call: `RngCore`, `SeedableRng::{from_seed, seed_from_u64}`,
//! `Rng::{gen, gen_range, gen_bool}` and `seq::SliceRandom::{choose,
//! shuffle}`.
//!
//! The sandbox that runs the benchmark has no crate registry, so the
//! benchmark package patches `crates-io` with this directory. The
//! sampling algorithms follow the published 0.8.5 ones (PCG32 seed
//! expansion, widening-multiply integer ranges with the same rejection
//! zone, 53/24-bit floats) so that generated corpora stay close to what
//! the real crate would produce, but nothing here was compared against
//! it: treat streams as stable for this benchmark only.

use core::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let bytes = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($ty:ty => $next:ident),*) => {$(
        impl Standard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$next() as $ty
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
              i64 => next_u64, isize => next_u64);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let lo = u128::from(rng.next_u64());
        let hi = u128::from(rng.next_u64());
        (hi << 64) | lo
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `low..=high`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `low..high`.
    fn sample_exclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty);*) => {$(
        impl SampleUniform for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    return <$ty as Standard>::sample(rng);
                }
                let zone = if <$unsigned>::MAX as u128 <= u16::MAX as u128 {
                    let max = <$large>::MAX;
                    max - (max - range + 1) % range
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as Standard>::sample(rng);
                    let wide = (v as $wide) * (range as $wide);
                    let hi = (wide >> <$large>::BITS) as $large;
                    let lo = wide as $large;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
            fn sample_exclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }
        }
    )*};
}
uniform_int!(u8, u8, u32, u64; u16, u16, u32, u64; u32, u32, u32, u64;
             u64, u64, u64, u128; usize, usize, u64, u128;
             i8, u8, u32, u64; i16, u16, u32, u64; i32, u32, u32, u64;
             i64, u64, u64, u128; isize, usize, u64, u128);

macro_rules! uniform_float {
    ($($ty:ty, $bits:ty, $next:ident, $discard:expr, $exp_one:expr);*) => {$(
        impl SampleUniform for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: low > high");
                let max_rand = 1.0 - <$ty>::EPSILON;
                let mut scale = (high - low) / max_rand;
                while scale * max_rand + low > high {
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
                let value1_2 = <$ty>::from_bits((rng.$next() >> $discard) as $bits | $exp_one);
                (value1_2 - 1.0) * scale + low
            }
            fn sample_exclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                let mut scale = high - low;
                assert!(scale.is_finite(), "gen_range: range overflow");
                loop {
                    let value1_2 =
                        <$ty>::from_bits((rng.$next() >> $discard) as $bits | $exp_one);
                    let res = (value1_2 - 1.0) * scale + low;
                    if res < high {
                        return res;
                    }
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
            }
        }
    )*};
}
uniform_float!(f64, u64, next_u64, 12, 1023u64 << 52; f32, u32, next_u32, 9, 127u32 << 23);

/// Range arguments of `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// User-level sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        if p == 1.0 {
            return true;
        }
        let p_int = (p * (2.0f64).powi(64)) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        type Item;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[gen_index(rng, self.len())])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }
    }
}

pub mod prelude {
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
