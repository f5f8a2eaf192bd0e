//! # mif-rng — a dependency-free seeded PRNG
//!
//! Everything in this repository that needs randomness — workload
//! generators, fault-injection plans, property-style tests — must be
//! *replayable from a printed `u64` seed*. This crate provides exactly
//! that: a small, fast, deterministic generator (xoshiro256++ seeded via
//! SplitMix64) with the few sampling helpers the repo uses, and no
//! external dependencies, so the workspace builds hermetically without
//! registry access.
//!
//! The API deliberately mirrors the subset of the `rand` crate the code
//! base historically used (`SmallRng::seed_from_u64`, `gen_range`,
//! `gen::<f64>()`, `shuffle`), so call sites read identically.
//!
//! Determinism guarantee: for a given crate version, the same seed and
//! the same call sequence produce the same values on every platform.
//! Failure messages that print a seed are therefore sufficient to
//! reproduce a run exactly.
//!
//! It also carries [`IdHasher`] / [`IdMap`], the one integer hasher the
//! crates above it share, since this is the lowest crate they all depend on.

mod hash;

pub use hash::{IdHasher, IdMap};

/// A small, fast, seedable PRNG (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Create a generator from a 64-bit seed. The full 256-bit state is
    /// derived with SplitMix64, so nearby seeds give unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `range` (`a..b` or `a..=b`). Panics on an empty
    /// range, like `rand`.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A value of `T` from its "standard" distribution (`f64`/`f32` in
    /// `[0, 1)`, integers uniform over their domain, `bool` fair coin).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's unbiased method.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection-free in the common case; retry only on the biased
        // sliver, which keeps the stream deterministic and unbiased.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types sampleable from their standard distribution via [`SmallRng::gen`].
pub trait Standard: Sized {
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut SmallRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait UniformRange {
    type Output;
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_uniform_range {
    ($($t:ty),*) => {$(
        impl UniformRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl UniformRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.bounded_u64(span + 1) as i128) as $t
            }
        }
    )*};
}
impl_uniform_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// In-place Fisher–Yates shuffling of slices.
pub trait SliceRandom {
    fn shuffle(&mut self, rng: &mut SmallRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut SmallRng) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(3usize..=7);
            assert!((3..=7).contains(&y));
            let z = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values hit: {seen:?}");
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SmallRng::seed_from_u64(17);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = SmallRng::seed_from_u64(19);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..1000 {
            match rng.gen_range(0u8..=3) {
                0 => lo = true,
                3 => hi = true,
                _ => {}
            }
        }
        assert!(lo && hi);
    }
}
