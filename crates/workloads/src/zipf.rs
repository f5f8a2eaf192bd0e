//! Seeded Zipfian key-popularity generator.
//!
//! Service traffic over a large file population is never uniform: a few
//! files soak up most of the requests (the YCSB observation, and the load
//! model `mifbench`'s service workloads drive the front-end with).
//! [`ZipfGen`] draws keys in `0..n` with `P(rank k) ∝ 1 / (k+1)^theta`
//! using the Gray et al. quantile-inversion method popularized by YCSB's
//! `ZipfianGenerator`: an O(n) one-time zeta precomputation, then O(1)
//! per sample, fully determined by the seed.
//!
//! Keys are *ranks*: key 0 is the most popular. Callers that want the hot
//! keys scattered across their own id space should map ranks through a
//! fixed permutation; the benches deliberately keep rank order so the hot
//! set is obvious in dumps.

use mif_rng::SmallRng;

/// A seeded Zipf(θ) sampler over `0..n` (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct ZipfGen {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: SmallRng,
}

/// `zeta(n, theta) = Σ_{i=1..n} 1 / i^theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl ZipfGen {
    /// A sampler over `n` keys with skew `theta` in `(0, 1)` (YCSB's
    /// default 0.99 ≈ the classic web/storage trace skew; theta → 0 is
    /// uniform). Panics outside that range or for `n == 0`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "empty key population");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        ZipfGen {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of keys in the population.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next key in `0..n` (0 = most popular).
    pub fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The model probability of `rank` (for tests and reporting):
    /// `(1/(rank+1)^theta) / zeta(n, theta)`.
    pub fn expected_freq(&self, rank: u64) -> f64 {
        assert!(rank < self.n);
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Histogram of `samples` draws.
    fn histogram(gen: &mut ZipfGen, samples: u64) -> Vec<u64> {
        let mut counts = vec![0u64; gen.population() as usize];
        for _ in 0..samples {
            counts[gen.next_key() as usize] += 1;
        }
        counts
    }

    /// The pinned-distribution test the satellite asks for: a fixed seed
    /// must reproduce these exact head-rank counts forever (the generator
    /// is part of the bench's determinism contract), and every observed
    /// head frequency must sit within 5% relative error of the model.
    #[test]
    fn fixed_seed_distribution_is_pinned() {
        const SAMPLES: u64 = 100_000;
        let mut gen = ZipfGen::new(100, 0.99, 0xB7);
        let counts = histogram(&mut gen, SAMPLES);
        assert_eq!(counts.iter().sum::<u64>(), SAMPLES);

        // Exact counts for seed 0xB7 — a generator change that shifts the
        // stream shows up here first.
        assert_eq!(&counts[..5], &[18737, 9434, 7310, 5259, 4060]);

        // And the shape is genuinely Zipf: ranks 0 and 1 are handled
        // exactly by the inversion method (5% sampling tolerance); the
        // continuous approximation distorts the next few ranks by design
        // (YCSB's generator shares this), so they get a looser 16%.
        for rank in 0..10u64 {
            let observed = counts[rank as usize] as f64 / SAMPLES as f64;
            let expected = gen.expected_freq(rank);
            let rel = (observed - expected).abs() / expected;
            let tol = if rank < 2 { 0.05 } else { 0.16 };
            assert!(
                rel < tol,
                "rank {rank}: observed {observed:.4} vs model {expected:.4} ({rel:.3} off)"
            );
        }
    }

    #[test]
    fn rank_frequencies_decay_monotonically_in_the_head() {
        let mut gen = ZipfGen::new(1000, 0.99, 42);
        let counts = histogram(&mut gen, 200_000);
        for w in counts[..8].windows(2) {
            assert!(w[0] > w[1], "head of a Zipf must strictly decay: {w:?}");
        }
        // Long tail exists but is thin: the top 1% of keys draws the
        // majority of the traffic at theta = 0.99.
        let head: u64 = counts[..10].iter().sum();
        assert!(head * 2 > 200_000 * 45 / 100, "head too cold: {head}");
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = {
            let mut g = ZipfGen::new(64, 0.9, 7);
            (0..256).map(|_| g.next_key()).collect()
        };
        let b: Vec<u64> = {
            let mut g = ZipfGen::new(64, 0.9, 7);
            (0..256).map(|_| g.next_key()).collect()
        };
        let c: Vec<u64> = {
            let mut g = ZipfGen::new(64, 0.9, 8);
            (0..256).map(|_| g.next_key()).collect()
        };
        assert_eq!(a, b, "same seed must replay the same keys");
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn keys_stay_in_range_even_for_tiny_populations() {
        for n in [1u64, 2, 3] {
            let mut g = ZipfGen::new(n, 0.99, 1);
            for _ in 0..1000 {
                assert!(g.next_key() < n);
            }
        }
    }

    /// A second pinned seed: two independent fixed streams make a
    /// generator regression visible even if one stream happens to
    /// collide with a changed implementation.
    #[test]
    fn a_second_seed_pins_an_independent_distribution() {
        let mut gen = ZipfGen::new(100, 0.99, 0x5EED);
        let counts = histogram(&mut gen, 100_000);
        assert_eq!(&counts[..5], &[18680, 9492, 7437, 5206, 4053]);
    }

    /// theta → 1.0: the skew limit the constructor still accepts. The
    /// zeta/eta terms stay finite (1 - theta appears in two exponents
    /// and one divisor), keys stay in range, and the head is strictly
    /// hotter than at moderate skew.
    #[test]
    fn theta_near_one_is_finite_and_extra_skewed() {
        let mut g = ZipfGen::new(64, 0.9999, 0x5EED);
        let counts = histogram(&mut g, 100_000);
        assert_eq!(&counts[..4], &[20873, 10534, 8154, 5696]);
        assert!(g.expected_freq(0).is_finite());
        // More skew than theta = 0.5 by a wide margin at rank 0.
        let mut mild = ZipfGen::new(64, 0.5, 0x5EED);
        let mild_counts = histogram(&mut mild, 100_000);
        assert!(
            counts[0] > mild_counts[0] * 2,
            "{} vs {}",
            counts[0],
            mild_counts[0]
        );
        // The hottest half still leaves a live tail (not degenerate).
        assert!(counts[32..].iter().sum::<u64>() > 0);
    }

    /// The two boundary thetas are rejected, not silently degenerate:
    /// theta = 1 divides by zero in `alpha`, theta = 0 is uniform (a
    /// different generator's job).
    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn theta_of_exactly_one_is_rejected() {
        let _ = ZipfGen::new(64, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn theta_of_zero_is_rejected() {
        let _ = ZipfGen::new(64, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "empty key population")]
    fn empty_population_is_rejected() {
        let _ = ZipfGen::new(0, 0.99, 0);
    }

    /// Population of one: every draw must be rank 0 with model
    /// probability exactly 1 — the quantile inversion's `uz < 1.0` fast
    /// path always fires because `zetan == 1`.
    #[test]
    fn population_of_one_always_draws_rank_zero() {
        let mut g = ZipfGen::new(1, 0.9999, 0x5EED);
        for _ in 0..10_000 {
            assert_eq!(g.next_key(), 0);
        }
        assert_eq!(g.expected_freq(0), 1.0);
    }

    /// Populations smaller than the exactly-inverted head (ranks 0 and
    /// 1 take dedicated branches): `n = 1` must never emit the rank-1
    /// branch's key, and `n = 2` must emit both keys with the zeta(2)
    /// split rather than NaN-ing the eta term.
    #[test]
    fn populations_below_the_inverted_head_size_stay_exact() {
        let mut one = ZipfGen::new(1, 0.99, 9);
        assert!((0..5000).all(|_| one.next_key() == 0));

        let mut two = ZipfGen::new(2, 0.99, 9);
        let counts = histogram(&mut two, 50_000);
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
        assert!(counts[1] > 0, "rank 1 starved");
        assert!(counts[0] > counts[1], "rank 0 must dominate");
        // Both model frequencies are finite and sum to 1.
        let p0 = two.expected_freq(0);
        let p1 = two.expected_freq(1);
        assert!(p0.is_finite() && p1.is_finite());
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
    }
}
