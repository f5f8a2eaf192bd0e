//! Order statistics over raw samples, and the epoch splitter.
//!
//! Percentiles are exact (nearest-rank on the sorted samples): the log
//! buckets of `mif_bench::hist` are 14-25 % apart, wider than any bound
//! this benchmark sets.

use std::ops::Range;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-quantile (0 < p <= 1) of `sorted` by nearest rank: the smallest
/// sample with at least `p` of the samples at or below it. `None` when
/// `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p <= 1.0, "percentile needs 0 < p <= 1");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// A tail percentile, reported only when at least [`TAIL_SAMPLES`] samples
/// lie beyond it; fewer say nothing about the tail.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    (sorted.len() >= rank + TAIL_SAMPLES)
        .then(|| percentile(sorted, p))
        .flatten()
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile of unsorted `values` by nearest rank.
fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The value of the fast decile of `values`: the 90th percentile when higher
/// is better, the 10th when lower is. Interference from other tenants of the
/// host only ever slows an epoch down, for seconds at a time and by up to a
/// quarter, so the median epoch moves with the neighbours while the fast
/// decile stays with the program.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    if higher_is_better {
        // The same rank counted from the top.
        let negated: Vec<f64> = values.iter().map(|v| -v).collect();
        -quantile(&negated, 0.1)
    } else {
        quantile(values, 0.1)
    }
}

/// The lower quartile of `values`, for the latencies of the closed loop.
/// Interference mostly lengthens them, but a slowed driver shortens the
/// queue and with it the latency, so a few epochs can also read far too
/// low: the lower quartile is out of reach of both.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Run `make` `times` times; return what it made last and the seconds the
/// fastest run took. For set-up steps of a millisecond, where one timing
/// says more about the host than about the step.
pub fn fastest_of<T>(times: usize, mut make: impl FnMut() -> T) -> (T, f64) {
    assert!(times > 0, "at least one run");
    let mut fastest = f64::INFINITY;
    let mut made = None;
    for _ in 0..times {
        let start = std::time::Instant::now();
        made = Some(make());
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    (made.expect("times > 0"), fastest)
}

/// Cut `n` consecutive items into `k` epochs whose sizes differ by at most
/// one, in order. Fewer than `k` items give fewer (single-item) epochs.
pub fn split_epochs(n: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "at least one epoch");
    let k = k.min(n);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[7], 1.0), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank_and_stable_under_ties() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        let ties = [5, 5, 5, 5, 9];
        assert_eq!(percentile(&ties, 0.5), Some(5));
        assert_eq!(percentile(&ties, 0.8), Some(5));
        assert_eq!(percentile(&ties, 0.81), Some(9));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has rank 990: exactly ten lie beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990));
        // One sample fewer leaves nine beyond rank 990: omitted.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&[1, 2, 3], 0.99), None);
        // The median of 21 samples has ten beyond it.
        let w: Vec<u64> = (1..=21).collect();
        assert_eq!(tail_percentile(&w, 0.5), Some(11));
        assert_eq!(tail_percentile(&w[..20], 0.5), Some(10));
        assert_eq!(tail_percentile(&w[..19], 0.5), None);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_fast_decile_is_near_the_best_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fast_decile(&v, true), 19.0);
        assert_eq!(fast_decile(&v, false), 2.0);
        assert_eq!(fast_decile(&[5.0, 3.0, 4.0], true), 5.0);
        assert_eq!(fast_decile(&[5.0, 3.0, 4.0], false), 3.0);
        assert_eq!(fast_decile(&[7.0], true), 7.0);
        assert_eq!(lower_quartile(&v), 5.0);
        assert_eq!(lower_quartile(&[9.0, 1.0, 5.0]), 1.0);
    }

    #[test]
    fn epochs_cover_everything_in_order_with_equal_sizes() {
        assert_eq!(split_epochs(10, 5), vec![0..2, 2..4, 4..6, 6..8, 8..10]);
        let e = split_epochs(13, 5);
        assert_eq!(e.first().unwrap().start, 0);
        assert_eq!(e.last().unwrap().end, 13);
        assert!(e.windows(2).all(|w| w[0].end == w[1].start));
        let sizes: Vec<usize> = e.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 13);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Fewer items than epochs: one item each, none empty.
        assert_eq!(split_epochs(3, 5), vec![0..1, 1..2, 2..3]);
        assert!(split_epochs(0, 5).is_empty());
    }
}
