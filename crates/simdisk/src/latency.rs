//! Per-command service-time distribution.
//!
//! Throughput alone hides the fragmentation story's other half: a
//! fragmented placement turns a stream of ~100 µs transfers into a stream
//! of multi-millisecond positionings. The histogram records every
//! dispatched command's service time in logarithmic buckets so benches can
//! report p50/p95/p99 alongside MiB/s.

use crate::Nanos;

/// Logarithmic histogram of service times: bucket 0 catches everything
/// below 1 µs, bucket `i ≥ 1` covers `[2^(i-1) µs, 2^i µs)`, and the last
/// bucket (31) also takes everything from `2^30 µs` (~18 min) up.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    total_ns: Nanos,
    max_ns: Nanos,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: Nanos) -> usize {
        let us = ns / 1_000;
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(31)
        }
    }

    /// Record one command's service time.
    pub fn record(&mut self, ns: Nanos) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean service time in ns (0 for an empty histogram).
    pub fn mean_ns(&self) -> Nanos {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    pub fn max_ns(&self) -> Nanos {
        self.max_ns
    }

    /// Approximate percentile (upper bucket bound), `q` in 0.0–1.0.
    pub fn percentile_ns(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Exclusive upper bound of bucket i: 2^i µs (bucket 0: 1 µs).
                return (1u64 << i) * 1_000;
            }
        }
        self.max_ns
    }

    /// Merge another histogram into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_means() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000); // 1 ms
        h.record(3_000_000); // 3 ms
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_ns(), 2_000_000);
        assert_eq!(h.max_ns(), 3_000_000);
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100_000); // 100 µs
        }
        h.record(10_000_000); // one 10 ms straggler
        let p50 = h.percentile_ns(0.50);
        let p99 = h.percentile_ns(0.99);
        let p999 = h.percentile_ns(0.999);
        assert!((100_000..10_000_000).contains(&p50), "p50 {p50}");
        assert!(p99 < 10_000_000, "p99 {p99}");
        assert!(p999 >= 8_000_000, "p99.9 {p999}");
    }

    #[test]
    fn sub_microsecond_lands_in_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        assert_eq!(h.percentile_ns(1.0), 1_000);
    }

    #[test]
    fn bucket_boundaries() {
        let upper = |ns| {
            let mut h = LatencyHistogram::new();
            h.record(ns);
            h.percentile_ns(1.0)
        };
        assert_eq!(LatencyHistogram::bucket_of(999), 0);
        assert_eq!(upper(999), 1_000);
        assert_eq!(LatencyHistogram::bucket_of(1_000), 1);
        assert_eq!(upper(1_000), 2_000);
        assert_eq!(upper(1_999), 2_000);
        assert_eq!(LatencyHistogram::bucket_of(2_000), 2);
        assert_eq!(upper(2_000), 4_000);
        // Bucket 31 saturates: 2^30 µs and everything beyond share it.
        let top = (1u64 << 30) * 1_000;
        assert_eq!(LatencyHistogram::bucket_of(top - 1), 30);
        assert_eq!(LatencyHistogram::bucket_of(top), 31);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 31);
        assert_eq!(upper(u64::MAX / 2), (1u64 << 31) * 1_000);
    }

    #[test]
    fn absorb_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(1_000_000);
        b.record(5_000_000);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 5_000_000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.percentile_ns(0.99), 0);
    }
}
