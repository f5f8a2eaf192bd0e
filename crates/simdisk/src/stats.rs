//! Per-disk operation statistics.
//!
//! The paper's Figure 8 reports *disk access counts* captured "by
//! intercepting the disk access in the general block layer in the kernel" —
//! i.e. after scheduler merging. [`DiskStats::dispatched`] is that number;
//! [`DiskStats::submitted`] counts requests before merging.

use crate::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated by a [`crate::Disk`] over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Requests handed to the scheduler (before merging).
    pub submitted: u64,
    /// Disk commands actually dispatched to the platter (after merging and
    /// cache hits are removed). This is the paper's "disk access count".
    pub dispatched: u64,
    /// Requests fully satisfied from the block cache / readahead window.
    pub cache_hits: u64,
    /// Dispatched commands that required head repositioning.
    pub seeks: u64,
    /// Total cylinder distance travelled by the head.
    pub seek_distance_cyl: u64,
    /// Bytes read from the platter (including readahead overshoot).
    pub bytes_read: u64,
    /// Bytes written to the platter.
    pub bytes_written: u64,
    /// Total simulated time the disk spent busy, in ns.
    pub busy_ns: Nanos,
}

impl DiskStats {
    /// Total bytes moved to/from the platter.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Fraction of dispatched commands that needed a head reposition.
    pub fn seek_ratio(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.seeks as f64 / self.dispatched as f64
        }
    }

    /// Merge another stats block into this one (totals over a set of disks).
    pub fn absorb(&mut self, other: &DiskStats) {
        self.submitted += other.submitted;
        self.dispatched += other.dispatched;
        self.cache_hits += other.cache_hits;
        self.seeks += other.seeks;
        self.seek_distance_cyl += other.seek_distance_cyl;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.busy_ns += other.busy_ns;
    }

    /// Difference since an earlier snapshot of the same counter set.
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        debug_assert!(self.busy_ns >= earlier.busy_ns);
        DiskStats {
            submitted: self.submitted - earlier.submitted,
            dispatched: self.dispatched - earlier.dispatched,
            cache_hits: self.cache_hits - earlier.cache_hits,
            seeks: self.seeks - earlier.seeks,
            seek_distance_cyl: self.seek_distance_cyl - earlier.seek_distance_cyl,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Lock-free atomic counterpart of [`DiskStats`], for aggregation points
/// shared between threads (the concurrent engine's IO counters). Threads
/// [`add`](SharedDiskStats::add) per-round deltas; readers take a
/// [`snapshot`](SharedDiskStats::snapshot) at any time. Each field is
/// monotone, so relaxed ordering is sufficient: totals are exact once the
/// writers are quiescent.
#[derive(Debug, Default)]
pub struct SharedDiskStats {
    submitted: AtomicU64,
    dispatched: AtomicU64,
    cache_hits: AtomicU64,
    seeks: AtomicU64,
    seek_distance_cyl: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    busy_ns: AtomicU64,
}

impl SharedDiskStats {
    /// Accumulate a delta (typically `later.since(&earlier)` around one
    /// batch submission).
    pub fn add(&self, delta: &DiskStats) {
        self.submitted.fetch_add(delta.submitted, Ordering::Relaxed);
        self.dispatched
            .fetch_add(delta.dispatched, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(delta.cache_hits, Ordering::Relaxed);
        self.seeks.fetch_add(delta.seeks, Ordering::Relaxed);
        self.seek_distance_cyl
            .fetch_add(delta.seek_distance_cyl, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(delta.bytes_read, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(delta.bytes_written, Ordering::Relaxed);
        self.busy_ns.fetch_add(delta.busy_ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters as a plain [`DiskStats`].
    pub fn snapshot(&self) -> DiskStats {
        DiskStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            seek_distance_cyl: self.seek_distance_cyl.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fields() {
        let mut a = DiskStats {
            dispatched: 3,
            busy_ns: 10,
            ..Default::default()
        };
        let b = DiskStats {
            dispatched: 2,
            busy_ns: 5,
            seeks: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.dispatched, 5);
        assert_eq!(a.busy_ns, 15);
        assert_eq!(a.seeks, 1);
    }

    #[test]
    fn since_subtracts() {
        let early = DiskStats {
            dispatched: 2,
            busy_ns: 5,
            ..Default::default()
        };
        let late = DiskStats {
            dispatched: 7,
            busy_ns: 25,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.dispatched, 5);
        assert_eq!(d.busy_ns, 20);
    }

    #[test]
    fn seek_ratio_handles_idle_disk() {
        assert_eq!(DiskStats::default().seek_ratio(), 0.0);
    }

    /// Regression for the concurrency fix: deltas added from many threads
    /// are counted exactly — no update lost, no double count.
    #[test]
    fn shared_stats_concurrent_adds_are_exact() {
        const THREADS: u64 = 8;
        const ADDS: u64 = 1000;
        let shared = std::sync::Arc::new(SharedDiskStats::default());
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let shared = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    let delta = DiskStats {
                        submitted: 1,
                        dispatched: 2,
                        bytes_written: 4096,
                        busy_ns: 7,
                        ..Default::default()
                    };
                    for _ in 0..ADDS {
                        shared.add(&delta);
                    }
                });
            }
        });
        let total = shared.snapshot();
        assert_eq!(total.submitted, THREADS * ADDS);
        assert_eq!(total.dispatched, 2 * THREADS * ADDS);
        assert_eq!(total.bytes_written, 4096 * THREADS * ADDS);
        assert_eq!(total.busy_ns, 7 * THREADS * ADDS);
    }
}
