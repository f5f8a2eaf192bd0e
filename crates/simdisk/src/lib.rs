//! # mif-simdisk — a mechanical disk and disk-array simulator
//!
//! The MiF paper ([Yi et al., ICPP 2011]) measures its allocation and
//! directory-placement techniques on a SAN testbed of fabric disks. The
//! entire effect the paper reports — fragmentation is "the disk performance
//! killer" — comes from the mechanics of rotating media: a discontiguous
//! request pays a head seek plus rotational latency, while a contiguous run
//! streams at media rate and adjacent requests get merged into one large
//! transfer by the I/O scheduler.
//!
//! This crate reproduces exactly that mechanism in simulation:
//!
//! * [`DiskGeometry`] — a parametric service-time model: seek curve
//!   `settle + k·√(cylinder distance)`, rotational latency from spindle RPM,
//!   and per-byte media transfer time;
//! * [`IoScheduler`] — request merging (adjacent LBAs coalesce, like the
//!   Linux elevator) plus C-LOOK dispatch ordering;
//! * [`Disk`] — head position + clock + statistics; services scheduled
//!   batches and charges simulated nanoseconds;
//! * readahead ([`Readahead`]) — a Linux-style window that doubles on
//!   sequentially-detected reads, populating the [`BlockCache`]; this is the
//!   kernel behaviour the paper credits for merging individual
//!   `readdir-stat` operations into large disk reads (§V-D.1).
//!
//! The paper's JBOD is a set of independent [`Disk`]s: the file system
//! (`mif-core`) stripes data over them, one per IO server, and the elapsed
//! time of a parallel phase is gated by the busiest disk.
//!
//! Simulated time is in nanoseconds (`u64`). The default geometry is
//! calibrated to the paper's testbed disks (~170 MB/s sequential media rate,
//! 7200 rpm class mechanics), so absolute throughputs land in a realistic
//! range, and relative results (who wins, by what factor) are governed by
//! seek-vs-stream behaviour just as on the real hardware.

//! # Example
//!
//! ```
//! use mif_simdisk::{BlockRequest, Disk, DiskGeometry, mib_per_sec};
//!
//! let mut disk = Disk::new(DiskGeometry::default());
//!
//! // A contiguous batch merges into one command and streams at media
//! // rate; a scattered batch pays a positioning per fragment.
//! let contiguous: Vec<_> = (0..64).map(|i| BlockRequest::write(i * 16, 16)).collect();
//! let t_seq = disk.submit_batch(contiguous);
//!
//! let scattered: Vec<_> = (0..64)
//!     .map(|i| BlockRequest::write(1_000_000 + i * 50_000, 16))
//!     .collect();
//! let t_scattered = disk.submit_batch(scattered);
//!
//! assert!(t_scattered > 10 * t_seq);
//! let bytes = 64 * 16 * 4096;
//! assert!(mib_per_sec(bytes, t_seq) > 100.0); // near the 170 MB/s media rate
//! ```

pub mod cache;
pub mod disk;
pub mod events;
pub mod fault;
pub mod geometry;
pub mod health;
pub mod readahead;
pub mod request;
pub mod scheduler;
pub mod stats;

pub use cache::BlockCache;
pub use disk::Disk;
pub use events::{DiskEvent, EventRecorder};
pub use fault::{CorruptKind, FaultDecision, FaultInjector, FaultPlan, FaultStats, IoFault};
pub use geometry::DiskGeometry;
pub use health::DiskHealth;
pub use readahead::Readahead;
pub use request::{BlockRequest, IoOp};
pub use scheduler::{IoScheduler, SchedulerConfig};
pub use stats::{DiskStats, SharedDiskStats};

/// A physical block number on one disk.
pub type BlockNo = u64;

/// Simulated time in nanoseconds.
pub type Nanos = u64;

/// Nanoseconds per second, for throughput conversions.
pub const NANOS_PER_SEC: f64 = 1_000_000_000.0;

/// Convert a byte count serviced in `ns` simulated nanoseconds to MiB/s.
///
/// Returns 0.0 when no time elapsed (e.g. everything was a cache hit).
pub fn mib_per_sec(bytes: u64, ns: Nanos) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (bytes as f64 / (1024.0 * 1024.0)) / (ns as f64 / NANOS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_per_sec_basic() {
        // 1 MiB in 1 second.
        assert!((mib_per_sec(1024 * 1024, 1_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mib_per_sec_zero_time() {
        assert_eq!(mib_per_sec(4096, 0), 0.0);
    }
}
