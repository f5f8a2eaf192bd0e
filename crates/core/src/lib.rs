//! # mif-core — the block-based parallel file system (Redbud analogue)
//!
//! Ties the substrates together into the system the paper evaluates
//! (§V-A): clients identified by stream IDs write files striped over the
//! shared disks of a JBOD; each IO server manages its disk's free space
//! through parallel allocation groups and one of the four allocation
//! policies; a metadata server tracks files and layouts and its CPU cost
//! scales with the extent count (Table I).
//!
//! * [`ConcurrentFs`] — the engine: the one copy of the state, sharded
//!   per OST and per file, shared by reference across client threads;
//! * [`FileSystem`] — the round schedule over that state:
//!   create/open/write/read/close/unlink plus round-based submission
//!   that models concurrent arrival order, and the exclusive-owner hooks
//!   fsck, defrag, tier and scrub enter through;
//! * [`striping`] — file logical blocks → (OST, OST-local block);
//! * [`collective`] — two-phase collective I/O aggregation (the ~40 MB
//!   requests the paper profiles in §V-C.2);
//! * [`metrics`] — extent counts per file and the MDS CPU-utilization
//!   proxy.
//!
//! # Example
//!
//! ```
//! use mif_core::{FileSystem, FsConfig};
//! use mif_alloc::{PolicyKind, StreamId};
//!
//! // A 2-disk file system running the paper's on-demand preallocation.
//! let mut fs = FileSystem::new(FsConfig::with_policy(PolicyKind::OnDemand, 2));
//! let file = fs.create("shared.out", None);
//!
//! // Two concurrent streams extend different regions of the shared file.
//! let (a, b) = (StreamId::new(1, 0), StreamId::new(2, 0));
//! for round in 0..8 {
//!     fs.begin_round();
//!     fs.write(file, a, round * 4, 4);          // stream A's region
//!     fs.write(file, b, 4096 + round * 4, 4);   // stream B's region
//!     fs.end_round();
//! }
//! fs.sync_data();
//!
//! // Despite the interleaved arrivals, each region stays contiguous:
//! assert!(fs.file_extents(file) <= 8);
//! assert_eq!(fs.file_allocated(file), 64);
//! ```

pub mod collective;
pub mod concurrent;
pub mod config;
pub mod fs;
pub mod metrics;
pub mod striping;
pub mod tier;

pub use collective::aggregate_collective;
pub use concurrent::{ConcurrentFs, ContentionSnapshot, FsStats};
pub use config::FsConfig;
pub use fs::{FileSystem, LifecycleStats, OpenFile};
pub use metrics::{mds_cpu_utilization, FsMetrics};
pub use mif_simdisk::DiskHealth;
pub use striping::Striping;
pub use tier::{
    DegradedSource, ReplicaRun, StripeGroup, TierMap, TierRun, STRIPE_DATA, STRIPE_PARITY,
};
