//! # mif-defrag — online defragmentation for the MiF simulator
//!
//! MiF's preallocation policies *prevent* intra-file fragmentation at
//! write time (§III); this crate is the complementary *cure* for files
//! that fragmented anyway — churned free space, policy-less writers, aged
//! deployments. It relocates each fragmented file's per-OST mapping into
//! one contiguous run, online and crash-safe, throttled so the foreground
//! keeps its disk time.
//!
//! Four layers plus a CLI:
//!
//! * [`scanner`] — walks the extent layer scoring files (extents vs the
//!   one-per-OST ideal) and the allocators' free space (per-group
//!   [`mif_alloc::FreeRunHistogram`]s, computed in parallel on the fsck
//!   worker pool), and emits a prioritized candidate queue;
//! * [`relocate`] — the crash-safe relocation protocol: probe → WAL
//!   `Intent` → claim → copy → WAL `Commit` → remap, with first-class
//!   crash injection ([`CrashPoint`]) and mount-time [`recover`] that
//!   rolls committed transactions forward and dangling intents back;
//! * [`scheduler`] — the background pass: relocations under a
//!   blocks-per-tick budget with latency-driven backoff, skipping files
//!   that are open or hold live preallocation windows;
//! * [`drain`] — online bay evacuation: every stripe column on a draining
//!   OST moves (whole-column, same WAL protocol) onto the bays accepting
//!   placements, so the bay ends `Absent` and fsck-clean even through a
//!   mid-drain power cut;
//! * `mif-defrag` — the operator CLI (`scan` reports, `run` defragments,
//!   fsck-style exit codes).
//!
//! # Example
//!
//! ```
//! use mif_defrag::{run, DefragConfig};
//! use mif_mds::RemapWal;
//! use mif_workloads::{age_data_fs, DataAgingParams};
//!
//! // Age a file system, then defragment it in the background.
//! let (mut fs, _) = age_data_fs(&DataAgingParams::default());
//! let before = mif_defrag::scan(&fs, 2).report.degree();
//!
//! let mut wal = RemapWal::new();
//! let stats = run(&mut fs, &mut wal, &DefragConfig::default());
//! let after = mif_defrag::scan(&fs, 2).report.degree();
//! assert!(stats.relocations > 0 && after < before);
//! ```

pub mod drain;
pub mod relocate;
pub mod scanner;
pub mod scheduler;

pub use drain::{drain_ost, DrainStats};
pub use relocate::{
    is_packed, recover, relocate_column, relocate_ost, CrashPoint, DefragRecovery, Outcome,
    SkipReason,
};
pub use scanner::{scan, scan_files, FileCandidate, GroupFreeSummary, ScanReport};
pub use scheduler::{run, run_prioritized, DefragConfig, DefragStats};
