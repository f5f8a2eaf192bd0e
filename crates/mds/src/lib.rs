//! # mif-mds — metadata storage for a parallel file system
//!
//! The paper's MDS stores its metadata in a dedicated metadata file system
//! (MFS, ext3-based in Redbud; Lustre's MDS uses ext4). This crate models
//! that storage at block granularity on a [`mif_simdisk::Disk`] and
//! implements three directory-placement modes:
//!
//! * **Normal** ([`DirMode::Normal`]) — the traditional ext3 layout:
//!   per-block-group inode tables and bitmaps, directory-entry blocks in the
//!   data area, linear dirent scan on lookup. This is the original Redbud
//!   baseline of §V.
//! * **Normal + Htree** ([`DirMode::Htree`]) — same placement with a hashed
//!   directory index, so a lookup reads one dirent block instead of
//!   scanning. This is the Lustre/ext4 baseline ("the ext4 used in the
//!   Lustre's MDS utilizes the Htree index", §V-D.2).
//! * **Embedded** ([`DirMode::Embedded`]) — the paper's §IV design: sub-file
//!   inodes live inside preallocated, contiguous directory-content runs,
//!   layout mappings are stuffed into the inode tail (extra mapping blocks
//!   adjacent for fragmented files), deletions are lazily batched, and
//!   inode numbers are `(directory identification << 32) | offset` resolved
//!   through a global directory table, with a rename-correlation table
//!   aliasing old ids.
//!
//! Every metadata operation journals sequentially and checkpoints dirty
//! blocks in batches; disk-access counts are captured below the scheduler,
//! matching the paper's methodology ("intercepting the disk access in the
//! general block layer").
//!
//! # Example
//!
//! ```
//! use mif_mds::{DirMode, Mds, MdsConfig, ROOT_INO};
//!
//! let mut mds = Mds::new(MdsConfig::with_mode(DirMode::Embedded));
//! let dir = mds.mkdir(ROOT_INO, "project");
//! let ino = mds.create(dir, "data.bin", 3);
//!
//! // Embedded inode numbers encode (directory id, offset):
//! assert!(ino.is_composed());
//! assert_eq!(mds.lookup(dir, "data.bin"), Some(ino));
//!
//! // An aggregated ls -l is one streaming scan of the directory content.
//! mds.readdir_stat(dir);
//! assert!(mds.check().is_empty(), "on-disk structures consistent");
//! ```

pub mod check;
pub mod cluster;
pub mod dirtable;
pub mod embedded;
pub mod groupcommit;
pub mod htree;
pub mod ids;
pub mod journal;
pub mod layout;
pub mod mds;
pub mod normal;
pub mod replay;
pub mod shard;
pub mod store;
pub mod wal;

pub use check::{
    check_embedded, check_normal, meta_findings_embedded, meta_findings_normal, Inconsistency,
    MetaFinding,
};
pub use cluster::{ClusterStats, Distribution, MdsCluster};
pub use dirtable::{DirTable, RenameCorrelation, ShardMap};
pub use embedded::EmbeddedStore;
pub use groupcommit::{FlushFaultPlan, GroupCommitStats, GroupCommitWal};
pub use htree::HtreeIndex;
pub use ids::{DirId, InodeNo, WideInodeNo, ROOT_INO};
pub use journal::Journal;
pub use layout::MdsLayout;
pub use mds::{DirMode, Mds, MdsConfig, MdsStats};
pub use normal::NormalStore;
pub use replay::{LoggedOp, OpLog};
pub use shard::{
    OpHeadTable, ShardFinding, ShardSeat, ShardStats, ShardedMds, StormReport, XsCrashPoint,
    MAX_CAS_RETRIES,
};
pub use store::{DataArea, OpEffect, ReadSet};
pub use wal::{
    encode_write_record, recover_writes, Recovered, Recovery, RecoveryStop, RemapOp, RemapRecovery,
    RemapTxn, RemapWal, ShardNsOp, ShardOp, ShardRecord, ShardRecovery, ShardWal, TierKind, TierOp,
    TierRecovery, TierTxn, TierWal, Wal, WalRecord, WalWriter, WriteCommit, WriteRecovery, XsTxn,
    WAL_RECORD_BYTES,
};
