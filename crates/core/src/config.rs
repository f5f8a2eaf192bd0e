//! File-system configuration.

use mif_alloc::{OnDemandConfig, PolicyKind};
use mif_mds::{DirMode, MdsConfig};
use mif_simdisk::{DiskGeometry, SchedulerConfig};

/// Configuration of a [`crate::FileSystem`] instance.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Number of IO servers (= data disks; the paper stripes over 5 for the
    /// micro-benchmarks and 8 for the macro-benchmarks).
    pub osts: u32,
    /// Empty expansion bays beyond `osts`: slots whose disks start
    /// `Absent` and join the array live via `add_ost` (online expansion).
    /// Every physical structure (disk, allocator, shard) exists from
    /// construction; an absent bay is simply invisible to placement until
    /// populated.
    pub spare_osts: u32,
    /// Stripe unit in 4 KiB blocks (default 256 = 1 MiB, Lustre's default).
    pub stripe_blocks: u64,
    /// Block-allocation policy of the IO servers.
    pub policy: PolicyKind,
    /// Tuning for the on-demand policy (ignored by the others).
    pub ondemand: OnDemandConfig,
    /// Reservation-window size in blocks for the reservation policy — the
    /// "allocation size" axis of Fig. 6(b).
    pub reservation_window_blocks: u64,
    /// Parallel allocation groups per OST disk.
    pub groups_per_ost: usize,
    /// Data-disk geometry.
    pub geometry: DiskGeometry,
    /// Data-disk scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Per-data-disk cache size in blocks (kept small: the paper's phase-2
    /// reads are far larger than server memory, so reads hit the platter).
    pub data_cache_blocks: usize,
    /// Write-back threshold in blocks (across the file system): dirty data
    /// flushes to the disks in large sorted sweeps once this much has
    /// accumulated (page-cache writeback analogue).
    pub writeback_limit_blocks: u64,
    /// Metadata server configuration.
    pub mds: MdsConfig,
    /// Staging-slab capacity of the group-commit WAL, in records. Small
    /// slabs exercise backpressure (appenders park and drain); the default
    /// comfortably covers a sync interval of writes from many threads.
    pub wal_slab_records: usize,
}

impl Default for FsConfig {
    fn default() -> Self {
        let scheduler = SchedulerConfig {
            // Per-request RPC + server-queue cost on the data path (Lustre
            // 1.x-era magnitude); the MDS path models its costs explicitly.
            per_request_ns: 150_000,
            ..Default::default()
        };
        Self {
            osts: 5,
            spare_osts: 0,
            stripe_blocks: 256,
            policy: PolicyKind::Reservation,
            ondemand: OnDemandConfig::default(),
            reservation_window_blocks: 512,
            groups_per_ost: 16,
            geometry: DiskGeometry::default(),
            scheduler,
            data_cache_blocks: 65536,
            writeback_limit_blocks: 16384,
            mds: MdsConfig::default(),
            wal_slab_records: 1024,
        }
    }
}

impl FsConfig {
    /// Total disk bays: initially-active OSTs plus empty expansion bays.
    pub fn total_osts(&self) -> usize {
        (self.osts + self.spare_osts) as usize
    }

    /// Convenience: a config with the given policy and OST count.
    pub fn with_policy(policy: PolicyKind, osts: u32) -> Self {
        Self {
            policy,
            osts,
            ..Default::default()
        }
    }

    /// Convenience: also choose the MDS directory mode.
    pub fn with_modes(policy: PolicyKind, osts: u32, dir_mode: DirMode) -> Self {
        Self {
            policy,
            osts,
            mds: MdsConfig::with_mode(dir_mode),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_micro_setup() {
        let c = FsConfig::default();
        assert_eq!(c.osts, 5);
        assert_eq!(c.policy, PolicyKind::Reservation);
    }

    #[test]
    fn with_modes_sets_dir_mode() {
        use mif_mds::DirMode;
        let c = FsConfig::with_modes(PolicyKind::OnDemand, 4, DirMode::Embedded);
        assert_eq!(c.mds.mode, DirMode::Embedded);
        assert_eq!(c.policy, PolicyKind::OnDemand);
    }

    #[test]
    fn data_path_carries_rpc_overhead() {
        assert!(FsConfig::default().scheduler.per_request_ns > 0);
    }

    #[test]
    fn with_policy_overrides() {
        let c = FsConfig::with_policy(PolicyKind::OnDemand, 8);
        assert_eq!(c.osts, 8);
        assert_eq!(c.policy, PolicyKind::OnDemand);
    }
}
