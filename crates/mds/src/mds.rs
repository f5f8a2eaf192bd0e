//! The metadata server: directory store + journal + disk.
//!
//! Executes metadata operations against a simulated MDS disk, the way the
//! paper's experiments do (§V-D: "the metadata performance of both Redbud
//! (with/without incorporating embedded directory algorithm) and Lustre
//! file systems with a single disk used at MDS end. MDS was configured to
//! use synchronous writes for metadata integrity").
//!
//! Every mutation appends to the journal synchronously (sequential,
//! cheap); dirtied metadata blocks are checkpointed in batches — "the
//! reduction of disk access counts mainly comes from the checkpoint
//! operations".

use crate::embedded::EmbeddedStore;
use crate::ids::InodeNo;
use crate::journal::Journal;
use crate::layout::MdsLayout;
use crate::normal::NormalStore;
use crate::store::{DataArea, OpEffect};
use mif_simdisk::{
    BlockRequest, Disk, DiskGeometry, DiskStats, FaultPlan, FaultStats, IoFault, Nanos,
    SchedulerConfig,
};
use std::collections::BTreeSet;

/// Directory placement mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirMode {
    /// ext3-style: separate inode tables, linear dirent scan (original
    /// Redbud baseline).
    Normal,
    /// ext4/Lustre-style: same placement, hashed dirent lookup.
    Htree,
    /// The paper's embedded directory.
    Embedded,
}

impl std::fmt::Display for DirMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DirMode::Normal => "normal",
            DirMode::Htree => "htree",
            DirMode::Embedded => "embedded",
        })
    }
}

/// MDS configuration.
#[derive(Debug, Clone)]
pub struct MdsConfig {
    pub mode: DirMode,
    pub layout: MdsLayout,
    /// MDS block-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Embedded mode only: stuff layout mappings into directory content
    /// (false = inode-only embedding, for ablation).
    pub embedded_stuffing: bool,
}

/// Checkpoint dirty metadata every this many mutations.
const CHECKPOINT_EVERY: usize = 64;

/// Client↔MDS round-trip cost charged per operation, in ns. Not part of
/// the disk clock; see [`Mds::total_elapsed_ns`]. This is what the
/// aggregated operation pairs of §II-A.2 (readdirplus, open-getlayout)
/// save.
const RPC_NS: u64 = 300_000;

impl Default for MdsConfig {
    fn default() -> Self {
        Self {
            mode: DirMode::Normal,
            layout: MdsLayout::default(),
            cache_blocks: 1024,
            embedded_stuffing: true,
        }
    }
}

impl MdsConfig {
    pub fn with_mode(mode: DirMode) -> Self {
        Self {
            mode,
            ..Default::default()
        }
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdsStats {
    pub creates: u64,
    pub mkdirs: u64,
    pub stats_: u64,
    pub utimes: u64,
    pub unlinks: u64,
    pub readdirs: u64,
    pub readdir_stats: u64,
    pub renames: u64,
    pub getlayouts: u64,
    pub checkpoints: u64,
}

impl MdsStats {
    pub fn total_ops(&self) -> u64 {
        self.creates
            + self.mkdirs
            + self.stats_
            + self.utimes
            + self.unlinks
            + self.readdirs
            + self.readdir_stats
            + self.renames
            + self.getlayouts
    }
}

enum Store {
    Normal(NormalStore),
    Embedded(EmbeddedStore),
}

/// A metadata server over one simulated disk.
pub struct Mds {
    pub config: MdsConfig,
    disk: Disk,
    data: DataArea,
    journal: Journal,
    store: Store,
    dirty: BTreeSet<u64>,
    muts_since_checkpoint: usize,
    stats: MdsStats,
    rpc_ns_total: u64,
}

impl Mds {
    /// Stable stripe index for a namespace operation on `(parent, name)`.
    ///
    /// The concurrent front-end guards the MDS directory paths with a
    /// striped lock table rather than one big namespace lock; two
    /// operations contend only when they hash to the same stripe, while
    /// same-name operations always serialize. FNV-1a keeps the mapping
    /// deterministic across processes (no seeded hasher).
    pub fn name_stripe(parent: InodeNo, name: &str, stripes: usize) -> usize {
        assert!(stripes > 0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in parent.0.to_le_bytes().iter().chain(name.as_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % stripes as u64) as usize
    }

    pub fn new(config: MdsConfig) -> Self {
        let geometry = DiskGeometry::with_blocks(config.layout.total_blocks());
        let disk = Disk::with_config(geometry, SchedulerConfig::default(), config.cache_blocks);
        let mut data = DataArea::new(&config.layout);
        let store = match config.mode {
            DirMode::Normal => Store::Normal(NormalStore::new(&config.layout, false, &mut data)),
            DirMode::Htree => Store::Normal(NormalStore::new(&config.layout, true, &mut data)),
            DirMode::Embedded => Store::Embedded(EmbeddedStore::with_stuffing(
                &config.layout,
                &mut data,
                config.embedded_stuffing,
            )),
        };
        let journal = Journal::new(&config.layout);
        Self {
            config,
            disk,
            data,
            journal,
            store,
            dirty: BTreeSet::new(),
            muts_since_checkpoint: 0,
            stats: MdsStats::default(),
            rpc_ns_total: 0,
        }
    }

    /// Charge one client↔MDS round trip.
    fn rpc(&mut self) {
        self.rpc_ns_total += RPC_NS;
    }

    /// Apply an effect: execute reads in order, journal, track dirty
    /// blocks, checkpoint when due.
    fn apply(&mut self, eff: OpEffect) {
        if let Err(f) = self.try_apply(eff) {
            panic!("unhandled MDS disk fault on infallible path: {f}");
        }
    }

    /// Fallible [`Mds::apply`]: any injected fault on the MDS disk is
    /// surfaced instead of panicking. On a fault the in-memory stores have
    /// already executed the operation — what failed is *durability* (the
    /// journal or checkpoint write) — so recovery means replaying a redo
    /// log into a fresh MDS, exactly what [`crate::replay::OpLog`] and
    /// [`crate::wal::recover`] provide.
    fn try_apply(&mut self, eff: OpEffect) -> Result<(), IoFault> {
        // Block bitmaps examined by allocations are read (cache-absorbed
        // when hot, real I/O on an aged search).
        let bitmaps = self.data.take_touched_bitmaps();
        if !bitmaps.is_empty() {
            let batch = bitmaps
                .into_iter()
                .map(|b| BlockRequest::read(b, 1))
                .collect();
            self.disk.try_submit_batch_raw(batch)?;
        }
        for set in &eff.reads {
            let batch: Vec<BlockRequest> = set
                .blocks
                .iter()
                .map(|&(s, l)| BlockRequest::read(s, l))
                .collect();
            match set.ra_ctx {
                Some(ctx) => self.disk.try_submit_batch_ctx(ctx, batch)?,
                None => self.disk.try_submit_batch_raw(batch)?,
            };
        }
        for &(s, l) in &eff.freed {
            self.disk.invalidate(s, l);
        }
        if eff.journal_blocks > 0 {
            let reqs = self.journal.append(eff.journal_blocks);
            if !reqs.is_empty() {
                self.disk.try_submit_batch_raw(reqs)?;
            }
            self.dirty.extend(eff.dirty.iter().copied());
            self.muts_since_checkpoint += 1;
            if self.muts_since_checkpoint >= CHECKPOINT_EVERY {
                self.try_checkpoint()?;
            }
        } else {
            debug_assert!(eff.dirty.is_empty(), "read-only op dirtied blocks");
        }
        Ok(())
    }

    /// Write back all dirty metadata blocks as one scheduled batch.
    pub fn checkpoint(&mut self) {
        if let Err(f) = self.try_checkpoint() {
            panic!("unhandled MDS disk fault on infallible path: {f}");
        }
    }

    /// Fallible [`Mds::checkpoint`]. On a fault the *entire* dirty set is
    /// retained for the next attempt — a faulted checkpoint batch may have
    /// been partially serviced, so nothing can be assumed durable.
    pub fn try_checkpoint(&mut self) -> Result<(), IoFault> {
        if self.dirty.is_empty() {
            self.muts_since_checkpoint = 0;
            return Ok(());
        }
        let batch: Vec<BlockRequest> = self
            .dirty
            .iter()
            .map(|&b| BlockRequest::write(b, 1))
            .collect();
        self.disk.try_submit_batch_raw(batch)?;
        self.dirty.clear();
        self.muts_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Flush outstanding state (end of a workload phase).
    pub fn sync(&mut self) {
        if let Err(f) = self.try_sync() {
            panic!("unhandled MDS disk fault on infallible path: {f}");
        }
    }

    /// Fallible [`Mds::sync`].
    pub fn try_sync(&mut self) -> Result<(), IoFault> {
        let reqs = self.journal.flush();
        if !reqs.is_empty() {
            self.disk.try_submit_batch_raw(reqs)?;
        }
        self.try_checkpoint()
    }

    // ----- fault injection ------------------------------------------------

    /// Install a seeded fault plan on the MDS disk. Once installed, use the
    /// `try_*` variants — the infallible ones panic on a fault.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.disk.install_faults(plan);
    }

    /// Remove the fault injector from the MDS disk.
    pub fn clear_faults(&mut self) {
        self.disk.clear_faults();
    }

    /// Fault counters, when a plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.disk.fault_stats()
    }

    /// Is the MDS disk dead from an injected power cut?
    pub fn powered_off(&self) -> bool {
        self.disk.powered_off()
    }

    /// Restore power to the MDS disk (volatile cache is lost).
    pub fn power_restore(&mut self) {
        self.disk.power_restore();
    }

    /// Fallible [`Mds::create`]: an injected disk fault is returned
    /// instead of panicking. The in-memory store has executed the create
    /// either way; `Err` means the journal (or a triggered checkpoint) did
    /// not make it durable.
    pub fn try_create(
        &mut self,
        parent: InodeNo,
        name: &str,
        extents: u32,
    ) -> Result<InodeNo, IoFault> {
        self.stats.creates += 1;
        self.rpc();
        let (ino, eff) = match &mut self.store {
            Store::Normal(s) => s.create(&mut self.data, parent, name, extents),
            Store::Embedded(s) => s.create(&mut self.data, parent, name, extents),
        };
        self.try_apply(eff)?;
        Ok(ino)
    }

    // ----- operations ---------------------------------------------------

    pub fn mkdir(&mut self, parent: InodeNo, name: &str) -> InodeNo {
        self.stats.mkdirs += 1;
        self.rpc();
        let (ino, eff) = match &mut self.store {
            Store::Normal(s) => s.mkdir(&mut self.data, parent, name),
            Store::Embedded(s) => s.mkdir(&mut self.data, parent, name),
        };
        self.apply(eff);
        ino
    }

    /// Create a file whose layout mapping holds `extents` units.
    pub fn create(&mut self, parent: InodeNo, name: &str, extents: u32) -> InodeNo {
        self.try_create(parent, name, extents)
            .unwrap_or_else(|f| panic!("unhandled MDS disk fault on infallible path: {f}"))
    }

    pub fn lookup(&mut self, parent: InodeNo, name: &str) -> Option<InodeNo> {
        self.rpc();
        let (ino, eff) = match &self.store {
            Store::Normal(s) => s.lookup(parent, name),
            Store::Embedded(s) => s.lookup(parent, name),
        };
        self.apply(eff);
        ino
    }

    pub fn stat(&mut self, parent: InodeNo, name: &str) {
        self.stats.stats_ += 1;
        self.rpc();
        let eff = match &self.store {
            Store::Normal(s) => s.stat(parent, name),
            Store::Embedded(s) => s.stat(parent, name),
        };
        self.apply(eff);
    }

    pub fn utime(&mut self, parent: InodeNo, name: &str) {
        self.stats.utimes += 1;
        self.rpc();
        let eff = match &mut self.store {
            Store::Normal(s) => s.utime(parent, name),
            Store::Embedded(s) => s.utime(parent, name),
        };
        self.apply(eff);
    }

    pub fn getlayout(&mut self, parent: InodeNo, name: &str) {
        self.stats.getlayouts += 1;
        self.rpc();
        let eff = match &self.store {
            Store::Normal(s) => s.getlayout(parent, name),
            Store::Embedded(s) => s.getlayout(parent, name),
        };
        self.apply(eff);
    }

    pub fn unlink(&mut self, parent: InodeNo, name: &str) {
        self.stats.unlinks += 1;
        self.rpc();
        let eff = match &mut self.store {
            Store::Normal(s) => s.unlink(&mut self.data, parent, name),
            Store::Embedded(s) => s.unlink(&mut self.data, parent, name),
        };
        self.apply(eff);
    }

    pub fn readdir(&mut self, dir: InodeNo) {
        self.stats.readdirs += 1;
        self.rpc();
        let eff = match &self.store {
            Store::Normal(s) => s.readdir(dir),
            Store::Embedded(s) => s.readdir(dir),
        };
        self.apply(eff);
    }

    /// Aggregated readdir+stat (readdirplus / `ls -l`).
    pub fn readdir_stat(&mut self, dir: InodeNo) {
        self.stats.readdir_stats += 1;
        self.rpc();
        let eff = match &self.store {
            Store::Normal(s) => s.readdir_stat(dir),
            Store::Embedded(s) => s.readdir_stat(dir),
        };
        self.apply(eff);
    }

    /// Names of a directory's entries, in name order (no I/O — drives
    /// unaggregated client loops in benches). Sorted because the stores
    /// keep entries in a randomly seeded `HashMap`, and a caller that
    /// visits the names in the order given must see the same order on
    /// every run.
    pub fn entry_names(&self, dir: InodeNo) -> Vec<String> {
        let mut names = match &self.store {
            Store::Normal(s) => s.entry_names(dir),
            Store::Embedded(s) => s.entry_names(dir),
        };
        names.sort_unstable();
        names
    }

    /// Rename; returns the file's (possibly new) inode number.
    pub fn rename(
        &mut self,
        src: InodeNo,
        name: &str,
        dst: InodeNo,
        new_name: &str,
    ) -> Option<InodeNo> {
        self.stats.renames += 1;
        self.rpc();
        match &mut self.store {
            Store::Normal(s) => {
                let (ino, _) = s.lookup(src, name);
                let eff = s.rename(&mut self.data, src, name, dst, new_name);
                self.apply(eff);
                ino
            }
            Store::Embedded(s) => {
                let (ino, eff) = s.rename(&mut self.data, src, name, dst, new_name);
                self.apply(eff);
                ino
            }
        }
    }

    /// End of the management routines that were holding pre-rename file
    /// IDs: drop the rename correlations (§IV-B — "this correlation is
    /// maintained until the management routines exit"). Old inode numbers
    /// stop resolving afterwards.
    pub fn end_management(&mut self) {
        if let Store::Embedded(s) = &mut self.store {
            s.correlation.clear();
        }
    }

    /// Resolve an inode number to its current identity (embedded mode uses
    /// the global directory table; normal inos are stable, so it is the
    /// identity there).
    pub fn resolve_inode(&mut self, ino: InodeNo) -> Option<InodeNo> {
        match &self.store {
            Store::Normal(_) => Some(ino),
            Store::Embedded(s) => {
                let (r, eff) = s.resolve_inode(ino);
                self.apply(eff);
                r
            }
        }
    }

    // ----- observability -------------------------------------------------

    /// Simulated elapsed time on the MDS disk.
    pub fn elapsed_ns(&self) -> Nanos {
        self.disk.clock()
    }

    /// Accumulated client↔MDS round-trip time.
    pub fn rpc_elapsed_ns(&self) -> Nanos {
        self.rpc_ns_total
    }

    /// Client-visible serial time: disk plus round trips. Aggregated
    /// operation pairs (readdirplus, open-getlayout) exist to shrink the
    /// second term (§II-A.2).
    pub fn total_elapsed_ns(&self) -> Nanos {
        self.disk.clock() + self.rpc_ns_total
    }

    /// Disk statistics (dispatched = the paper's "disk access count").
    pub fn disk_stats(&self) -> &DiskStats {
        self.disk.stats()
    }

    pub fn op_stats(&self) -> MdsStats {
        self.stats
    }

    pub fn journal_records(&self) -> u64 {
        self.journal.records()
    }

    /// Metadata-area utilization 0.0–1.0 (the aging experiment's x-axis).
    pub fn utilization(&self) -> f64 {
        self.data.utilization()
    }

    /// Drop the MDS block cache (cold-cache phases).
    pub fn drop_caches(&mut self) {
        self.disk.drop_caches();
    }

    /// Run the fsck-style consistency checker over the live store,
    /// including the data-area bitmap cross-check.
    pub fn check(&self) -> Vec<crate::check::Inconsistency> {
        self.meta_findings()
            .iter()
            .map(crate::check::MetaFinding::to_inconsistency)
            .collect()
    }

    /// Structured findings over the live store (the checker `mif-fsck`
    /// folds in as its metadata leg).
    pub fn meta_findings(&self) -> Vec<crate::check::MetaFinding> {
        match &self.store {
            Store::Normal(s) => crate::check::meta_findings_normal(s, Some(&self.data)),
            Store::Embedded(s) => crate::check::meta_findings_embedded(s, Some(&self.data)),
        }
    }

    /// Access to the normal store (normal/htree modes; tests/benches).
    pub fn normal(&self) -> Option<&NormalStore> {
        match &self.store {
            Store::Normal(s) => Some(s),
            _ => None,
        }
    }

    /// Access to the embedded store (embedded mode only; tests/benches).
    pub fn embedded(&self) -> Option<&EmbeddedStore> {
        match &self.store {
            Store::Embedded(s) => Some(s),
            _ => None,
        }
    }

    /// The metadata data area (checker introspection: bitmap snapshots).
    pub fn data(&self) -> &DataArea {
        &self.data
    }

    /// Mutable access to the embedded store together with the data area,
    /// for fsck corruption injection and repair. `None` outside embedded
    /// mode.
    pub fn embedded_mut(&mut self) -> Option<(&mut EmbeddedStore, &mut DataArea)> {
        match &mut self.store {
            Store::Embedded(s) => Some((s, &mut self.data)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ROOT_INO;

    fn mds(mode: DirMode) -> Mds {
        Mds::new(MdsConfig::with_mode(mode))
    }

    #[test]
    fn create_advances_clock_and_journal() {
        let mut m = mds(DirMode::Normal);
        m.create(ROOT_INO, "a", 1);
        assert!(m.elapsed_ns() > 0);
        assert_eq!(m.journal_records(), 1);
        assert_eq!(m.op_stats().creates, 1);
    }

    /// Two servers built by the same creates list a directory alike and
    /// in name order — not in `HashMap` iteration order, which differs
    /// between two maps of one process.
    #[test]
    fn entry_names_are_sorted_and_reproducible() {
        for mode in [DirMode::Normal, DirMode::Embedded] {
            let build = || {
                let mut m = mds(mode);
                let dir = m.mkdir(ROOT_INO, "d");
                for i in 0..200u32 {
                    m.create(dir, &format!("f{:03}", i * 7919 % 200), 1);
                }
                m.entry_names(dir)
            };
            let names = build();
            assert_eq!(names, build(), "{mode:?}");
            let sorted: Vec<String> = (0..200).map(|i| format!("f{i:03}")).collect();
            assert_eq!(names, sorted, "{mode:?}");
        }
    }

    #[test]
    fn checkpoint_batches_dirty_blocks() {
        let mut m = mds(DirMode::Normal);
        let before = m.disk_stats().dispatched;
        for i in 0..63 {
            m.create(ROOT_INO, &format!("f{i}"), 1);
        }
        // 63 mutations: journal writes only, no checkpoint yet.
        let journal_only = m.disk_stats().dispatched - before;
        m.create(ROOT_INO, "f63", 1); // 64th triggers the checkpoint
        let after = m.disk_stats().dispatched - before;
        assert!(after > journal_only);
        assert_eq!(m.op_stats().checkpoints, 1);
    }

    #[test]
    fn embedded_create_dispatches_fewer_writes_than_normal() {
        let run = |mode| {
            let mut m = mds(mode);
            let dirs: Vec<_> = (0..10)
                .map(|i| m.mkdir(ROOT_INO, &format!("d{i}")))
                .collect();
            m.sync();
            let base = m.disk_stats().dispatched;
            for round in 0..200 {
                for (c, &dir) in dirs.iter().enumerate() {
                    m.create(dir, &format!("f{round}_{c}"), 1);
                }
            }
            m.sync();
            m.disk_stats().dispatched - base
        };
        let normal = run(DirMode::Normal);
        let embedded = run(DirMode::Embedded);
        assert!(
            embedded * 3 <= normal * 2,
            "embedded {embedded} vs normal {normal}"
        );
    }

    #[test]
    fn embedded_readdir_stat_is_much_cheaper() {
        let run = |mode| {
            let mut m = mds(mode);
            let dir = m.mkdir(ROOT_INO, "d");
            for i in 0..2000 {
                m.create(dir, &format!("f{i}"), 1);
            }
            m.sync();
            m.drop_caches();
            let base = m.disk_stats().dispatched;
            let t0 = m.elapsed_ns();
            m.readdir_stat(dir);
            (m.disk_stats().dispatched - base, m.elapsed_ns() - t0)
        };
        let (n_acc, n_time) = run(DirMode::Normal);
        let (e_acc, e_time) = run(DirMode::Embedded);
        assert!(
            e_acc * 3 < n_acc,
            "embedded accesses {e_acc} vs normal {n_acc}"
        );
        assert!(e_time < n_time, "embedded {e_time}ns vs normal {n_time}ns");
    }

    #[test]
    fn htree_lookup_cheaper_than_linear_when_cold() {
        let run = |mode| {
            let mut m = mds(mode);
            let dir = m.mkdir(ROOT_INO, "d");
            for i in 0..2000 {
                m.create(dir, &format!("f{i}"), 1);
            }
            m.sync();
            m.drop_caches();
            let base = m.disk_stats().dispatched;
            m.stat(dir, "f1999");
            m.disk_stats().dispatched - base
        };
        let linear = run(DirMode::Normal);
        let htree = run(DirMode::Htree);
        assert!(htree < linear, "htree {htree} vs linear {linear}");
    }

    #[test]
    fn rename_resolves_old_ino_in_embedded_mode() {
        let mut m = mds(DirMode::Embedded);
        let dst = m.mkdir(ROOT_INO, "dst");
        let old = m.create(ROOT_INO, "a", 1);
        let new = m.rename(ROOT_INO, "a", dst, "b").unwrap();
        assert_ne!(old, new);
        assert_eq!(m.resolve_inode(old), Some(new));
    }

    #[test]
    fn correlation_dropped_when_management_exits() {
        let mut m = mds(DirMode::Embedded);
        let dst = m.mkdir(ROOT_INO, "dst");
        let old = m.create(ROOT_INO, "a", 1);
        let new = m.rename(ROOT_INO, "a", dst, "b").unwrap();
        assert_eq!(m.resolve_inode(old), Some(new));
        m.end_management();
        // The old id no longer aliases; the new one still resolves.
        assert_eq!(m.resolve_inode(old), None);
        assert_eq!(m.resolve_inode(new), Some(new));
    }

    #[test]
    fn rename_keeps_ino_in_normal_mode() {
        let mut m = mds(DirMode::Normal);
        let dst = m.mkdir(ROOT_INO, "dst");
        let old = m.create(ROOT_INO, "a", 1);
        let new = m.rename(ROOT_INO, "a", dst, "b").unwrap();
        assert_eq!(old, new);
    }

    #[test]
    fn utilization_grows_with_metadata() {
        let mut m = mds(DirMode::Embedded);
        let u0 = m.utilization();
        for i in 0..100 {
            m.mkdir(ROOT_INO, &format!("d{i}"));
        }
        assert!(m.utilization() > u0);
    }

    #[test]
    fn read_only_ops_do_not_journal() {
        let mut m = mds(DirMode::Embedded);
        let dir = m.mkdir(ROOT_INO, "d");
        m.create(dir, "f", 1);
        let records = m.journal_records();
        m.stat(dir, "f");
        m.readdir(dir);
        m.lookup(dir, "f");
        assert_eq!(m.journal_records(), records);
    }
}
