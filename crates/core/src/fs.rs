//! The round schedule over the engine.
//!
//! There is one copy of the file-system state and [`ConcurrentFs`] owns it
//! (see `crate::concurrent`). [`FileSystem`] is the deterministic
//! single-caller *schedule* over that state, and models concurrency by
//! *rounds*: the workload driver opens a round, issues the operations of
//! all concurrent streams in their arrival order (allocation decisions
//! happen immediately, in that order — exactly the mechanism behind Figure
//! 1(a)), then closes the round, which submits each IO server's
//! accumulated requests as one scheduled batch and advances simulated time
//! by the slowest server's service time. The two drivers differ only in
//! *when* queued IO is submitted and how the clock is charged; placement,
//! lifecycle, faults and health are the engine's own code, called from
//! here.
//!
//! `&mut FileSystem` proves no other thread can reach the state, so
//! whatever only an exclusive owner may do — rewrite a file's column map,
//! hand out `&mut` views of the MDS or the tier map, fsck's repairs — goes
//! through `Mutex::get_mut` / `RwLock::get_mut` / `Arc::get_mut`: no lock
//! taken, no lock-order token needed.

use crate::concurrent::{expect_no_fault, ConcurrentFs, FileInner, FileSlot, OstQueues, POISONED};
use crate::config::FsConfig;
use crate::metrics::FsMetrics;
use crate::striping::Striping;
use crate::tier::TierMap;
use mif_alloc::{FileId, GroupedAllocator, StreamId};
use mif_extent::Extent;
use mif_mds::{InodeNo, Mds, ROOT_INO};
use mif_simdisk::{
    BlockRequest, Disk, DiskHealth, DiskStats, FaultPlan, FaultStats, IoFault, Nanos,
};
use std::sync::{Arc, MutexGuard, RwLockReadGuard};

/// Cumulative disk-population lifecycle counters: rebuilds, drains,
/// expansions and scrub work, surfaced through `FsStats` and the fleet
/// benches. Maintained by the engine (rebuild), `mif-defrag`'s drain
/// driver and `mif-scrub`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// OST rebuilds brought to completion.
    pub rebuilds_completed: u64,
    /// Blocks reconstructed from redundancy during rebuilds.
    pub rebuilt_blocks: u64,
    /// Drains brought to completion (bay emptied to `Absent`).
    pub drains_completed: u64,
    /// File columns relocated off draining OSTs.
    pub drained_columns: u64,
    /// Blocks moved by drain relocations.
    pub drained_blocks: u64,
    /// Bays populated live (`add_ost`).
    pub osts_added: u64,
    /// Completed scrub passes over the whole population.
    pub scrub_passes: u64,
    /// Blocks checksum-verified by the scrubber.
    pub scrub_scanned_blocks: u64,
    /// Damaged blocks the scrubber found.
    pub scrub_corruptions_found: u64,
    /// Damaged blocks repaired from replicas/parity/primaries.
    pub scrub_repaired: u64,
    /// Damaged blocks with no redundant source — filed as findings.
    pub scrub_findings: u64,
}

/// Handle returned by [`FileSystem::create`] / [`FileSystem::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenFile(pub FileId);

/// A complete parallel file system instance, driven in rounds by one
/// caller.
pub struct FileSystem {
    /// A copy of the engine's configuration, made once at construction.
    pub config: FsConfig,
    /// The state. Dirty data accumulates in its per-OST write-back queues
    /// and flushes to the disks in large sorted sweeps, the way page-cache
    /// writeback does — synchronous per-round writes would charge the
    /// allocator's placement decisions with seeks no real buffered write
    /// path pays.
    pub(crate) fs: ConcurrentFs,
    pub(crate) round_open: bool,
}

impl FileSystem {
    pub fn new(config: FsConfig) -> Self {
        ConcurrentFs::new(config).into_engine()
    }

    // ----- exclusive views --------------------------------------------------

    fn disk(&self, ost: usize) -> MutexGuard<'_, Disk> {
        self.fs.shards[ost].disk.lock().expect(POISONED)
    }

    fn disk_mut(&mut self, ost: usize) -> &mut Disk {
        self.fs.shards[ost].disk.get_mut().expect(POISONED)
    }

    fn queues_mut(&mut self, ost: usize) -> &mut OstQueues {
        self.fs.shards[ost].queues.get_mut().expect(POISONED)
    }

    /// A slot some thread still holds an `Arc` to cannot be driven in
    /// rounds — that is a front-end client outliving its quiesce, and a
    /// panic beats silently racing it.
    fn exclusive(slot: &mut Arc<FileSlot>) -> &mut FileSlot {
        Arc::get_mut(slot).expect("file slot shared while driven in rounds")
    }

    fn slots_mut(&mut self) -> impl Iterator<Item = &mut FileSlot> {
        let files = self.fs.files.get_mut().expect(POISONED);
        files.values_mut().map(Self::exclusive)
    }

    fn slot_mut(&mut self, file: OpenFile) -> Option<&mut FileSlot> {
        let files = self.fs.files.get_mut().expect(POISONED);
        files.get_mut(&file.0).map(Self::exclusive)
    }

    fn inner_mut(&mut self, file: OpenFile) -> Option<&mut FileInner> {
        Some(self.slot_mut(file)?.inner.get_mut().expect(POISONED))
    }

    // ----- lifecycle ------------------------------------------------------

    /// Create a file under the root directory. `size_hint_blocks` is the
    /// application's declared final size — only the static (`fallocate`)
    /// policy uses it, mapping the whole hinted range up front (unwritten
    /// extents), so the blocks are owned by the file and freed with it at
    /// unlink. New layouts land only on bays accepting placements: a
    /// draining, failed or absent OST gets no new columns. The file's
    /// width is fixed here — files created after an expansion stripe wider.
    pub fn create(&mut self, name: &str, size_hint_blocks: Option<u64>) -> OpenFile {
        self.fs.create(name, size_hint_blocks)
    }

    /// Open by name. Models the aggregated open-getlayout of §II-A.2: the
    /// layout arrives with the open in a single MDS operation.
    pub fn open(&mut self, name: &str) -> Option<OpenFile> {
        self.fs.open(name)
    }

    /// Open by inode number — the path management jobs take (§IV-B:
    /// "Some file management jobs... rely on the constancy of the file ID").
    /// In embedded mode the number routes through the global directory
    /// table and the rename correlation, so pre-rename IDs still resolve.
    pub fn open_by_ino(&mut self, ino: InodeNo) -> Option<OpenFile> {
        let current = self.mds().resolve_inode(ino)?;
        self.slots_mut().find_map(|slot| {
            let inner = slot.inner.get_mut().expect(POISONED);
            (inner.ino == current).then(|| {
                inner.open_handles += 1;
                OpenFile(slot.id)
            })
        })
    }

    /// Close one handle. When the *last* handle closes, unconsumed
    /// preallocations (reservation/on-demand windows) are released on every
    /// OST — an idle closed file must not pin reserved-but-unwritten blocks
    /// out of the free pool (and the defrag scheduler treats it as
    /// relocatable from then on). Closing with other handles still open
    /// only drops the count.
    pub fn close(&mut self, file: OpenFile) {
        self.fs.close(file)
    }

    /// Live handles on `file` (0 after the last close or for unknown ids).
    pub fn open_handle_count(&self, file: OpenFile) -> u32 {
        self.fs.open_handle_count(file)
    }

    /// Does any OST's policy still hold a live preallocation window for
    /// `file`? The defrag scheduler skips such files — relocating them
    /// would race the window's future allocations.
    pub fn has_live_preallocation(&self, file: OpenFile) -> bool {
        self.fs.has_live_preallocation(file)
    }

    /// Truncate the file to `new_size_blocks`, freeing the tail's blocks.
    pub fn truncate(&mut self, file: OpenFile, new_size_blocks: u64) {
        self.sync_data();
        let stripe_blocks = self.config.stripe_blocks;
        let Some(slot) = self.slot_mut(file) else {
            return;
        };
        let (striping, shift) = (slot.striping(stripe_blocks), slot.ost_shift);
        let inner = slot.inner.get_mut().expect(POISONED);
        let old_size = inner.size_blocks;
        if new_size_blocks >= old_size {
            return;
        }
        let mut freed = Vec::new();
        for (col, local, run, _) in
            striping.pieces(new_size_blocks, old_size - new_size_blocks, shift)
        {
            let ost = slot.ost_map[col as usize] as usize;
            let runs = inner.trees[col as usize].remove(local, run);
            freed.extend(runs.into_iter().map(|(phys, len)| (ost, phys, len)));
        }
        inner.size_blocks = new_size_blocks;
        let name = inner.name.clone();
        for (ost, phys, len) in freed {
            self.tier_free_run(ost, phys, len);
        }
        self.mds().utime(ROOT_INO, &name);
        // Content bounds changed wholesale: every derived artifact of the
        // file is stale (lazy teardown frees the runs later).
        self.tier_mut().invalidate_file(file.0 .0);
    }

    /// Rename `file` to `new_name` within the root directory. Returns the
    /// file's (possibly new) inode number — embedded mode re-composes it
    /// from the destination slot, with the old number still resolving
    /// through the rename correlation until [`end_management`] (§IV-B).
    /// `None` if the file is unknown or the MDS refused the move.
    ///
    /// [`end_management`]: FileSystem::end_management
    pub fn rename(&mut self, file: OpenFile, new_name: &str) -> Option<InodeNo> {
        self.fs.rename_file(file, new_name)
    }

    /// End of the management routines holding pre-rename file IDs: drops
    /// the MDS rename correlations (see [`mif_mds::Mds::end_management`]).
    pub fn end_management(&mut self) {
        self.mds().end_management();
    }

    /// Delete: free all blocks (the file's and every replica and parity
    /// run the tier layer derived from it) and remove the MDS entry.
    /// Releases policy state unconditionally — an unlinked file has no
    /// future writes, so remaining open handles cannot keep its windows
    /// alive.
    pub fn unlink(&mut self, file: OpenFile) {
        self.sync_data();
        self.fs.unlink(file)
    }

    // ----- rounds ----------------------------------------------------------

    /// Open a submission round. Operations issued until [`Self::end_round`]
    /// arrive "concurrently"; their allocations happen in call order.
    pub fn begin_round(&mut self) {
        assert!(!self.round_open, "round already open");
        self.round_open = true;
    }

    /// Submit the round to the IO servers; returns its elapsed time (the
    /// slowest server gates the round). Write-back data flushes when the
    /// dirty threshold is exceeded.
    pub fn end_round(&mut self) -> Nanos {
        expect_no_fault(self.try_end_round())
    }

    /// Fallible [`FileSystem::end_round`]: an injected fault on any IO
    /// server surfaces as `Err((ost index, fault))` instead of panicking.
    /// The other servers' batches have been serviced — the fault kills one
    /// server's batch tail, not the round — and the round is closed either
    /// way. Elapsed-time accounting on the fault path is best-effort (the
    /// surviving servers' time is still charged).
    pub fn try_end_round(&mut self) -> Result<Nanos, (usize, IoFault)> {
        assert!(self.round_open, "no open round");
        self.round_open = false;
        let mut t = self.submit_round(|q| std::mem::take(&mut q.pending))?;
        if *self.fs.writeback_blocks.get_mut() >= self.config.writeback_limit_blocks {
            t += self.try_flush_writeback()?;
        }
        self.fs.base_elapsed_ns += t;
        Ok(t)
    }

    /// Hand every IO server the batch `take` finds in its queues and
    /// return the slowest one's service time. *Every* server is asked,
    /// also for an empty batch: the servers are independent, so one
    /// faulting does not stop the others (their IO has been serviced and
    /// persists) — and a dead bay faults a round that sent it nothing.
    /// The first fault is reported with the index of its server.
    fn submit_round(
        &mut self,
        take: impl Fn(&mut OstQueues) -> Vec<BlockRequest>,
    ) -> Result<Nanos, (usize, IoFault)> {
        let mut elapsed: Nanos = 0;
        let mut first_fault = None;
        for (i, shard) in self.fs.shards.iter_mut().enumerate() {
            let batch = take(shard.queues.get_mut().expect(POISONED));
            let disk = shard.disk.get_mut().expect(POISONED);
            match disk.try_submit_batch(batch) {
                Ok(t) => elapsed = elapsed.max(t),
                Err(f) => {
                    first_fault.get_or_insert((i, f));
                }
            }
            *shard.powered_off.get_mut() = disk.powered_off();
        }
        first_fault.map_or(Ok(elapsed), Err)
    }

    /// Flush the write-back cache: one large sorted sweep per IO server.
    /// Returns the elapsed time of the flush (also added to the data
    /// clock by the callers that run outside a round).
    ///
    /// Under delayed allocation this is the moment allocation happens:
    /// each file's buffered ranges are sorted, coalesced into maximal runs
    /// and allocated with one request per run — "the opportunity to
    /// combine many block allocation requests into a single request"
    /// (§II-B). Frequent syncs shrink the runs and the benefit: an early
    /// sync forces allocation of whatever little has accumulated — the
    /// fragility the paper contrasts on-demand with.
    pub fn flush_writeback(&mut self) -> Nanos {
        expect_no_fault(self.try_flush_writeback())
    }

    /// Fallible [`FileSystem::flush_writeback`]. On a fault, the faulted
    /// server's unserviced tail is lost (as on a real crash) — the logical
    /// mapping survives in memory, so a recovery pass can rewrite it.
    pub fn try_flush_writeback(&mut self) -> Result<Nanos, (usize, IoFault)> {
        self.fs.allocate_delayed();
        if std::mem::take(self.fs.writeback_blocks.get_mut()) == 0 {
            return Ok(0);
        }
        self.submit_round(|q| std::mem::take(&mut q.writeback))
    }

    /// Flush dirty data and charge the time (fsync analogue).
    pub fn sync_data(&mut self) {
        expect_no_fault(self.try_sync_data())
    }

    /// Fallible [`FileSystem::sync_data`].
    pub fn try_sync_data(&mut self) -> Result<(), (usize, IoFault)> {
        self.fs.base_elapsed_ns += self.try_flush_writeback()?;
        Ok(())
    }

    // ----- fault injection --------------------------------------------------

    /// Install a seeded fault plan on every IO server (reseeded per disk).
    /// Use the `try_*` entry points afterwards — the infallible ones panic
    /// when a fault fires.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.fs.install_faults(plan);
    }

    /// Remove all fault injectors.
    pub fn clear_faults(&mut self) {
        self.fs.clear_faults();
    }

    /// Restore power to every IO server after injected power cuts (their
    /// volatile caches are lost).
    pub fn power_restore(&mut self) {
        self.fs.power_restore();
    }

    /// One IO server's fault counters, when a plan is installed.
    pub fn fault_stats(&self, ost: usize) -> Option<FaultStats> {
        self.fs.fault_stats(ost)
    }

    /// Is any IO server dead from an injected power cut?
    pub fn any_powered_off(&self) -> bool {
        self.fs.any_powered_off()
    }

    /// Convenience: run `f` inside a round and return the round time.
    pub fn round<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, Nanos) {
        self.begin_round();
        let r = f(self);
        (r, self.end_round())
    }

    // ----- data path --------------------------------------------------------

    /// Write `len` blocks at `offset` on behalf of `stream`. Unmapped
    /// blocks are allocated through the configured policy (this is the
    /// extending-write path the whole paper is about); mapped blocks are
    /// overwritten in place.
    pub fn write(&mut self, file: OpenFile, stream: StreamId, offset: u64, len: u64) {
        expect_no_fault(self.try_write(file, stream, offset, len));
    }

    /// Fallible [`FileSystem::write`]. Writes buffer in the write-back
    /// cache, so the only faults observable *at write time* are a dead
    /// server and a column on a `Failed` bay: buffering data toward an OST
    /// that lost power fails immediately, the way a real client's dirty
    /// pages would error once the server is unreachable. All other faults
    /// surface at submission time ([`FileSystem::try_end_round`] /
    /// [`FileSystem::try_sync_data`]).
    pub fn try_write(
        &mut self,
        file: OpenFile,
        stream: StreamId,
        offset: u64,
        len: u64,
    ) -> Result<(), (usize, IoFault)> {
        assert!(self.round_open, "write outside a round");
        self.fs.place_write(file, stream, offset, len)
    }

    /// Read `len` blocks at `offset` as `stream`. Requests carry a
    /// per-(stream, file) readahead context, so each sequential reader
    /// keeps its own ramp even when many readers interleave — the kernel's
    /// per-`struct file` readahead. Holes are skipped.
    pub fn read(&mut self, file: OpenFile, stream: StreamId, offset: u64, len: u64) {
        assert!(self.round_open, "read outside a round");
        self.fs.read(file, stream, offset, len)
    }

    /// Defragment (replicate-and-switch) a logical range: copy each OST's
    /// fragmented runs into one freshly allocated contiguous run, remap,
    /// and free the old placement — the data-reorganization approach of
    /// BORG/FS2/InterferenceRemoval (§II-B). The copy I/O is charged (read
    /// of the old placement + write of the new), which is exactly the
    /// "replication is not free at runtime" cost the paper holds against
    /// this class of solutions. Returns the simulated time spent.
    pub fn defragment_range(&mut self, file: OpenFile, offset: u64, len: u64) -> Nanos {
        self.sync_data();
        let t0 = self.data_elapsed_ns();
        let striping = self.striping_of(file).expect("defragment of unknown file");
        let (shift, ost_map) = (self.ost_shift_of(file).unwrap_or(0), self.ost_map_of(file));
        for (col, local, run, _) in striping.pieces(offset, len, shift) {
            let (col, ost) = (col as usize, ost_map[col as usize] as usize);
            let tree = &self.inner_mut(file).expect("striping_of found it").trees[col];
            let old_runs = tree.resolve(local, run);
            if old_runs.len() <= 1 {
                continue; // already contiguous (or a hole)
            }
            let total: u64 = old_runs.iter().map(|r| r.1).sum();
            // A contiguous destination near the old data.
            let Some(dest) = self.allocator(ost).alloc_run(old_runs[0].0, total) else {
                continue; // no contiguous space: nothing to gain
            };
            expect_no_fault(self.defrag_try_copy(ost, &old_runs, ost, dest, total));
            self.defrag_apply_remap(file, col, local, run, ost, dest, total);
        }
        self.data_elapsed_ns() - t0
    }

    // ----- defrag-engine hooks ---------------------------------------------
    //
    // `crates/defrag` drives its crash-safe relocation protocol through the
    // two hooks below plus the read-only accessors (`physical_layout`,
    // `allocator`, `block_allocated`). Unlike `defragment_range` above —
    // the §II-B replicate-and-switch baseline, which copies and remaps in
    // one non-atomic swoop — the engine separates the copy (fallible IO)
    // from the remap (a WAL-logged transaction), so a crash between them
    // leaves a recoverable state.

    /// Copy one relocation's data: read the old physical runs from
    /// `src_ost`, write the contiguous destination run on `dst_ost`
    /// (same OST for defrag, another bay for a drain evacuation),
    /// charging the IO. The caller owns both placements (old mapping still
    /// live, `dest` already claimed via `dst_ost`'s allocator) — this only
    /// moves bytes. Returns the simulated time; a fault surfaces as `Err`
    /// with nothing remapped.
    pub fn defrag_try_copy(
        &mut self,
        src_ost: usize,
        old_runs: &[(u64, u64)],
        dst_ost: usize,
        dest: u64,
        total: u64,
    ) -> Result<Nanos, (usize, IoFault)> {
        let reads: Vec<_> = old_runs.iter().map(|&(p, l)| (src_ost, p, l)).collect();
        self.tier_try_io(&reads, &[(dst_ost, dest, total)])
    }

    /// Apply (or re-apply) a relocation's extent remap: drop the old
    /// mapping of `logical..logical+len` in stripe column `col`, map its
    /// formerly-mapped sub-ranges consecutively onto the contiguous run at
    /// `dest` on `dst_ost` (holes preserved), free the old blocks on the
    /// column's *previous* OST, and repoint the column at `dst_ost`.
    /// `total` is the mapped-block count — the destination run's length.
    /// Same-OST defrag passes the column's current OST as `dst_ost`; a
    /// drain passes the evacuation target and must cover the column's
    /// whole mapped range (a column has exactly one physical home).
    ///
    /// Idempotent: if the span already resolves to exactly the destination
    /// run *and* the column already points at `dst_ost`, the remap was
    /// applied before the crash; nothing changes and `false` comes back.
    /// WAL redo after `Commit` relies on this.
    #[allow(clippy::too_many_arguments)]
    pub fn defrag_apply_remap(
        &mut self,
        file: OpenFile,
        col: usize,
        logical: u64,
        len: u64,
        dst_ost: usize,
        dest: u64,
        total: u64,
    ) -> bool {
        let Some(slot) = self.slot_mut(file) else {
            return false;
        };
        let src_ost = slot.ost_map[col] as usize;
        let tree = &mut slot.inner.get_mut().expect(POISONED).trees[col];
        if src_ost == dst_ost && tree.resolve(logical, len) == [(dest, total)] {
            return false; // already applied (WAL redo)
        }
        if src_ost != dst_ost {
            debug_assert_eq!(
                tree.mapped_blocks(),
                tree.resolve(logical, len).iter().map(|r| r.1).sum::<u64>(),
                "cross-OST remap must cover the column's whole mapping"
            );
        }
        let subs: Vec<(u64, u64)> = tree
            .extents()
            .filter(|e| e.logical < logical + len && logical < e.logical_end())
            .map(|e| {
                let lo = e.logical.max(logical);
                let hi = e.logical_end().min(logical + len);
                (lo, hi - lo)
            })
            .collect();
        debug_assert_eq!(
            subs.iter().map(|r| r.1).sum::<u64>(),
            total,
            "remap transaction does not match the live mapping"
        );
        let freed = tree.remove(logical, len);
        let mut dpos = dest;
        for (lstart, l) in subs {
            tree.insert(Extent::new(lstart, dpos, l));
            dpos += l;
        }
        slot.ost_map[col] = dst_ost as u32;
        for (phys, l) in freed {
            self.tier_free_run(src_ost, phys, l);
        }
        true
    }

    /// Repoint a column that maps *no* blocks at a new physical OST — the
    /// drain driver's path for files that never wrote to the draining
    /// bay's column. Pure metadata (there is nothing to copy, claim or
    /// journal); returns `false` if the column holds extents (use the
    /// relocation protocol) or already points at `dst_ost`.
    pub fn retarget_empty_column(&mut self, file: OpenFile, col: usize, dst_ost: usize) -> bool {
        let Some(slot) = self.slot_mut(file) else {
            return false;
        };
        let extents = slot.inner.get_mut().expect(POISONED).trees[col].extent_count();
        if extents != 0 || slot.ost_map[col] as usize == dst_ost {
            return false;
        }
        slot.ost_map[col] = dst_ost as u32;
        true
    }

    // ----- tier-engine hooks -----------------------------------------------
    //
    // `crates/tier` drives replica placement, 4+2 parity encoding and
    // rebuild through these hooks, following the defrag engine's shape:
    // probe/claim through the allocator, log an Intent, move bytes with
    // `tier_try_io` (fallible IO, nothing registered yet), log a Commit,
    // then register the artifact in the tier map. A crash between any two
    // steps is recoverable because the destination run carries no state
    // anyone depends on until the map update.

    /// The tier map: redundancy artifacts the tier layer derived from file
    /// data (replicas of hot spans, parity of cold stripe groups). The
    /// guard is a read lock nobody contends for; the borrow checker keeps
    /// it from being held across a `&mut self` call.
    pub fn tier(&self) -> RwLockReadGuard<'_, TierMap> {
        self.fs.tier.read().expect(POISONED)
    }

    /// Mutable tier map (artifact registration, invalidation, teardown).
    pub fn tier_mut(&mut self) -> &mut TierMap {
        self.fs.tier.get_mut().expect(POISONED)
    }

    /// Move one tier transaction's bytes: submit `reads` then `writes`
    /// (each `(ost, phys, len)`) as one round, charging the IO. Used for
    /// replica copies (read primary, write copy), parity encodes (read
    /// members, write parity) and rebuild (read survivors, rewrite the
    /// lost run). A fault surfaces as `Err` with nothing registered.
    pub fn tier_try_io(
        &mut self,
        reads: &[(usize, u64, u64)],
        writes: &[(usize, u64, u64)],
    ) -> Result<Nanos, (usize, IoFault)> {
        assert!(!self.round_open, "maintenance IO inside a round");
        self.try_sync_data()?;
        self.begin_round();
        let reads = reads
            .iter()
            .map(|&(ost, p, l)| (ost, BlockRequest::read(p, l)));
        let writes = writes
            .iter()
            .map(|&(ost, p, l)| (ost, BlockRequest::write(p, l)));
        for (ost, request) in reads.chain(writes) {
            self.queues_mut(ost).pending.push(request);
        }
        self.try_end_round()
    }

    /// Free one allocator-owned run (tier teardown commit / intent
    /// rollback, a remapped or truncated extent) and drop its cached
    /// blocks.
    pub fn tier_free_run(&mut self, ost: usize, phys: u64, len: u64) {
        self.allocator(ost).free(phys, len);
        self.disk_mut(ost).invalidate(phys, len);
    }

    /// Is any block of `phys..phys + len` on `ost` mapped by a live file
    /// extent? Tier-WAL recovery uses this ownership check before rolling
    /// back a dangling intent: a destination the files own was never the
    /// tier layer's to free.
    pub fn run_mapped_by_any_file(&self, ost: usize, phys: u64, len: u64) -> bool {
        for slot in self.fs.slots() {
            let inner = slot.inner.lock().expect(POISONED);
            for (col, tree) in inner.trees.iter().enumerate() {
                let overlaps = |e: &Extent| e.physical < phys + len && phys < e.physical + e.len;
                if slot.phys(col) == ost && tree.extents().any(overlaps) {
                    return true;
                }
            }
        }
        false
    }

    /// Fragment the OSTs' free space: allocate scattered holes so `frac` of
    /// every disk is occupied in runs of `hole_blocks`, spaced out evenly.
    /// Models a deployed file system whose free space is no longer one
    /// giant run — the condition under which reservation actually protects
    /// a file from inter-file fragmentation and vanilla allocation splits
    /// requests across holes (§I).
    pub fn fragment_free_space(&mut self, frac: f64, hole_blocks: u64) {
        assert!((0.0..1.0).contains(&frac) && hole_blocks > 0);
        let total = self.config.geometry.blocks;
        let holes = ((total as f64 * frac) / hole_blocks as f64) as u64;
        if holes == 0 {
            return;
        }
        let spacing = total / holes;
        assert!(spacing > hole_blocks, "fragmentation fraction too high");
        // Absent/failed bays have no free space to age.
        for ost in self.active_osts() {
            for h in 0..holes {
                // alloc_at keeps the pattern exact; failures (group
                // boundaries) are skipped.
                let _ = self
                    .allocator(ost as usize)
                    .alloc_at(h * spacing, hole_blocks);
            }
        }
    }

    // ----- introspection ----------------------------------------------------

    /// Total extents of a file across all OSTs (Table I "Seg Counts").
    pub fn file_extents(&self, file: OpenFile) -> u64 {
        self.fs.file_extents(file)
    }

    /// File size in blocks.
    pub fn file_size(&self, file: OpenFile) -> u64 {
        self.fs.file_size(file)
    }

    /// Blocks physically allocated to the file (mapped blocks).
    pub fn file_allocated(&self, file: OpenFile) -> u64 {
        self.fs.file_allocated(file)
    }

    /// Data-path elapsed time accumulated over all rounds (and over every
    /// front-end phase the state has been through).
    pub fn data_elapsed_ns(&self) -> Nanos {
        self.fs.data_elapsed_ns()
    }

    /// Aggregated data-disk statistics.
    pub fn data_stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        (0..self.total_osts()).for_each(|i| total.absorb(self.disk(i).stats()));
        total
    }

    /// Enable blktrace-style command recording on every data disk.
    pub fn enable_disk_recording(&mut self, capacity: usize) {
        (0..self.total_osts()).for_each(|i| self.disk_mut(i).enable_recording(capacity));
    }

    /// Recorded commands of one data disk, oldest first.
    pub fn disk_events(&self, ost: usize) -> Vec<mif_simdisk::DiskEvent> {
        self.disk(ost).recorder().events()
    }

    /// Free blocks across all OSTs.
    pub fn free_blocks(&self) -> u64 {
        self.fs.free_blocks()
    }

    /// Drop every data-disk cache (between write and read phases, so reads
    /// hit the platter as in the paper's experiments). Dirty write-back
    /// data is flushed (and charged) first.
    pub fn drop_data_caches(&mut self) {
        self.sync_data();
        (0..self.total_osts()).for_each(|i| self.disk_mut(i).drop_caches());
    }

    /// The metadata server (metadata benchmarks drive it directly).
    pub fn mds(&mut self) -> &mut Mds {
        self.fs.mds.get_mut().expect(POISONED)
    }

    /// Metrics snapshot for the Table I harness.
    pub fn metrics(&self) -> FsMetrics {
        self.fs.metrics()
    }

    /// The inode number the MDS assigned to a file.
    pub fn ino_of(&self, file: OpenFile) -> Option<InodeNo> {
        self.fs.with_inner(file, |f| f.ino)
    }

    /// The file's extent layout in one stripe column: `(column-local
    /// logical, physical, len)` runs in logical order (visualization /
    /// diagnostics). Physical blocks live on [`Self::ost_of_column`]'s
    /// bay. Columns past the file's width resolve to an empty layout —
    /// files narrower than the current population simply have no data on
    /// the extra bays.
    pub fn physical_layout(&self, file: OpenFile, col: usize) -> Vec<(u64, u64, u64)> {
        let layout = |f: &FileInner| {
            let extents = f.trees.get(col)?.extents();
            Some(extents.map(|e| (e.logical, e.physical, e.len)).collect())
        };
        self.fs
            .with_inner(file, layout)
            .flatten()
            .unwrap_or_default()
    }

    /// Stripe-column count (width) of a file — the active OST count when
    /// it was created. 0 for unknown files.
    pub fn column_count(&self, file: OpenFile) -> usize {
        self.fs.slot(file).map_or(0, |s| s.ost_map.len())
    }

    /// The physical OST currently hosting one of the file's columns.
    pub fn ost_of_column(&self, file: OpenFile, col: usize) -> Option<u32> {
        self.fs.slot(file)?.ost_map.get(col).copied()
    }

    /// The file's full column → physical OST map.
    pub fn ost_map_of(&self, file: OpenFile) -> Vec<u32> {
        self.fs.slot(file).map_or(Vec::new(), |s| s.ost_map.clone())
    }

    /// Is a physical block on `ost` currently allocated? (visualization /
    /// diagnostics — includes preallocation windows.)
    pub fn block_allocated(&self, ost: usize, block: u64) -> bool {
        self.allocator(ost).is_allocated(block)
    }

    // ----- disk-population lifecycle ---------------------------------------
    //
    // Per-bay health drives placement and maintenance: allocators refuse
    // draining/failed/absent bays, defrag and tier route around them, fsck
    // annotates instead of false-flagging, and the scrubber walks only
    // serving bays. Transitions are validated by the
    // [`DiskHealth::can_transition`] machine; the state itself is the
    // engine's per-shard atomic, read lock-free by its hot paths.

    /// Total disk bays (active + spares), the length of every per-OST
    /// structure.
    pub fn total_osts(&self) -> usize {
        self.fs.total_osts()
    }

    /// One bay's population state. Placement consults it; IO routing and
    /// maintenance (defrag, tier, fsck, scrub) route around non-serving
    /// bays.
    pub fn ost_health(&self, ost: usize) -> DiskHealth {
        self.fs.ost_health(ost)
    }

    /// All bays' population states, in bay order.
    pub fn ost_healths(&self) -> Vec<DiskHealth> {
        self.fs.ost_healths()
    }

    /// Drive one bay through a health transition. Panics on a jump the
    /// state machine forbids (e.g. `Absent → Draining`) — lifecycle bugs
    /// must not be silently absorbed.
    pub fn set_ost_health(&mut self, ost: usize, to: DiskHealth) {
        self.fs.set_ost_health(ost, to);
    }

    /// Bays currently accepting new placements (healthy), in bay order —
    /// the stripe target set for newly created files.
    pub fn active_osts(&self) -> Vec<u32> {
        self.fs.active_osts()
    }

    /// Kill one bay: the device stops serving IO (reads/writes fault with
    /// `DiskFailed`, IO still queued toward it is lost) and the bay leaves
    /// the placement set. Columns mapped there survive in metadata; a
    /// rebuild reconstructs their bytes from tier redundancy onto a
    /// replacement spindle.
    pub fn fail_ost(&mut self, ost: usize) {
        self.fs.fail_ost(ost);
    }

    /// Populate an empty bay live: a fresh spindle joins the placement
    /// set. Existing files keep their width; files created from now on
    /// stripe over the grown set.
    pub fn add_ost(&mut self, ost: usize) {
        self.fs.add_ost(ost);
    }

    /// Start evacuating one bay: it refuses *new* placements but keeps
    /// serving IO for the columns still on it while `mif-defrag`'s drain
    /// driver relocates them (crash-safe, WAL-journaled).
    pub fn begin_drain(&mut self, ost: usize) {
        self.set_ost_health(ost, DiskHealth::Draining);
    }

    /// Complete a drain: the bay must hold no file column; it leaves the
    /// population (`Absent`) and can later be re-added.
    pub fn finish_drain(&mut self, ost: usize) {
        let hosted = |slot: &Arc<FileSlot>| slot.ost_map.contains(&(ost as u32));
        assert!(
            !self.fs.slots().iter().any(hosted),
            "finish_drain with columns still on OST {ost}"
        );
        self.set_ost_health(ost, DiskHealth::Absent);
        // Tier artifacts housed on the retired bay die with it; invalid
        // runs are reaped by maintenance and their spans re-replicated.
        self.tier_mut().invalidate_on_bay(ost as u32);
        self.lifecycle_mut().drains_completed += 1;
    }

    /// Start rebuilding a failed bay onto a replacement spindle (fresh
    /// platters, empty cache, no latent damage). The rebuild engine then
    /// rewrites lost runs from tier redundancy.
    pub fn begin_rebuild(&mut self, ost: usize) {
        self.fs.begin_rebuild(ost);
    }

    /// Complete a rebuild: the bay serves and places again.
    pub fn finish_rebuild(&mut self, ost: usize) {
        self.set_ost_health(ost, DiskHealth::Healthy);
        self.lifecycle_mut().rebuilds_completed += 1;
    }

    /// Cumulative lifecycle counters (rebuilds, drains, scrub work).
    pub fn lifecycle(&self) -> LifecycleStats {
        self.fs.lifecycle()
    }

    /// Mutable lifecycle counters — the scrub/drain/rebuild drivers
    /// account their work here.
    pub fn lifecycle_mut(&mut self) -> &mut LifecycleStats {
        self.fs.lifecycle.get_mut().expect(POISONED)
    }

    /// Plant latent damage on one physical block (a grown media defect).
    /// Ordinary reads return stale bytes silently — only a scrub detects
    /// it, and any overwrite heals it. Test/bench corruption injection.
    pub fn damage_block(&mut self, ost: usize, block: u64) {
        self.disk_mut(ost).corrupt_block(block);
    }

    /// All latent-damaged blocks on one bay (oracle for tests/benches).
    pub fn damaged_blocks(&self, ost: usize) -> Vec<u64> {
        self.disk(ost).damaged_blocks()
    }

    /// Latent-damaged blocks within a physical range on one bay.
    pub fn damaged_in(&self, ost: usize, start: u64, len: u64) -> Vec<u64> {
        self.disk(ost).damaged_in(start, len)
    }

    /// Scrub-read a physical range on one bay: charges the media time of
    /// a verifying read and returns the damaged blocks found. Fails with
    /// `DiskFailed` on a dead bay.
    pub fn scrub_disk_range(
        &mut self,
        ost: usize,
        start: u64,
        len: u64,
    ) -> Result<Vec<u64>, IoFault> {
        self.disk_mut(ost).scrub_range(start, len)
    }

    // ----- fsck hooks -------------------------------------------------------
    //
    // The whole-filesystem checker (`mif-fsck`) snapshots allocator and
    // extent state through the read-only accessors below, and applies its
    // repairs through the `fsck_*` mutators. Corruption *injection* (the
    // `corrupt_*` methods) deliberately bypasses the allocator's
    // double-alloc/double-free guards — they exist so tests and the fsck
    // harness can plant the exact inconsistency classes the checker must
    // find, and have no place in the normal write path.

    /// All live file handles, sorted by file id (deterministic iteration
    /// for the checker's image builder).
    pub fn file_handles(&self) -> Vec<OpenFile> {
        let mut ids: Vec<OpenFile> = self.fs.slots().iter().map(|s| OpenFile(s.id)).collect();
        ids.sort_by_key(|f| f.0 .0);
        ids
    }

    /// The file's starting-OST rotation (checker reconstructs global
    /// logical offsets from per-OST local ones).
    pub fn ost_shift_of(&self, file: OpenFile) -> Option<u32> {
        self.fs.slot(file).map(|s| s.ost_shift)
    }

    /// One OST's block allocator (checker bitmap snapshots).
    pub fn allocator(&self, ost: usize) -> &GroupedAllocator {
        &self.fs.shards[ost].alloc
    }

    /// The striping function a file was created under (width = its column
    /// count; stripe unit from the config).
    pub fn striping_of(&self, file: OpenFile) -> Option<Striping> {
        let slot = self.fs.slot(file)?;
        Some(slot.striping(self.config.stripe_blocks))
    }

    /// Release every file's unconsumed preallocations on all OSTs. Offline
    /// fsck runs this before the leak check — like ext4 discarding
    /// in-memory preallocation ranges at recovery — so reservation windows
    /// are not misread as leaked blocks.
    pub fn release_preallocations(&mut self) {
        let ids = self.file_handles();
        for shard in &mut self.fs.shards {
            let policy = shard.policy.get_mut().expect(POISONED);
            ids.iter()
                .for_each(|id| policy.finalize(&shard.alloc, id.0));
        }
    }

    /// Corruption injection: force one allocator bitmap bit on `ost` to
    /// `set`, bypassing the double-op guards. Returns whether it changed.
    pub fn corrupt_bitmap(&mut self, ost: usize, block: u64, set: bool) -> bool {
        self.allocator(ost).force_bit(block, set)
    }

    /// Corruption injection: silently remap the extent covering `logical`
    /// in column `col` to start at `new_phys` — the on-disk tree now points
    /// at blocks the bitmap never granted it (or that another file owns).
    /// Returns the old physical start, or `None` if `logical` is a hole.
    pub fn corrupt_extent_remap(
        &mut self,
        file: OpenFile,
        col: usize,
        logical: u64,
        new_phys: u64,
    ) -> Option<u64> {
        self.inner_mut(file)?.trees[col].corrupt_set_physical(logical, new_phys)
    }

    /// Fsck repair: drop the mapping for a logical range *without freeing
    /// the physical blocks* — used when two extents claim the same blocks
    /// and the loser's mapping must be discarded while ownership stays
    /// with the winner. Returns the number of blocks unmapped.
    pub fn fsck_discard_mapping(
        &mut self,
        file: OpenFile,
        col: usize,
        logical: u64,
        len: u64,
    ) -> u64 {
        let Some(inner) = self.inner_mut(file) else {
            return 0;
        };
        let unmapped = inner.trees[col].remove(logical, len);
        unmapped.iter().map(|&(_, l)| l).sum()
    }

    /// Fsck repair: adopt orphaned physical runs (allocated in the bitmap
    /// but owned by no extent) into a `lost+found` file on `ost`. The runs
    /// are appended to the file's extent tree; the bitmap bits stay set,
    /// so conservation (free + mapped == total) is restored without
    /// guessing which file the blocks belonged to. Returns the handle.
    pub fn fsck_adopt_orphan_runs(&mut self, ost: usize, runs: &[(u64, u64)]) -> OpenFile {
        let named = |slot: &mut FileSlot| {
            (slot.inner.get_mut().expect(POISONED).name == "lost+found").then_some(slot.id)
        };
        let found = self.slots_mut().find_map(named);
        let lf = found.map_or_else(|| self.create("lost+found", None), OpenFile);
        let slot = self.slot_mut(lf).expect("lost+found exists");
        let inner = slot.inner.get_mut().expect(POISONED);
        // Adopt into the column living on the orphans' physical OST; if
        // lost+found has no column there (the bay joined after it was
        // created, or was draining then), append one — widths are
        // per-file, so growing this file's map is legal.
        let col = match slot.ost_map.iter().position(|&o| o as usize == ost) {
            Some(c) => c,
            None => {
                slot.ost_map.push(ost as u32);
                inner.push_column()
            }
        };
        let tree = &mut inner.trees[col];
        let mut logical = tree.logical_size();
        for &(phys, len) in runs {
            tree.insert(Extent::new(logical, phys, len));
            logical += len;
        }
        lf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::PolicyKind;

    fn fs(policy: PolicyKind) -> FileSystem {
        FileSystem::new(FsConfig::with_policy(policy, 2))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("a", None);
        let s = StreamId::new(1, 1);
        f.begin_round();
        f.write(file, s, 0, 64);
        f.end_round();
        f.sync_data();
        assert!(f.data_elapsed_ns() > 0);
        assert_eq!(f.file_size(file), 64);
        assert_eq!(f.file_allocated(file), 64);

        f.drop_data_caches();
        f.begin_round();
        f.read(file, s, 0, 64);
        f.end_round();
        assert!(f.data_stats().bytes_read > 0);
    }

    #[test]
    fn rename_repoints_name_and_resolves_old_ino() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("orig", None);
        let s = StreamId::new(1, 1);
        f.begin_round();
        f.write(file, s, 0, 16);
        f.end_round();
        let old_ino = f.mds().lookup(ROOT_INO, "orig").expect("exists");
        let new_ino = f.rename(file, "moved").expect("rename succeeds");
        assert_eq!(f.open("moved"), Some(file));
        assert!(f.open("orig").is_none());
        // Embedded mode re-composes the number but keeps the old one
        // resolving until management routines exit (§IV-B).
        assert_eq!(f.open_by_ino(old_ino), Some(file));
        f.end_management();
        if new_ino != old_ino {
            assert!(f.open_by_ino(old_ino).is_none());
        }
        assert_eq!(f.file_allocated(file), 16, "data untouched by rename");
    }

    #[test]
    fn write_stripes_over_osts() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("a", None);
        let s = StreamId::new(1, 1);
        f.begin_round();
        // 2 stripes worth: both OSTs get data.
        f.write(file, s, 0, 512);
        f.end_round();
        f.sync_data();
        assert!((0..2).all(|i| f.disk(i).stats().bytes_written > 0));
    }

    #[test]
    fn overwrite_does_not_reallocate() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("a", None);
        let s = StreamId::new(1, 1);
        f.round(|f| f.write(file, s, 0, 32));
        let allocated = f.file_allocated(file);
        let free = f.free_blocks();
        f.round(|f| f.write(file, s, 0, 32));
        assert_eq!(f.file_allocated(file), allocated);
        assert_eq!(f.free_blocks(), free);
    }

    #[test]
    fn interleaved_streams_fragment_reservation_but_not_ondemand() {
        let run = |policy| {
            let mut f = FileSystem::new(FsConfig::with_policy(policy, 1));
            let file = f.create("shared", None);
            let streams: Vec<_> = (0..8).map(|i| StreamId::new(i, 0)).collect();
            for round in 0..16u64 {
                f.begin_round();
                for (i, &s) in streams.iter().enumerate() {
                    // Each stream appends within its own region.
                    f.write(file, s, i as u64 * 1024 + round * 4, 4);
                }
                f.end_round();
            }
            let e = f.file_extents(file);
            f.close(file);
            e
        };
        let reservation = run(PolicyKind::Reservation);
        let ondemand = run(PolicyKind::OnDemand);
        assert!(
            ondemand * 4 <= reservation,
            "on-demand {ondemand} vs reservation {reservation} extents"
        );
    }

    #[test]
    fn static_policy_uses_hint_for_contiguity() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Static, 1));
        let file = f.create("shared", Some(8 * 1024));
        let streams: Vec<_> = (0..8).map(|i| StreamId::new(i, 0)).collect();
        for round in 0..16u64 {
            f.begin_round();
            for (i, &s) in streams.iter().enumerate() {
                f.write(file, s, i as u64 * 1024 + round * 4, 4);
            }
            f.end_round();
        }
        // Identity mapping: at most one extent per written region... in
        // fact regions coalesce into one whenever adjacent.
        assert!(f.file_extents(file) <= 8);
    }

    #[test]
    fn unlink_returns_space() {
        let mut f = fs(PolicyKind::OnDemand);
        let file = f.create("a", None);
        let s = StreamId::new(1, 1);
        let total = f.free_blocks();
        f.round(|f| f.write(file, s, 0, 64));
        f.close(file);
        assert!(f.free_blocks() < total);
        f.unlink(file);
        assert_eq!(f.free_blocks(), total);
    }

    #[test]
    fn metrics_count_extents_and_cpu() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("a", None);
        let s = StreamId::new(1, 1);
        f.round(|f| f.write(file, s, 0, 8));
        let m = f.metrics();
        assert!(m.extents >= 1);
        assert!(m.mds_cpu_ns > 0);
        assert_eq!(m.files, 1);
    }

    #[test]
    fn open_finds_created_file() {
        let mut f = fs(PolicyKind::Reservation);
        let a = f.create("a", None);
        assert_eq!(f.open("a"), Some(a));
        assert_eq!(f.open("missing"), None);
    }

    #[test]
    fn open_by_ino_resolves_current_identity() {
        let mut f = fs(PolicyKind::Reservation);
        let a = f.create("a", None);
        let ino = f.ino_of(a).expect("has an inode");
        assert_eq!(f.open_by_ino(ino), Some(a));
        assert_eq!(f.open_by_ino(mif_mds::InodeNo(0xDEAD)), None);
    }

    #[test]
    fn truncate_frees_the_tail_and_keeps_the_head() {
        let mut f = fs(PolicyKind::OnDemand);
        let total = f.free_blocks();
        let file = f.create("t", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 600));
        f.close(file);
        assert_eq!(f.file_allocated(file), 600);

        f.truncate(file, 200);
        assert_eq!(f.file_size(file), 200);
        assert_eq!(f.file_allocated(file), 200);
        assert_eq!(f.free_blocks(), total - 200);

        // Head still readable; tail is a hole. Growing again works.
        f.round(|f| {
            f.read(file, s, 0, 200);
            f.write(file, s, 200, 50);
        });
        f.sync_data();
        assert_eq!(f.file_allocated(file), 250);
        f.unlink(file);
        assert_eq!(f.free_blocks(), total);
    }

    #[test]
    fn truncate_to_larger_size_is_noop() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("t", None);
        f.round(|f| f.write(file, StreamId::new(1, 0), 0, 32));
        f.truncate(file, 100);
        assert_eq!(f.file_size(file), 32);
        assert_eq!(f.file_allocated(file), 32);
    }

    #[test]
    fn delayed_allocation_coalesces_interleaved_streams() {
        // §II-B: with no syncs, delayed allocation combines an interleaved
        // round sequence into a few large allocation requests.
        let run = |sync_every: Option<u64>| {
            let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Delayed, 1));
            let file = f.create("d", None);
            let streams: Vec<_> = (0..8).map(|i| StreamId::new(i, 0)).collect();
            for round in 0..32u64 {
                f.begin_round();
                for (i, &s) in streams.iter().enumerate() {
                    f.write(file, s, i as u64 * 256 + round * 4, 4);
                }
                f.end_round();
                if let Some(n) = sync_every {
                    if round % n == n - 1 {
                        f.sync_data();
                    }
                }
            }
            f.sync_data();
            f.file_extents(file)
        };
        let buffered = run(None);
        let synced = run(Some(1));
        assert!(
            buffered <= 16,
            "fully buffered: one run per region, got {buffered}"
        );
        assert!(
            synced > buffered * 4,
            "per-round fsync forces fragmented allocation: {synced} vs {buffered}"
        );
    }

    #[test]
    fn delayed_allocation_maps_everything_and_conserves_space() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Delayed, 2));
        let total = f.free_blocks();
        let file = f.create("d", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 64));
        // Nothing allocated until write-back.
        assert_eq!(f.file_allocated(file), 0);
        f.sync_data();
        assert_eq!(f.file_allocated(file), 64);
        f.unlink(file);
        assert_eq!(f.free_blocks(), total);
    }

    #[test]
    fn delayed_overwrite_after_flush_writes_in_place() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Delayed, 1));
        let file = f.create("d", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 16));
        f.sync_data();
        let allocated = f.file_allocated(file);
        f.round(|f| f.write(file, s, 0, 16));
        f.sync_data();
        assert_eq!(f.file_allocated(file), allocated, "overwrite reallocated");
    }

    #[test]
    fn cow_relocates_overwrites_and_conserves_space() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Cow, 1));
        let total = f.free_blocks();
        let file = f.create("c", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 64));
        f.sync_data();
        let first_layout = f.physical_layout(file, 0);
        assert_eq!(f.file_allocated(file), 64);

        // Overwrite the middle: CoW moves it to the log head.
        f.round(|f| f.write(file, s, 16, 8));
        f.sync_data();
        assert_eq!(f.file_allocated(file), 64, "no net growth");
        let second_layout = f.physical_layout(file, 0);
        assert_ne!(first_layout, second_layout, "overwrite relocated");
        assert!(
            f.file_extents(file) >= 3,
            "relocation fragments the mapping: {}",
            f.file_extents(file)
        );
        f.unlink(file);
        assert_eq!(f.free_blocks(), total);
    }

    #[test]
    fn cow_writes_never_overwrite_in_place() {
        // The defining CoW property: an overwrite's new physical location
        // differs from the old one.
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Cow, 1));
        let file = f.create("c", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 8));
        f.sync_data();
        let old = f.physical_layout(file, 0)[0].1;
        f.round(|f| f.write(file, s, 0, 8));
        f.sync_data();
        let new = f.physical_layout(file, 0)[0].1;
        assert_ne!(old, new);
    }

    #[test]
    fn defragment_collapses_extents_and_preserves_mapping() {
        // Build a fragmented shared file under reservation, defragment the
        // regions, verify mapping equivalence and extent collapse.
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, 1));
        let total = f.free_blocks();
        let file = f.create("frag", None);
        let streams: Vec<_> = (0..4).map(|i| StreamId::new(i, 0)).collect();
        for round in 0..16u64 {
            f.begin_round();
            for (i, &s) in streams.iter().enumerate() {
                f.write(file, s, i as u64 * 64 + round * 4, 4);
            }
            f.end_round();
        }
        f.sync_data();
        f.close(file);
        let before = f.file_extents(file);
        assert!(before >= 32, "fragmented: {before} extents");

        let t = f.defragment_range(file, 0, 4 * 64);
        assert!(t > 0, "replication charged time");
        assert!(
            f.file_extents(file) <= 4,
            "defragmented: {} extents",
            f.file_extents(file)
        );
        assert_eq!(f.file_allocated(file), 4 * 64, "mapping preserved");
        f.unlink(file);
        assert_eq!(f.free_blocks(), total, "old placement freed");
    }

    #[test]
    fn defragment_skips_contiguous_and_holes() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Static, 1));
        let file = f.create("c", Some(64));
        f.round(|f| f.write(file, StreamId::new(0, 0), 0, 64));
        f.sync_data();
        let layout = f.physical_layout(file, 0);
        let t = f.defragment_range(file, 0, 64);
        assert_eq!(t, 0, "already contiguous: no copy");
        assert_eq!(f.physical_layout(file, 0), layout);
        // A pure hole is also a no-op.
        let sparse = f.create("s", None);
        assert_eq!(f.defragment_range(sparse, 0, 128), 0);
    }

    #[test]
    fn close_of_last_handle_releases_preallocations() {
        // Regression (defrag satellite): a closed file must not pin
        // reserved-but-unwritten window blocks out of the free pool.
        for policy in [PolicyKind::OnDemand, PolicyKind::Reservation] {
            let mut f = fs(policy);
            let total = f.free_blocks();
            let file = f.create("idle", None);
            f.round(|f| f.write(file, StreamId::new(1, 0), 0, 4));
            f.sync_data();
            assert!(
                total - f.free_blocks() > 4,
                "{policy}: windows reserved beyond the 4 written blocks"
            );
            assert!(f.has_live_preallocation(file), "{policy}");
            f.close(file);
            assert_eq!(
                total - f.free_blocks(),
                4,
                "{policy}: close left reserved-but-unwritten blocks pinned"
            );
            assert!(!f.has_live_preallocation(file), "{policy}");
            assert_eq!(f.open_handle_count(file), 0);
        }
    }

    #[test]
    fn windows_survive_until_last_handle_closes() {
        let mut f = fs(PolicyKind::OnDemand);
        let file = f.create("shared", None);
        let second = f.open("shared").expect("exists");
        assert_eq!(second, file);
        assert_eq!(f.open_handle_count(file), 2);
        f.round(|f| f.write(file, StreamId::new(1, 0), 0, 4));
        f.sync_data();
        let free_before = f.free_blocks();
        f.close(file);
        assert_eq!(f.open_handle_count(file), 1);
        assert_eq!(
            f.free_blocks(),
            free_before,
            "first close must not release another opener's windows"
        );
        assert!(f.has_live_preallocation(file));
        f.close(second);
        assert!(f.free_blocks() > free_before, "last close releases windows");
        assert!(!f.has_live_preallocation(file));
    }

    #[test]
    fn defrag_hooks_copy_and_remap_idempotently() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, 1));
        let file = f.create("frag", None);
        let streams: Vec<_> = (0..4).map(|i| StreamId::new(i, 0)).collect();
        for round in 0..8u64 {
            f.begin_round();
            for (i, &s) in streams.iter().enumerate() {
                f.write(file, s, i as u64 * 64 + round * 4, 4);
            }
            f.end_round();
        }
        f.sync_data();
        f.close(file);
        let old_runs = f.inner_mut(file).unwrap().trees[0].resolve(0, 4 * 64);
        assert!(old_runs.len() > 1, "fragmented on purpose");
        let total: u64 = old_runs.iter().map(|r| r.1).sum();
        let dest = f.allocator(0).probe_run(0, total).expect("space exists");
        assert!(f.allocator(0).alloc_at(dest, total));

        let t = f
            .defrag_try_copy(0, &old_runs, 0, dest, total)
            .expect("no faults installed");
        assert!(t > 0, "copy IO is charged");
        assert!(f.defrag_apply_remap(file, 0, 0, 4 * 64, 0, dest, total));
        assert_eq!(
            f.inner_mut(file).unwrap().trees[0].resolve(0, 4 * 64),
            vec![(dest, total)]
        );
        // Redo (WAL replay after crash-post-commit) is a no-op.
        assert!(!f.defrag_apply_remap(file, 0, 0, 4 * 64, 0, dest, total));
        assert_eq!(f.file_allocated(file), total);
    }

    #[test]
    fn spare_bays_start_absent_and_join_on_add() {
        let mut cfg = FsConfig::with_policy(PolicyKind::Reservation, 2);
        cfg.spare_osts = 1;
        let mut f = FileSystem::new(cfg);
        assert_eq!(f.total_osts(), 3);
        assert_eq!(f.ost_health(2), DiskHealth::Absent);
        assert_eq!(f.active_osts(), vec![0, 1]);

        // Files created before the expansion stripe over 2 bays.
        let narrow = f.create("narrow", None);
        assert_eq!(f.column_count(narrow), 2);

        f.add_ost(2);
        assert_eq!(f.ost_health(2), DiskHealth::Healthy);
        assert_eq!(f.active_osts(), vec![0, 1, 2]);
        assert_eq!(f.lifecycle().osts_added, 1);

        // Files created after it stripe over 3; the old one keeps width 2.
        let wide = f.create("wide", None);
        assert_eq!(f.column_count(wide), 3);
        assert_eq!(f.ost_map_of(wide), vec![0, 1, 2]);
        assert_eq!(f.column_count(narrow), 2);

        let s = StreamId::new(1, 0);
        f.round(|f| f.write(wide, s, 0, 3 * 256));
        f.sync_data();
        assert_eq!(f.file_allocated(wide), 3 * 256);
        assert!(f.disk(2).stats().bytes_written > 0);
    }

    #[test]
    fn draining_bay_refuses_new_placements_but_serves_existing() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, 3));
        let old = f.create("old", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(old, s, 0, 3 * 256));
        f.sync_data();

        f.begin_drain(2);
        assert_eq!(f.ost_health(2), DiskHealth::Draining);
        // New files avoid the draining bay...
        let fresh = f.create("fresh", None);
        assert_eq!(f.ost_map_of(fresh), vec![0, 1]);
        // ...but the old file's column there still extends and reads.
        f.round(|f| f.write(old, s, 3 * 256, 3 * 256));
        f.sync_data();
        f.round(|f| f.read(old, s, 0, 6 * 256));
        assert_eq!(f.file_allocated(old), 6 * 256);
    }

    #[test]
    #[should_panic(expected = "illegal OST")]
    fn illegal_health_transition_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut cfg = FsConfig::with_policy(PolicyKind::Reservation, 2);
        cfg.spare_osts = 1;
        let mut f = FileSystem::new(cfg);
        // The transition is validated before the device is touched: an
        // empty bay cannot fail, a healthy one cannot be swapped.
        assert!(catch_unwind(AssertUnwindSafe(|| f.fail_ost(2))).is_err());
        assert!(!f.disk(2).failed(), "Absent -> Failed refused, disk alive");
        assert_eq!(f.ost_health(2), DiskHealth::Absent);
        f.damage_block(0, 5);
        assert!(catch_unwind(AssertUnwindSafe(|| f.begin_rebuild(0))).is_err());
        assert_eq!(f.damaged_blocks(0), vec![5], "platters not replaced");
        assert_eq!(f.ost_health(0), DiskHealth::Healthy);
        f.set_ost_health(0, DiskHealth::Rebuilding); // Healthy -> Rebuilding: no
    }

    /// The servers are independent and every one of them is asked at every
    /// submission, so a dead bay faults a round that queued nothing for it
    /// — while the live bays' batches are serviced and the round closes.
    #[test]
    fn a_round_asks_every_server() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, 3));
        f.fail_ost(2);
        let file = f.create("narrow", None);
        assert_eq!(f.ost_map_of(file), vec![0, 1], "no column on the dead bay");
        let s = StreamId::new(1, 0);
        f.begin_round();
        f.write(file, s, 0, 512);
        assert_eq!(f.try_end_round(), Err((2, IoFault::DiskFailed)));
        // The flush is a submission too; bays 0 and 1 take their sweeps.
        assert_eq!(f.try_sync_data(), Err((2, IoFault::DiskFailed)));
        assert!((0..2).all(|i| f.disk(i).stats().bytes_written > 0));
        assert_eq!(f.disk(2).stats().bytes_written, 0);
        f.begin_round(); // the faulted round was closed
        f.read(file, s, 0, 512);
        assert_eq!(f.try_end_round(), Err((2, IoFault::DiskFailed)));
    }

    #[test]
    fn damage_is_latent_until_scrubbed_and_heals_on_write() {
        let mut f = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, 1));
        let file = f.create("d", None);
        let s = StreamId::new(1, 0);
        f.round(|f| f.write(file, s, 0, 64));
        f.sync_data();
        let (_, phys, _) = f.physical_layout(file, 0)[0];
        f.damage_block(0, phys + 3);
        // Ordinary read path: no error (latent).
        f.drop_data_caches();
        f.round(|f| f.read(file, s, 0, 64));
        // The scrub detects it; an overwrite heals it.
        assert_eq!(
            f.scrub_disk_range(0, phys, 64).expect("bay alive"),
            vec![phys + 3]
        );
        f.round(|f| f.write(file, s, 0, 64));
        f.sync_data();
        assert!(f.scrub_disk_range(0, phys, 64).expect("alive").is_empty());
    }

    #[test]
    #[should_panic(expected = "write outside a round")]
    fn write_requires_round() {
        let mut f = fs(PolicyKind::Reservation);
        let file = f.create("a", None);
        f.write(file, StreamId::new(1, 1), 0, 4);
    }
}
