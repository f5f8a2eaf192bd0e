//! Layer 2: the crash-safe relocation engine.
//!
//! One relocation moves a file's entire mapping on one OST into a single
//! contiguous destination run. The protocol orders its steps so that a
//! crash at *any* point leaves exactly one of {old mapping, new mapping}
//! live — never both, never neither:
//!
//! 1. probe a destination run (read-only — names it without claiming it);
//! 2. WAL `Intent` naming the probed destination, *before* any state
//!    change;
//! 3. claim the destination via `alloc_at` (atomic, all-or-nothing);
//! 4. copy the live data through the simulated disks (fallible IO);
//! 5. WAL `Commit` — the transaction's point of no return;
//! 6. apply the extent remap (idempotent).
//!
//! Crash before 5 → [`recover`] rolls back: the destination holds no
//! *reachable* data, so its blocks are freed (if they were ever claimed)
//! and the old mapping stands. Crash after 5 → recovery rolls forward:
//! the copy is durable, so the remap is re-applied. An IO fault during 4
//! aborts the relocation in place: the destination is freed immediately
//! and the intent record left dangling — recovery's ownership check makes
//! that harmless.

use mif_core::{FileSystem, OpenFile};
use mif_mds::{RecoveryStop, RemapOp, RemapRecovery, RemapTxn, RemapWal};
use mif_simdisk::{IoFault, Nanos};

/// Where to inject a power cut inside one relocation. Every point of the
/// protocol where durable state (WAL image, allocator, disk) has changed
/// is represented, including torn WAL appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Intent record only partially persisted; nothing else changed.
    TornIntent { persisted: usize },
    /// Intent durable; destination not yet claimed.
    AfterIntent,
    /// Intent durable and destination claimed; no data copied.
    AfterAlloc,
    /// Data copied to the destination; commit record not written.
    AfterCopy,
    /// Commit record only partially persisted after the copy.
    TornCommit { persisted: usize },
    /// Commit durable; extent remap not yet applied.
    AfterCommit,
}

/// What one relocation attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Data moved and remapped; `copy_ns` is the simulated copy time.
    Done { txn: RemapTxn, copy_ns: Nanos },
    /// Nothing to do or nowhere to go; no state changed.
    Skipped(SkipReason),
    /// Injected power cut fired at `point`; state is as the protocol left
    /// it — run [`recover`] against the WAL image to settle it.
    Crashed { point: CrashPoint, txn: RemapTxn },
    /// The data copy hit an injected IO fault; the destination was freed
    /// and the old mapping is untouched (the intent record dangles).
    Faulted { ost: usize, fault: IoFault },
}

/// Why a relocation was not attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The mapping is already packed: one physical run serves the whole
    /// file in logical order (logical holes allowed — the extent tree
    /// keeps one extent per logical run, but a sequential read never
    /// seeks). Relocating would move data for no layout gain.
    AlreadyContiguous,
    /// No free run large enough for the whole mapping.
    NoSpace,
}

/// Is this layout already packed — physically consecutive in logical
/// order? (`physical_layout` tuples: `(logical, physical, len)`.)
pub fn is_packed(layout: &[(u64, u64, u64)]) -> bool {
    layout.windows(2).all(|w| w[1].1 == w[0].1 + w[0].2)
}

/// Relocate `file`'s mapping on stripe column `col` into one contiguous
/// run on the column's *current* physical OST — the same-OST defrag pass.
/// Already-packed layouts are skipped (relocating would move data for no
/// layout gain). `crash` injects a power cut at the given protocol point
/// (the function returns instead of finishing — the caller then models
/// the reboot by calling [`recover`]).
pub fn relocate_ost(
    fs: &mut FileSystem,
    wal: &mut RemapWal,
    file: OpenFile,
    col: usize,
    crash: Option<CrashPoint>,
) -> Outcome {
    let Some(src) = fs.ost_of_column(file, col) else {
        return Outcome::Skipped(SkipReason::AlreadyContiguous);
    };
    relocate_column(fs, wal, file, col, src as usize, crash)
}

/// Relocate `file`'s mapping on stripe column `col` into one contiguous
/// run on `dst_ost`, through the same crash-safe protocol. With
/// `dst_ost` equal to the column's current home this is defragmentation
/// (packed layouts are skipped); with a different `dst_ost` it is an
/// *evacuation* step — the whole column moves, packed or not, and the
/// file's `ost_map` retargets to `dst_ost` at the final remap. The drain
/// driver feeds every column of a draining bay through this.
pub fn relocate_column(
    fs: &mut FileSystem,
    wal: &mut RemapWal,
    file: OpenFile,
    col: usize,
    dst_ost: usize,
    crash: Option<CrashPoint>,
) -> Outcome {
    let Some(src_ost) = fs.ost_of_column(file, col).map(|o| o as usize) else {
        return Outcome::Skipped(SkipReason::AlreadyContiguous);
    };
    let moving = src_ost != dst_ost;
    let layout = fs.physical_layout(file, col);
    if layout.is_empty() || (!moving && (layout.len() <= 1 || is_packed(&layout))) {
        return Outcome::Skipped(SkipReason::AlreadyContiguous);
    }
    let logical = layout[0].0;
    let (last_l, _, last_n) = *layout.last().expect("non-empty layout");
    let len = last_l + last_n - logical;
    let total: u64 = layout.iter().map(|&(_, _, n)| n).sum();
    // Same-OST: aim near the file's largest existing run — the dominant
    // group keeps locality and the big run itself is freed right back
    // into it. Cross-OST: source addresses mean nothing on the new disk.
    let goal = if moving {
        0
    } else {
        layout
            .iter()
            .max_by_key(|&&(_, _, n)| n)
            .map(|&(_, p, _)| p)
            .expect("non-empty layout")
    };
    let Some(dest) = fs.allocator(dst_ost).probe_run(goal, total) else {
        return Outcome::Skipped(SkipReason::NoSpace);
    };
    let txn = RemapTxn {
        file: file.0 .0,
        ost: col as u32,
        logical,
        len,
        dest,
        total,
        dst_ost: dst_ost as u32,
    };

    // Step 2: intent first — before the allocator or disk change at all.
    if let Some(CrashPoint::TornIntent { persisted }) = crash {
        wal.append_torn(&RemapOp::Intent(txn), persisted);
        return Outcome::Crashed {
            point: CrashPoint::TornIntent { persisted },
            txn,
        };
    }
    wal.append(&RemapOp::Intent(txn));
    if crash == Some(CrashPoint::AfterIntent) {
        return Outcome::Crashed {
            point: CrashPoint::AfterIntent,
            txn,
        };
    }

    // Step 3: claim the probed run. Single-threaded engine: the probe's
    // run is still free, so the atomic claim cannot fail.
    let claimed = fs.allocator(dst_ost).alloc_at(dest, total);
    assert!(claimed, "probed destination run vanished");
    if crash == Some(CrashPoint::AfterAlloc) {
        return Outcome::Crashed {
            point: CrashPoint::AfterAlloc,
            txn,
        };
    }

    // Step 4: move the bytes. A fault aborts in place: release the
    // destination and leave the (harmless) dangling intent.
    let old_runs: Vec<(u64, u64)> = layout.iter().map(|&(_, p, n)| (p, n)).collect();
    let copy_ns = match fs.defrag_try_copy(src_ost, &old_runs, dst_ost, dest, total) {
        Ok(ns) => ns,
        Err((fost, fault)) => {
            fs.allocator(dst_ost).free(dest, total);
            return Outcome::Faulted { ost: fost, fault };
        }
    };
    if crash == Some(CrashPoint::AfterCopy) {
        return Outcome::Crashed {
            point: CrashPoint::AfterCopy,
            txn,
        };
    }

    // Step 5: commit — after this record is durable the new run wins.
    if let Some(CrashPoint::TornCommit { persisted }) = crash {
        wal.append_torn(&RemapOp::Commit(txn), persisted);
        return Outcome::Crashed {
            point: CrashPoint::TornCommit { persisted },
            txn,
        };
    }
    wal.append(&RemapOp::Commit(txn));
    if crash == Some(CrashPoint::AfterCommit) {
        return Outcome::Crashed {
            point: CrashPoint::AfterCommit,
            txn,
        };
    }

    // Step 6: switch the mapping and free the old blocks.
    let applied = fs.defrag_apply_remap(file, col, logical, len, dst_ost, dest, total);
    debug_assert!(applied, "fresh commit must apply");
    Outcome::Done { txn, copy_ns }
}

/// What [`recover`] did after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct DefragRecovery {
    /// Committed transactions whose remap had to be re-applied.
    pub redone: usize,
    /// Dangling intents whose claimed destination was released.
    pub rolled_back: usize,
    /// Blocks freed by rollbacks.
    pub freed_blocks: u64,
    /// Where the WAL scan stopped.
    pub stop: RecoveryStop,
}

/// Mount-time recovery: scan the remap WAL image and settle every
/// transaction — committed ones roll forward (idempotent re-apply),
/// dangling intents roll back (release the destination iff it is still
/// claimed and no extent owns it).
///
/// Mirrors ext4: preallocation windows are discarded first, so the
/// ownership check below only sees blocks that are either extent-owned
/// or leaked by an interrupted relocation.
pub fn recover(fs: &mut FileSystem, image: &[u8]) -> DefragRecovery {
    fs.release_preallocations();
    let scan = RemapRecovery::scan(image, 0);

    let mut pending: Vec<RemapTxn> = Vec::new();
    let mut redone = 0usize;
    for op in &scan.ops {
        match op {
            RemapOp::Intent(t) => pending.push(*t),
            RemapOp::Commit(t) => {
                if let Some(i) = pending.iter().rposition(|p| p == t) {
                    pending.remove(i);
                }
                let file = OpenFile(mif_alloc::FileId(t.file));
                if fs.defrag_apply_remap(
                    file,
                    t.ost as usize,
                    t.logical,
                    t.len,
                    t.dst_ost as usize,
                    t.dest,
                    t.total,
                ) {
                    redone += 1;
                }
            }
        }
    }

    // Roll back dangling intents, oldest first. An intent's destination
    // is freed only when every block of the run is still claimed and no
    // file's extent maps into it — anything else means the claim never
    // happened, was already released (IO-fault abort), or the run has
    // since been legitimately reused.
    let mut rolled_back = 0usize;
    let mut freed_blocks = 0u64;
    for t in &pending {
        if t.total == 0 {
            continue;
        }
        // The intent's claimed destination lives on `dst_ost` — for a
        // same-OST defrag that is the column's own disk, for a drain the
        // evacuation target.
        let ost = t.dst_ost as usize;
        let alloc = fs.allocator(ost);
        let all_claimed =
            (t.dest..t.dest + t.total).all(|b| b < alloc.capacity() && alloc.is_allocated(b));
        if !all_claimed {
            continue;
        }
        // Ownership speaks physical disks: any column of any file mapping
        // into the run (the tier map's runs are checked by fsck, not here
        // — an intent's destination is never a tier run).
        if fs.run_mapped_by_any_file(ost, t.dest, t.total) {
            continue;
        }
        fs.allocator(ost).free(t.dest, t.total);
        rolled_back += 1;
        freed_blocks += t.total;
    }

    DefragRecovery {
        redone,
        rolled_back,
        freed_blocks,
        stop: scan.stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::{PolicyKind, StreamId};
    use mif_core::FsConfig;
    use mif_simdisk::FaultPlan;

    fn fragmented_fs() -> (FileSystem, OpenFile) {
        let mut cfg = FsConfig::with_policy(PolicyKind::Vanilla, 1);
        cfg.groups_per_ost = 4;
        let mut fs = FileSystem::new(cfg);
        let file = fs.create("victim", None);
        let streams: Vec<_> = (0..4).map(|i| StreamId::new(i, 0)).collect();
        for round in 0..6u64 {
            fs.begin_round();
            for (i, &s) in streams.iter().enumerate() {
                fs.write(file, s, i as u64 * 64 + round * 4, 4);
            }
            fs.end_round();
        }
        fs.sync_data();
        fs.close(file);
        (fs, file)
    }

    fn contents(fs: &mut FileSystem, file: OpenFile) -> Vec<(u64, u64, u64)> {
        fs.physical_layout(file, 0)
    }

    #[test]
    fn relocate_collapses_to_one_extent() {
        let (mut fs, file) = fragmented_fs();
        let before = contents(&mut fs, file);
        assert!(before.len() > 1);
        let mapped: u64 = before.iter().map(|&(_, _, n)| n).sum();
        let free_before = fs.free_blocks();

        let mut wal = RemapWal::new();
        let out = relocate_ost(&mut fs, &mut wal, file, 0, None);
        let Outcome::Done { txn, .. } = out else {
            panic!("expected Done, got {out:?}");
        };
        let after = contents(&mut fs, file);
        assert!(after.len() < before.len(), "extents merged");
        assert!(is_packed(&after), "one physical run in logical order");
        assert_eq!(after[0].1, txn.dest, "run starts at the logged dest");
        assert_eq!(
            after.iter().map(|&(_, _, n)| n).sum::<u64>(),
            mapped,
            "no blocks gained or lost"
        );
        assert_eq!(fs.free_blocks(), free_before, "net allocation unchanged");
        assert_eq!(wal.len(), 2, "intent + commit");
    }

    #[test]
    fn second_pass_is_a_no_op() {
        let (mut fs, file) = fragmented_fs();
        let mut wal = RemapWal::new();
        assert!(matches!(
            relocate_ost(&mut fs, &mut wal, file, 0, None),
            Outcome::Done { .. }
        ));
        assert_eq!(
            relocate_ost(&mut fs, &mut wal, file, 0, None),
            Outcome::Skipped(SkipReason::AlreadyContiguous)
        );
    }

    #[test]
    fn crash_before_commit_rolls_back() {
        for point in [
            CrashPoint::TornIntent { persisted: 7 },
            CrashPoint::AfterIntent,
            CrashPoint::AfterAlloc,
            CrashPoint::AfterCopy,
            CrashPoint::TornCommit { persisted: 40 },
        ] {
            let (mut fs, file) = fragmented_fs();
            let before = contents(&mut fs, file);
            let free_before = fs.free_blocks();
            let mut wal = RemapWal::new();
            let out = relocate_ost(&mut fs, &mut wal, file, 0, Some(point));
            assert!(matches!(out, Outcome::Crashed { .. }), "{point:?}: {out:?}");

            let rec = recover(&mut fs, wal.image());
            assert_eq!(rec.redone, 0, "{point:?}");
            assert_eq!(
                contents(&mut fs, file),
                before,
                "{point:?}: old mapping stands"
            );
            assert_eq!(fs.free_blocks(), free_before, "{point:?}: no leak");
        }
    }

    #[test]
    fn crash_after_commit_rolls_forward() {
        let (mut fs, file) = fragmented_fs();
        let free_before = fs.free_blocks();
        let mut wal = RemapWal::new();
        let out = relocate_ost(&mut fs, &mut wal, file, 0, Some(CrashPoint::AfterCommit));
        let Outcome::Crashed { txn, .. } = out else {
            panic!("expected Crashed, got {out:?}");
        };

        let rec = recover(&mut fs, wal.image());
        assert_eq!(rec.redone, 1);
        assert_eq!(rec.rolled_back, 0);
        let after = contents(&mut fs, file);
        assert!(is_packed(&after), "new mapping wins");
        assert_eq!(after[0].1, txn.dest);
        assert_eq!(after.iter().map(|&(_, _, n)| n).sum::<u64>(), txn.total);
        assert_eq!(fs.free_blocks(), free_before, "old run was released");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut fs, file) = fragmented_fs();
        let mut wal = RemapWal::new();
        relocate_ost(&mut fs, &mut wal, file, 0, Some(CrashPoint::AfterCommit));
        let first = recover(&mut fs, wal.image());
        assert_eq!(first.redone, 1);
        let layout = contents(&mut fs, file);
        let free = fs.free_blocks();

        let second = recover(&mut fs, wal.image());
        assert_eq!(second.redone, 0, "re-apply detects the applied remap");
        assert_eq!(second.rolled_back, 0);
        assert_eq!(contents(&mut fs, file), layout);
        assert_eq!(fs.free_blocks(), free);
    }

    #[test]
    fn io_fault_aborts_cleanly_and_engine_continues() {
        let (mut fs, file) = fragmented_fs();
        let before = contents(&mut fs, file);
        let free_before = fs.free_blocks();
        let mut wal = RemapWal::new();

        // Every IO faults: the copy aborts, destination released.
        fs.install_faults(FaultPlan::from_seed(9).with_io_errors(1.0));
        let out = relocate_ost(&mut fs, &mut wal, file, 0, None);
        assert!(matches!(out, Outcome::Faulted { .. }), "{out:?}");
        assert_eq!(contents(&mut fs, file), before);
        assert_eq!(fs.free_blocks(), free_before, "destination released");
        assert_eq!(wal.len(), 1, "dangling intent stays in the log");

        // Faults lifted: the next attempt succeeds over the same WAL.
        fs.clear_faults();
        assert!(matches!(
            relocate_ost(&mut fs, &mut wal, file, 0, None),
            Outcome::Done { .. }
        ));
        // Recovery over the full image (dangling intent + done txn) must
        // not disturb the settled state.
        let layout = contents(&mut fs, file);
        let free = fs.free_blocks();
        let rec = recover(&mut fs, wal.image());
        assert_eq!(
            rec.rolled_back, 0,
            "fault-aborted intent's run not reclaimable"
        );
        assert_eq!(contents(&mut fs, file), layout);
        assert_eq!(fs.free_blocks(), free);
    }
}
