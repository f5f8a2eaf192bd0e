//! Layer 4: the online drain driver.
//!
//! Evacuates one bay so it can leave the population: every stripe column
//! any file keeps on the draining OST is relocated — whole-column, WAL-
//! journaled, through the same crash-safe Intent/Commit protocol as
//! defragmentation ([`crate::relocate::relocate_column`]) — onto the bays
//! currently accepting placements. A power cut at *any* point leaves the
//! system fsck-clean: recovery ([`crate::recover`]) rolls committed moves
//! forward and dangling intents back, and the interrupted drain simply
//! resumes (columns already moved are no longer on the bay).
//!
//! The driver reuses the defrag scheduler's throttle shape: a block-move
//! budget per tick with latency-driven backoff, so an evacuation rides in
//! the background instead of stealing the foreground's disk time. Unlike
//! defragmentation it cannot *skip* busy files — a drain must finish — so
//! preallocation windows are released up front (the drain is a
//! maintenance pass over a quiesced engine, exactly like fsck).

use crate::relocate::{relocate_column, Outcome, SkipReason};
use mif_core::{DiskHealth, FileSystem, OpenFile};
use mif_mds::RemapWal;
use mif_simdisk::Nanos;

/// Block-move budget per tick (copy cost ceiling).
const BUDGET_BLOCKS_PER_TICK: u64 = 8192;
/// Per-dispatch service time above which the driver backs off.
const LATENCY_BACKOFF_NS: Nanos = 40_000_000;
/// Hard cap on ticks — a stuck drain (no space anywhere) terminates.
const MAX_TICKS: u64 = 4096;

/// The budget never shrinks below this, so progress cannot stall.
const MIN_BUDGET_BLOCKS: u64 = 64;

/// What one [`drain_ost`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Columns relocated off the bay (data moved).
    pub columns_moved: u64,
    /// Empty columns repointed without IO.
    pub columns_retargeted: u64,
    /// Blocks copied to their new homes.
    pub blocks_moved: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Ticks that ended in a latency backoff.
    pub backoffs: u64,
    /// Relocations that found no destination run (left for a retry once
    /// space frees up; `completed` is false if any remain).
    pub no_space: u64,
    /// Simulated time spent copying data.
    pub copy_ns: Nanos,
    /// The bay is empty and left the population (`Absent`).
    pub completed: bool,
}

/// Evacuate `ost` and retire it from the population. Drives the bay
/// `Healthy → Draining` (idempotent if it already drains), relocates
/// every column off it under the tick budget, and on success completes
/// the drain (`Draining → Absent`). Returns what happened; an incomplete
/// drain (`completed == false`, out of ticks or out of space) leaves the
/// bay `Draining` — call again after freeing space.
pub fn drain_ost(fs: &mut FileSystem, wal: &mut RemapWal, ost: usize) -> DrainStats {
    assert!(
        fs.ost_health(ost) == DiskHealth::Draining || fs.ost_health(ost) == DiskHealth::Healthy,
        "drain of a {} bay",
        fs.ost_health(ost)
    );
    fs.begin_drain(ost);
    // A drain cannot skip busy files the way defrag does, so the windows
    // they hold (including on the draining bay) are released up front.
    fs.release_preallocations();

    let mut stats = DrainStats::default();
    let mut budget = BUDGET_BLOCKS_PER_TICK;
    loop {
        // Columns still on the bay, re-scanned each tick: relocations
        // rewrite ost_maps as they go.
        let work: Vec<(OpenFile, usize)> = fs
            .file_handles()
            .into_iter()
            .flat_map(|f| {
                let map = fs.ost_map_of(f);
                map.into_iter()
                    .enumerate()
                    .filter(|&(_, o)| o as usize == ost)
                    .map(move |(col, _)| (f, col))
                    .collect::<Vec<_>>()
            })
            .collect();
        if work.is_empty() {
            break;
        }
        if stats.ticks >= MAX_TICKS {
            return stats; // bay stays Draining; caller retries
        }
        stats.ticks += 1;
        let tick_start = fs.data_stats();
        let mut moved_this_tick = 0u64;
        let mut stuck = true;
        for (file, col) in work {
            if moved_this_tick >= budget {
                stuck = false; // budget exhausted, not out of space
                break;
            }
            let Some(dst) = pick_destination(fs) else {
                stats.no_space += 1;
                continue;
            };
            if fs.physical_layout(file, col).is_empty() {
                if fs.retarget_empty_column(file, col, dst) {
                    stats.columns_retargeted += 1;
                    stuck = false;
                }
                continue;
            }
            match relocate_column(fs, wal, file, col, dst, None) {
                Outcome::Done { txn, copy_ns } => {
                    stats.columns_moved += 1;
                    stats.blocks_moved += txn.total;
                    stats.copy_ns += copy_ns;
                    moved_this_tick += txn.total;
                    stuck = false;
                }
                Outcome::Skipped(SkipReason::NoSpace) => stats.no_space += 1,
                Outcome::Skipped(SkipReason::AlreadyContiguous) => {
                    // Raced by an unlink since the scan; nothing on the bay.
                    stuck = false;
                }
                // The driver never injects crashes; a copy fault ends the
                // pass (the bay stays Draining for a retry).
                Outcome::Crashed { .. } | Outcome::Faulted { .. } => return stats,
            }
        }
        if stuck {
            return stats; // every remaining column is out of space
        }
        // Foreground-latency sample, as in the defrag scheduler.
        let delta = fs.data_stats().since(&tick_start);
        let mean_ns = delta.busy_ns.checked_div(delta.dispatched).unwrap_or(0);
        if mean_ns > LATENCY_BACKOFF_NS {
            stats.backoffs += 1;
            budget = (budget / 2).max(MIN_BUDGET_BLOCKS);
        } else if budget < BUDGET_BLOCKS_PER_TICK {
            budget = (budget * 2).min(BUDGET_BLOCKS_PER_TICK);
        }
    }
    let lc = fs.lifecycle_mut();
    lc.drained_columns += stats.columns_moved + stats.columns_retargeted;
    lc.drained_blocks += stats.blocks_moved;
    fs.finish_drain(ost);
    stats.completed = true;
    stats
}

/// The evacuation target: the placement-accepting bay with the most free
/// blocks (the draining bay never accepts placements, so it is excluded
/// by construction).
fn pick_destination(fs: &FileSystem) -> Option<usize> {
    fs.active_osts()
        .into_iter()
        .map(|o| o as usize)
        .max_by_key(|&o| fs.allocator(o).free_blocks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::{PolicyKind, StreamId};
    use mif_core::FsConfig;

    fn populated_fs(osts: u32) -> (FileSystem, Vec<OpenFile>) {
        let mut fs = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, osts));
        let mut files = Vec::new();
        for i in 0..6u64 {
            let f = fs.create(&format!("d{i}"), None);
            fs.begin_round();
            fs.write(f, StreamId::new(i as u32, 0), 0, 64 + i * 32);
            fs.end_round();
            fs.sync_data();
            fs.close(f);
            files.push(f);
        }
        (fs, files)
    }

    #[test]
    fn drain_empties_the_bay_and_data_survives() {
        let (mut fs, files) = populated_fs(4);
        let sizes: Vec<u64> = files.iter().map(|&f| fs.file_allocated(f)).collect();
        let mut wal = RemapWal::new();
        let stats = drain_ost(&mut fs, &mut wal, 1);
        assert!(stats.completed, "{stats:?}");
        assert!(stats.columns_moved > 0);
        assert_eq!(fs.ost_health(1), DiskHealth::Absent);
        for (&f, &sz) in files.iter().zip(&sizes) {
            assert_eq!(fs.file_allocated(f), sz, "no blocks lost");
            assert!(!fs.ost_map_of(f).contains(&1), "no column left on the bay");
        }
        assert_eq!(fs.lifecycle().drains_completed, 1);
        assert!(fs.lifecycle().drained_blocks > 0);
    }

    #[test]
    fn draining_bay_takes_no_new_files() {
        let (mut fs, _) = populated_fs(4);
        fs.begin_drain(2);
        let f = fs.create("late", None);
        assert!(!fs.ost_map_of(f).contains(&2), "{:?}", fs.ost_map_of(f));
        assert_eq!(fs.ost_map_of(f).len(), 3, "stripes over the others");
    }

    #[test]
    fn drained_bay_can_be_readded_and_serves_new_files() {
        let (mut fs, _) = populated_fs(3);
        let mut wal = RemapWal::new();
        let stats = drain_ost(&mut fs, &mut wal, 0);
        assert!(stats.completed);
        fs.add_ost(0);
        assert_eq!(fs.ost_health(0), DiskHealth::Healthy);
        let f = fs.create("reborn", None);
        assert!(fs.ost_map_of(f).contains(&0));
        fs.begin_round();
        fs.write(f, StreamId::new(9, 0), 0, 96);
        fs.end_round();
        fs.sync_data();
        assert_eq!(fs.file_allocated(f), 96);
    }

    #[test]
    fn empty_columns_are_retargeted_without_io() {
        let mut fs = FileSystem::new(FsConfig::with_policy(PolicyKind::Vanilla, 3));
        // A file that never writes to OST 2's column (small file).
        let f = fs.create("tiny", None);
        fs.begin_round();
        fs.write(f, StreamId::new(1, 0), 0, 4);
        fs.end_round();
        fs.sync_data();
        fs.close(f);
        let mut wal = RemapWal::new();
        let stats = drain_ost(&mut fs, &mut wal, 2);
        assert!(stats.completed);
        assert!(stats.columns_retargeted >= 1, "{stats:?}");
        assert!(!fs.ost_map_of(f).contains(&2));
    }
}
