//! The migration engine: heat in, placements out.
//!
//! [`TierEngine`] is the offline half of the tiering loop. The online
//! half — `ConcurrentFs` — records accesses lock-free and serves reads
//! through replicas; between traffic waves the service drains the access
//! recorder into the engine ([`TierEngine::observe`]) and runs one
//! [`TierEngine::maintain`] pass against the exclusive `FileSystem`:
//!
//! 1. **Teardown** — runs invalidated by the write path since the last
//!    pass are dropped (lazily, here, not on the write path).
//! 2. **Defrag** — the PR-3 scheduler runs with candidates keyed by
//!    *heat × fragmentation* ([`mif_defrag::run_prioritized`]), so the
//!    block-move budget lands on hot fragmented files first. Promotions
//!    then replicate the *defragmented* layout.
//! 3. **Promotion** — hot files gain replicas ([`replicate_file`]),
//!    capped per pass so a sudden hot set does not monopolize a pass.
//! 4. **Demotion** — cold files are packed into 4+2 stripe groups
//!    ([`encode_file`]), batched under the same kind of cap.
//!
//! Every placement and teardown goes through the engine's tier WAL, so a
//! crash mid-pass recovers with [`crate::recover`].

use crate::heat::{Heat, HeatClassifier};
use crate::redundancy::{drop_run, encode_file, replicate_file_budgeted, PlacementStats};
use mif_core::{FileSystem, OpenFile};
use mif_defrag::{run_prioritized, DefragConfig, DefragStats};
use mif_mds::{RemapWal, TierWal};
use mif_simdisk::IoFault;

/// Hot files replicated per maintenance pass.
const MAX_PROMOTIONS_PER_PASS: usize = 32;
/// Cold files encoded per maintenance pass.
const MAX_DEMOTIONS_PER_PASS: usize = 32;
/// Replica runs placed per maintenance pass, across all promotions. A
/// zipf-hot file accumulates thousands of small scattered spans per
/// traffic wave; this caps what one pass copies (and with it the size of
/// the map the write path scans for invalidation) — uncovered spans
/// resume next pass.
const MAX_REPLICA_RUNS_PER_PASS: u64 = 1024;

/// What one [`TierEngine::maintain`] pass accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceStats {
    /// Invalidated tier runs torn down.
    pub dropped_runs: u64,
    /// Replica runs placed.
    pub replicas_placed: u64,
    /// Stripe groups encoded.
    pub groups_encoded: u64,
    /// Hot files visited by the promotion leg.
    pub promoted_files: u64,
    /// Cold files visited by the demotion leg.
    pub demoted_files: u64,
    /// Placements skipped for lack of free space.
    pub skipped_no_space: u64,
    /// The embedded heat-weighted defrag pass.
    pub defrag: DefragStats,
}

impl MaintenanceStats {
    fn absorb_placement(&mut self, p: PlacementStats) {
        self.replicas_placed += p.replicas;
        self.groups_encoded += p.groups;
        self.skipped_no_space += p.skipped_no_space;
    }

    /// Fold another pass's counters into a running total.
    pub fn absorb(&mut self, s: &MaintenanceStats) {
        self.dropped_runs += s.dropped_runs;
        self.replicas_placed += s.replicas_placed;
        self.groups_encoded += s.groups_encoded;
        self.promoted_files += s.promoted_files;
        self.demoted_files += s.demoted_files;
        self.skipped_no_space += s.skipped_no_space;
        self.defrag.ticks += s.defrag.ticks;
        self.defrag.files_defragmented += s.defrag.files_defragmented;
        self.defrag.relocations += s.defrag.relocations;
        self.defrag.blocks_moved += s.defrag.blocks_moved;
        self.defrag.extents_before += s.defrag.extents_before;
        self.defrag.extents_after += s.defrag.extents_after;
        self.defrag.backoffs += s.defrag.backoffs;
        self.defrag.skipped_busy += s.defrag.skipped_busy;
        self.defrag.skipped_no_space += s.defrag.skipped_no_space;
        self.defrag.copy_ns += s.defrag.copy_ns;
    }
}

/// The migration engine: owns the heat classifier and the tier WAL.
#[derive(Debug, Default)]
pub struct TierEngine {
    heat: HeatClassifier,
    wal: TierWal,
}

impl TierEngine {
    /// Fold one drained access-recorder tick into the classifier
    /// (`ConcurrentFs::drain_access` produces exactly this shape).
    pub fn observe(&mut self, deltas: &[(OpenFile, u64, u64)]) {
        let raw: Vec<(u64, u64, u64)> = deltas.iter().map(|&(f, r, w)| (f.0 .0, r, w)).collect();
        self.heat.observe(&raw);
    }

    /// The classifier, read-only (heat queries, bench reporting).
    pub fn heat(&self) -> &HeatClassifier {
        &self.heat
    }

    /// The tier WAL image — persist it alongside the data WAL; replay it
    /// through [`crate::recover`] at mount.
    pub fn wal(&self) -> &TierWal {
        &self.wal
    }

    /// One maintenance pass: teardown, heat-weighted defrag, promotions,
    /// demotions. `remap_wal` is the defrag relocation log (a different
    /// stream from the tier WAL). An IO fault ends the pass early with
    /// whatever it had accomplished — the protocol leaves nothing
    /// half-registered.
    pub fn maintain(
        &mut self,
        fs: &mut FileSystem,
        remap_wal: &mut RemapWal,
    ) -> Result<MaintenanceStats, (usize, IoFault)> {
        let mut stats = MaintenanceStats::default();

        // 1. Lazy teardown of runs the write path invalidated.
        let invalid = fs.tier().invalid_runs();
        for run in invalid {
            drop_run(fs, &mut self.wal, run);
            stats.dropped_runs += 1;
        }

        // 2. Defrag with heat × fragmentation priority.
        let heat = &self.heat;
        stats.defrag = run_prioritized(fs, remap_wal, &DefragConfig::default(), |f| {
            heat.weight(f.0 .0)
        });

        // 3. Promote: replicate the hot set (live files only).
        let live: Vec<OpenFile> = fs.file_handles();
        let hot: Vec<OpenFile> = live
            .iter()
            .copied()
            .filter(|f| self.heat.heat(f.0 .0) == Heat::Hot)
            .take(MAX_PROMOTIONS_PER_PASS)
            .collect();
        let mut replica_budget = MAX_REPLICA_RUNS_PER_PASS;
        for file in hot {
            let placed = replicate_file_budgeted(fs, &mut self.wal, file, replica_budget)?;
            replica_budget = replica_budget.saturating_sub(placed.replicas);
            stats.absorb_placement(placed);
            stats.promoted_files += 1;
            if replica_budget == 0 {
                break;
            }
        }

        // 4. Demote: erasure-code the cold set.
        let cold: Vec<OpenFile> = live
            .iter()
            .copied()
            .filter(|f| self.heat.heat(f.0 .0) == Heat::Cold)
            .take(MAX_DEMOTIONS_PER_PASS)
            .collect();
        for file in cold {
            stats.absorb_placement(encode_file(fs, &mut self.wal, file)?);
            stats.demoted_files += 1;
        }

        Ok(stats)
    }
}
