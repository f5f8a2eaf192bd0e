//! # mif-fsck — parallel whole-filesystem check & repair
//!
//! A pFSCK-style multi-pass, multi-threaded checker and repairer for the
//! simulated parallel file system: the data path (OST block bitmaps vs
//! extent trees) and the metadata path (the embedded/normal directory
//! stores of `mif-mds`) are checked together and repaired idempotently.
//!
//! ## Pass structure
//!
//! 1. **Per-block-group scans** ([`pass1`]) — every (OST, group) pair is
//!    one work unit, fanned over a work-stealing pool of `std::thread`
//!    workers ([`pool`]). Each unit cross-checks the group's bitmap
//!    snapshot against an ownership bitmap rebuilt from the extent trees,
//!    word by word.
//! 2. **Global cross-reference** ([`pass2`]) — a sorted sweep per OST
//!    finds physical ranges claimed by more than one extent; the
//!    metadata-side global rules (directory-table consistency, acyclic
//!    parent chains, rename-correlation aliases, lazy-free disjointness)
//!    come from `mif_mds::check` — the *single* checker implementation
//!    both `Mds::check()` and this subsystem share.
//! 3. **Idempotent repair** ([`repair`]) — discard losing overlap
//!    mappings, re-set hole bits, adopt leaked blocks into `lost+found`,
//!    and delegate metadata fixes to the store's targeted repairers. A
//!    second check after repair reports clean; a second repair is a no-op.
//!
//! Determinism: the image is snapshotted once, results are re-sorted by
//! work-unit index, and every victim-picking path in the corruption
//! injector ([`corrupt`]) is seeded — the same seed reproduces the same
//! damage, findings and repairs at any worker count.
//!
//! ## Offline vs online
//!
//! Offline mode quiesces the system first (`sync_data` +
//! `release_preallocations`, the way ext4 discards preallocation at
//! recovery) and may repair. Online mode snapshots a *live* system:
//! allocated-but-unmapped blocks are legitimate there (preallocation
//! windows, in-flight delayed allocation), so leak classification and
//! repair are disabled.
//!
//! ```
//! use mif_alloc::{PolicyKind, StreamId};
//! use mif_core::{FileSystem, FsConfig};
//! use mif_fsck::{FsckExt, FsckOptions};
//!
//! let mut fs = FileSystem::new(FsConfig::with_policy(PolicyKind::OnDemand, 2));
//! let f = fs.create("a.dat", None);
//! fs.begin_round();
//! fs.write(f, StreamId::new(1, 0), 0, 64);
//! fs.end_round();
//!
//! let report = fs.fsck(&FsckOptions::default().with_workers(4));
//! assert!(report.clean());
//! ```

pub mod corrupt;
pub mod finding;
pub mod image;
pub mod pass1;
pub mod pass2;
pub mod pool;
pub mod repair;
pub mod tier_rules;

pub use corrupt::{inject, CorruptionClass, Injected, ALL_CLASSES};
pub use finding::Finding;
pub use image::{FsckImage, GroupUnit, TIER_OWNER_BIT};
pub use repair::RepairOutcome;

use mif_core::{FileSystem, OpenFile};
use mif_mds::{Mds, ShardedMds};

/// Whether the system is quiesced for the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckMode {
    /// Quiesced: flush dirty data, release preallocations, full check,
    /// repairs allowed.
    Offline,
    /// Live: check-only, and allocated-but-unmapped blocks are not
    /// reported (preallocation windows are legitimate on a live system).
    Online,
}

/// How to run the checker.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Scan worker threads (clamped to at least 1).
    pub workers: usize,
    pub mode: FsckMode,
    /// Apply repairs after the check passes (offline mode only).
    pub repair: bool,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            workers: 1,
            mode: FsckMode::Offline,
            repair: false,
        }
    }
}

impl FsckOptions {
    /// Offline check-and-repair.
    pub fn offline_repair() -> Self {
        FsckOptions {
            repair: true,
            ..Default::default()
        }
    }

    /// Online (live, check-only) scan.
    pub fn online() -> Self {
        FsckOptions {
            mode: FsckMode::Online,
            ..Default::default()
        }
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// The outcome of one fsck run.
#[derive(Debug)]
pub struct FsckReport {
    /// Everything the check passes found, in deterministic order.
    pub findings: Vec<Finding>,
    /// Findings a repair was applied for (0 on check-only runs).
    pub repaired: usize,
    /// Findings with no implemented repair.
    pub unrepaired: usize,
    /// Repair actions taken, in order.
    pub actions: Vec<String>,
}

impl FsckReport {
    /// No inconsistencies found.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        if self.clean() {
            "clean".to_string()
        } else {
            format!(
                "{} findings, {} repaired, {} unrepaired",
                self.findings.len(),
                self.repaired,
                self.unrepaired
            )
        }
    }
}

/// The data-path check passes over a captured image (no metadata leg, no
/// repair). Public so the scaling benchmark can time exactly this.
pub fn check_image(image: &FsckImage, workers: usize, mode: FsckMode) -> Vec<Finding> {
    let workers = workers.max(1);
    let mut findings = pass1::scan(image, workers, mode);
    findings.extend(pass2::cross_reference(image, workers));
    findings.extend(tier_rules::check(image));
    findings
}

/// Check (and optionally repair) a whole file system.
pub fn run(fs: &mut FileSystem, opts: &FsckOptions) -> FsckReport {
    if opts.mode == FsckMode::Offline {
        fs.sync_data();
        fs.release_preallocations();
    }
    let image = FsckImage::capture(fs);
    let mut findings = check_image(&image, opts.workers, opts.mode);
    findings.extend(fs.mds().meta_findings().into_iter().map(Finding::Meta));
    let (repaired, unrepaired, actions) =
        if opts.repair && opts.mode == FsckMode::Offline && !findings.is_empty() {
            let o = repair::apply(fs, &image, &findings);
            (o.repaired, o.unrepaired, o.actions)
        } else {
            (0, 0, Vec::new())
        };
    FsckReport {
        findings,
        repaired,
        unrepaired,
        actions,
    }
}

/// Check (and optionally repair) a bare metadata store — the entry point
/// crash-recovery tests use on a replayed [`Mds`] with no surrounding
/// [`FileSystem`].
pub fn run_mds(mds: &mut Mds, repair: bool) -> FsckReport {
    let findings: Vec<Finding> = mds.meta_findings().into_iter().map(Finding::Meta).collect();
    let (repaired, unrepaired, actions) = if repair && !findings.is_empty() {
        let o = repair::apply_meta(mds, &findings);
        (o.repaired, o.unrepaired, o.actions)
    } else {
        (0, 0, Vec::new())
    };
    FsckReport {
        findings,
        repaired,
        unrepaired,
        actions,
    }
}

/// Check (and optionally repair) a sharded MDS cluster: the single-box
/// meta rules run per shard (the same single checker implementation), then
/// the cross-shard rules — primary-index consistency in both directions,
/// doubled entries from torn moves, op-head regressions against the
/// journaled CAS advances, committed-but-unapplied transactions. Repairs
/// delegate single-box fixes to the owning server and cross-shard fixes to
/// the cluster's targeted repairers; a second run reports clean.
pub fn run_sharded(cluster: &mut ShardedMds, repair: bool) -> FsckReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut per_server: Vec<Vec<Finding>> = vec![Vec::new(); cluster.shards()];
    for (s, batch) in per_server.iter_mut().enumerate() {
        for m in cluster.server(s).meta_findings() {
            batch.push(Finding::Meta(m.clone()));
            findings.push(Finding::Meta(m));
        }
    }
    findings.extend(cluster.shard_findings().into_iter().map(Finding::Shard));
    let (mut repaired, mut unrepaired, mut actions) = (0, 0, Vec::new());
    if repair && !findings.is_empty() {
        for (s, batch) in per_server.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let o = repair::apply_meta(cluster.server_mut(s), batch);
            repaired += o.repaired;
            unrepaired += o.unrepaired;
            actions.extend(o.actions.into_iter().map(|a| format!("shard {s}: {a}")));
        }
        for f in &findings {
            if let Finding::Shard(sf) = f {
                if cluster.repair(sf) {
                    repaired += 1;
                    actions.push(format!("repaired {sf}"));
                } else {
                    unrepaired += 1;
                }
            }
        }
    }
    FsckReport {
        findings,
        repaired,
        unrepaired,
        actions,
    }
}

/// `fs.fsck(&opts)` sugar over [`run`].
pub trait FsckExt {
    fn fsck(&mut self, opts: &FsckOptions) -> FsckReport;
}

impl FsckExt for FileSystem {
    fn fsck(&mut self, opts: &FsckOptions) -> FsckReport {
        run(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::{PolicyKind, StreamId};
    use mif_core::FsConfig;
    use mif_mds::DirMode;

    fn small_fs(policy: PolicyKind) -> FileSystem {
        let mut cfg = FsConfig::with_modes(policy, 3, DirMode::Embedded);
        cfg.groups_per_ost = 4;
        let mut fs = FileSystem::new(cfg);
        for i in 0..4 {
            let f = fs.create(&format!("f{i}"), Some(256));
            for r in 0..6 {
                fs.begin_round();
                fs.write(f, StreamId::new(i, 0), r * 32, 32);
                fs.end_round();
            }
        }
        fs.sync_data();
        fs
    }

    #[test]
    fn healthy_fs_checks_clean_at_any_worker_count() {
        for policy in [
            PolicyKind::Vanilla,
            PolicyKind::OnDemand,
            PolicyKind::Static,
        ] {
            let mut fs = small_fs(policy);
            for workers in [1, 2, 8] {
                let r = fs.fsck(&FsckOptions::default().with_workers(workers));
                assert!(
                    r.clean(),
                    "policy {policy:?} workers {workers}: {:?}",
                    r.findings
                );
            }
        }
    }

    #[test]
    fn online_check_tolerates_live_preallocations() {
        let mut cfg = FsConfig::with_modes(PolicyKind::OnDemand, 2, DirMode::Embedded);
        cfg.groups_per_ost = 4;
        let mut fs = FileSystem::new(cfg);
        let f = fs.create("live", None);
        fs.begin_round();
        fs.write(f, StreamId::new(1, 0), 0, 64);
        fs.end_round();
        fs.sync_data();
        // Preallocation windows are live: online must not flag them.
        let r = run(&mut fs, &FsckOptions::online());
        assert!(r.clean(), "{:?}", r.findings);
    }

    #[test]
    fn findings_identical_across_worker_counts() {
        let mut fs = small_fs(PolicyKind::OnDemand);
        inject(&mut fs, CorruptionClass::BitmapLeak, 7).unwrap();
        inject(&mut fs, CorruptionClass::BitmapHole, 7).unwrap();
        let image = FsckImage::capture(&fs);
        let base = check_image(&image, 1, FsckMode::Offline);
        assert!(!base.is_empty());
        for workers in [2, 4, 8] {
            assert_eq!(base, check_image(&image, workers, FsckMode::Offline));
        }
    }

    #[test]
    fn every_class_detected_repaired_and_idempotent() {
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            let seed = 0xF5C4 + i as u64;
            let mut fs = small_fs(PolicyKind::OnDemand);
            // Give the metadata classes something to bite on.
            let root = mif_mds::ROOT_INO;
            let d = fs.mds().mkdir(root, "sub");
            fs.mds().create(d, "child", 2);
            fs.mds().rename(root, "sub", root, "sub2");

            // A healthy system must be clean before injection.
            let pre = run(&mut fs, &FsckOptions::default());
            assert!(pre.clean(), "seed {seed} pre-injection: {:?}", pre.findings);

            let injected = inject(&mut fs, class, seed)
                .unwrap_or_else(|| panic!("seed {seed}: class {class} not injectable"));
            let r = run(&mut fs, &FsckOptions::offline_repair());
            assert!(
                !r.clean(),
                "seed {seed}: {class} not detected ({})",
                injected.detail
            );
            assert!(r.repaired > 0, "seed {seed}: {class} not repaired");

            let second = run(&mut fs, &FsckOptions::offline_repair());
            assert!(
                second.clean(),
                "seed {seed}: {class} second run dirty: {:?}",
                second.findings
            );
            assert_eq!(second.repaired, 0, "seed {seed}: repair not idempotent");
        }
    }

    #[test]
    fn run_sharded_repairs_cross_shard_damage() {
        let build = || {
            let mut c = ShardedMds::new(4);
            let big = c.mkdir_striped("big");
            let other = c.mkdir("other");
            for i in 0..32 {
                c.create(big, &format!("f{i}"), 1);
            }
            c.create(other, "seed", 1);
            for i in 0..4 {
                c.rename(big, &format!("f{i}"), other, &format!("moved{i}"));
            }
            (c, big)
        };

        // Healthy cluster: clean, nothing repaired.
        let (mut c, big) = build();
        let pre = run_sharded(&mut c, true);
        assert!(pre.clean(), "{:?}", pre.findings);
        assert_eq!(pre.repaired, 0);

        // Each cross-shard corruption is detected under its slug,
        // repaired, and the repair is idempotent.
        type Injector = Box<dyn Fn(&mut ShardedMds)>;
        let cases: Vec<(&str, Injector)> = vec![
            (
                "shard-entry-missing",
                Box::new(move |c| c.corrupt_drop_store_entry(big, "f10")),
            ),
            (
                "shard-entry-orphan",
                Box::new(move |c| c.corrupt_forget_index_entry(big, "f11")),
            ),
            (
                "shard-entry-doubled",
                Box::new(move |c| c.corrupt_double_entry(big, "f12")),
            ),
            (
                "shard-hash-index-drift",
                Box::new(move |c| c.corrupt_misindex_entry(big, "f13")),
            ),
            (
                "shard-head-regression",
                Box::new(move |c| {
                    // Regress a head that actually advanced: the renames
                    // journal CAS advances on the shards holding the moved
                    // entries, which need not include big's home shard.
                    let s = (0..4)
                        .find(|&s| c.head(s, big) > 0)
                        .expect("renames advanced some head for big");
                    c.corrupt_head_regression(s as u32, big);
                }),
            ),
        ];
        for (slug, damage) in cases {
            let (mut c, _) = build();
            damage(&mut c);
            let r = run_sharded(&mut c, true);
            assert!(
                r.findings.iter().any(|f| f.rule() == slug),
                "{slug} not detected: {:?}",
                r.findings
            );
            assert!(r.repaired > 0, "{slug} not repaired");
            let second = run_sharded(&mut c, true);
            assert!(second.clean(), "{slug} second run: {:?}", second.findings);
            assert_eq!(second.repaired, 0, "{slug} repair not idempotent");
        }
    }

    #[test]
    fn run_mds_repairs_a_bare_store() {
        let mut fs = small_fs(PolicyKind::Vanilla);
        let root = mif_mds::ROOT_INO;
        let d = fs.mds().mkdir(root, "dir");
        fs.mds().create(d, "f", 1);
        inject(&mut fs, CorruptionClass::DegreeDrift, 11).unwrap();
        let r = run_mds(fs.mds(), true);
        assert!(!r.clean());
        assert!(run_mds(fs.mds(), false).clean());
    }
}
