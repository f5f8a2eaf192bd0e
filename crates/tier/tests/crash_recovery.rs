//! Crash-point matrix for the tier WAL protocol.
//!
//! The crash model: disk state (allocator bitmaps, extents, placed tier
//! runs) persists; the in-memory tier map does not — [`mif_tier::recover`]
//! rebuilds it from the log's clean prefix at mount. Each test constructs
//! one crash point through the same public hooks the protocol uses, then
//! asserts recovery converges to a state fsck calls clean.

use mif_alloc::{PolicyKind, StreamId};
use mif_core::{DegradedSource, FileSystem, FsConfig, OpenFile, TierMap};
use mif_fsck::{FsckExt, FsckOptions};
use mif_mds::{DirMode, RecoveryStop, TierKind, TierOp, TierRecovery, TierTxn, TierWal};
use mif_tier::{encode_file, recover, replicate_file};

fn tier_fs() -> FileSystem {
    let mut cfg = FsConfig::with_modes(PolicyKind::OnDemand, 6, DirMode::Embedded);
    cfg.stripe_blocks = 8;
    cfg.groups_per_ost = 4;
    FileSystem::new(cfg)
}

fn written_file(fs: &mut FileSystem, name: &str, blocks: u64) -> OpenFile {
    let f = fs.create(name, Some(blocks));
    fs.begin_round();
    fs.write(f, StreamId::new(1, 0), 0, blocks);
    fs.end_round();
    fs.sync_data();
    f
}

/// Forget the in-memory map, as a crash would.
fn crash(fs: &mut FileSystem) {
    *fs.tier_mut() = TierMap::default();
}

fn replay(fs: &mut FileSystem, wal: &TierWal) -> mif_tier::RecoveryReport {
    let rec = TierRecovery::scan(wal.image(), 0);
    recover(fs, &rec)
}

/// Crash point A: Intent logged, destination run claimed, copy never
/// committed. Recovery rolls the claim back.
#[test]
fn dangling_replica_intent_rolls_back() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "f", 48);
    let mut wal = TierWal::new();

    let dst_phys = fs.allocator(1).probe_run(0, 8).unwrap();
    let txn = TierTxn {
        kind: TierKind::Replica,
        file: f.0 .0,
        src_ost: 0,
        logical: 0,
        len: 8,
        dst_ost: 1,
        dst_phys,
    };
    wal.append(&TierOp::Intent(txn));
    assert!(fs.allocator(1).alloc_at(dst_phys, 8));
    crash(&mut fs);

    let report = replay(&mut fs, &wal);
    assert_eq!(report.rolled_back, 1, "{report:?}");
    assert!(!fs.allocator(1).is_allocated(dst_phys), "claim released");
    assert!(fs.tier().is_empty());
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

/// Crash point B: Intent and Commit both durable, crash before the map
/// registration mattered (the map is volatile anyway). Recovery re-adds
/// the replica and degraded reads work from it.
#[test]
fn committed_replica_rolls_forward() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "f", 48);
    let mut wal = TierWal::new();
    let placed = replicate_file(&mut fs, &mut wal, f).unwrap();
    assert!(placed.replicas > 0);
    let before = fs.tier().clone();
    crash(&mut fs);

    let report = replay(&mut fs, &wal);
    assert_eq!(report.replicas_redone, placed.replicas, "{report:?}");
    assert_eq!(*fs.tier(), before, "map rebuilt exactly");
    let r = fs.tier().replicas()[0];
    assert!(matches!(
        fs.tier().degraded_source(
            r.file,
            r.src_ost,
            r.logical,
            r.len,
            |c| c,
            |o| o != r.src_ost
        ),
        Some(DegradedSource::Replica { .. })
    ));
    let rep = fs.fsck(&FsckOptions::default());
    assert!(rep.clean(), "{:?}", rep.findings);
}

/// Crash point C: both parity Intents durable, only one Commit. An
/// incomplete group protects nothing — recovery frees both runs and
/// registers no group.
#[test]
fn half_committed_parity_pair_is_torn_down() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "f", 32);
    let mut wal = TierWal::new();

    let p0 = fs.allocator(4).probe_run(0, 8).unwrap();
    assert!(fs.allocator(4).alloc_at(p0, 8));
    let p1 = fs.allocator(5).probe_run(0, 8).unwrap();
    assert!(fs.allocator(5).alloc_at(p1, 8));
    let t = |j: u32, dst_ost: u32, dst_phys: u64| TierTxn {
        kind: TierKind::Parity,
        file: f.0 .0,
        src_ost: j,
        logical: 0,
        len: 8,
        dst_ost,
        dst_phys,
    };
    wal.append(&TierOp::Intent(t(0, 4, p0)));
    wal.append(&TierOp::Intent(t(1, 5, p1)));
    wal.append(&TierOp::Commit(t(0, 4, p0)));
    crash(&mut fs);

    let report = replay(&mut fs, &wal);
    assert_eq!(report.orphan_parity_freed, 1, "committed run freed");
    assert_eq!(report.rolled_back, 1, "uncommitted claim freed");
    assert!(!fs.allocator(4).is_allocated(p0));
    assert!(!fs.allocator(5).is_allocated(p1));
    assert!(fs.tier().groups().is_empty());
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

/// Crash point D: a Drop Intent with no Commit — the blocks were already
/// freed (or not) when the crash hit. A teardown rolls *forward*: the
/// artifact stays gone.
#[test]
fn dangling_drop_intent_completes_the_teardown() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "f", 48);
    let mut wal = TierWal::new();
    replicate_file(&mut fs, &mut wal, f).unwrap();
    let victim = fs.tier().replicas()[0];

    // Crash after the Intent and the free, before the Commit.
    let txn = TierTxn {
        kind: TierKind::Drop,
        file: victim.file,
        src_ost: 0,
        logical: 0,
        len: victim.len,
        dst_ost: victim.dst_ost,
        dst_phys: victim.dst_phys,
    };
    wal.append(&TierOp::Intent(txn));
    fs.tier_free_run(victim.dst_ost as usize, victim.dst_phys, victim.len);
    crash(&mut fs);

    let report = replay(&mut fs, &wal);
    assert!(
        !fs.allocator(victim.dst_ost as usize)
            .is_allocated(victim.dst_phys),
        "teardown completed, not resurrected"
    );
    assert!(
        !fs.tier()
            .runs_of_file(victim.file)
            .iter()
            .any(|r| r.ost == victim.dst_ost && r.phys == victim.dst_phys),
        "{report:?}"
    );
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

/// Crash point E: a torn record at the log's tail. The clean prefix
/// replays; the torn tail is ignored.
#[test]
fn torn_tail_replays_the_clean_prefix() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "f", 48);
    let mut wal = TierWal::new();
    let placed = replicate_file(&mut fs, &mut wal, f).unwrap();
    let before = fs.tier().clone();

    // A torn Intent for a claim that never reached the disk.
    let txn = TierTxn {
        kind: TierKind::Replica,
        file: f.0 .0,
        src_ost: 2,
        logical: 0,
        len: 8,
        dst_ost: 3,
        dst_phys: 999,
    };
    wal.append_torn(&TierOp::Intent(txn), 40);
    crash(&mut fs);

    let rec = TierRecovery::scan(wal.image(), 0);
    assert!(
        !matches!(rec.stop, RecoveryStop::CleanEnd),
        "tail must be detected: {:?}",
        rec.stop
    );
    assert_eq!(rec.ops.len() as u64, placed.replicas * 2);
    let report = recover(&mut fs, &rec);
    assert_eq!(report.replicas_redone, placed.replicas, "{report:?}");
    assert_eq!(*fs.tier(), before);
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

/// Full-cycle determinism: a map rebuilt from the complete log equals the
/// map the live protocol built — replicas and stripe groups both.
#[test]
fn full_log_replay_rebuilds_the_exact_map() {
    let mut fs = tier_fs();
    let hot = written_file(&mut fs, "hot", 48);
    let cold = written_file(&mut fs, "cold", 64);
    let mut wal = TierWal::new();
    replicate_file(&mut fs, &mut wal, hot).unwrap();
    let enc = encode_file(&mut fs, &mut wal, cold).unwrap();
    assert!(enc.groups > 0);
    let before = fs.tier().clone();
    crash(&mut fs);

    let report = replay(&mut fs, &wal);
    assert_eq!(report.groups_redone, enc.groups, "{report:?}");
    assert_eq!(*fs.tier(), before, "replay is exact");
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}
