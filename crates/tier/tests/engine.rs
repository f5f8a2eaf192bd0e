//! The migration engine end to end: observe → classify → maintain.

use mif_alloc::{PolicyKind, StreamId};
use mif_core::{FileSystem, FsConfig, OpenFile, TierMap};
use mif_fsck::{FsckExt, FsckOptions};
use mif_mds::{DirMode, RemapWal, TierRecovery};
use mif_tier::{recover, Heat, TierEngine};

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
    fs.close(f);
    f
}

#[test]
fn maintain_promotes_the_hot_set_and_demotes_the_cold_set() {
    let mut fs = tier_fs();
    let hot = written_file(&mut fs, "hot", 48);
    let cold = written_file(&mut fs, "cold", 64);
    let mut engine = TierEngine::default();
    let mut remap = RemapWal::new();

    // Ten ticks of traffic concentrated on `hot`; `cold` stays silent.
    for _ in 0..10 {
        engine.observe(&[(hot, 16, 4), (cold, 0, 0)]);
    }
    assert_eq!(engine.heat().heat(hot.0 .0), Heat::Hot);
    assert_eq!(engine.heat().heat(cold.0 .0), Heat::Cold);

    let stats = engine.maintain(&mut fs, &mut remap).unwrap();
    assert_eq!(stats.promoted_files, 1, "{stats:?}");
    assert!(stats.replicas_placed > 0, "{stats:?}");
    assert_eq!(stats.demoted_files, 1, "{stats:?}");
    assert!(stats.groups_encoded > 0, "{stats:?}");
    assert!(!engine.wal().is_empty());

    // The hot file's spans are replica-covered; the cold file has groups.
    assert!(fs.tier().replicas().iter().all(|r| r.file == hot.0 .0));
    assert!(fs.tier().groups().iter().all(|g| g.file == cold.0 .0));

    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn maintain_tears_down_invalidated_runs_lazily() {
    let mut fs = tier_fs();
    let hot = written_file(&mut fs, "hot", 48);
    let mut engine = TierEngine::default();
    let mut remap = RemapWal::new();
    for _ in 0..10 {
        engine.observe(&[(hot, 20, 0)]);
    }
    let placed = engine.maintain(&mut fs, &mut remap).unwrap();
    assert!(placed.replicas_placed > 0);

    // A write into the primary invalidates; the *next* pass reaps — and,
    // the file now being silent, re-places nothing.
    fs.tier_mut().invalidate_file(hot.0 .0);
    for _ in 0..40 {
        engine.observe(&[]);
    }
    let reap = engine.maintain(&mut fs, &mut remap).unwrap();
    assert_eq!(reap.dropped_runs, placed.replicas_placed, "{reap:?}");
    assert!(fs.tier().replicas().is_empty());

    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn maintenance_passes_are_idempotent_without_new_heat() {
    let mut fs = tier_fs();
    let hot = written_file(&mut fs, "hot", 48);
    let mut engine = TierEngine::default();
    let mut remap = RemapWal::new();
    for _ in 0..10 {
        engine.observe(&[(hot, 16, 0)]);
    }
    let first = engine.maintain(&mut fs, &mut remap).unwrap();
    assert!(first.replicas_placed > 0);
    let second = engine.maintain(&mut fs, &mut remap).unwrap();
    assert_eq!(second.replicas_placed, 0, "{second:?}");
    assert_eq!(second.dropped_runs, 0, "{second:?}");
}

#[test]
fn engine_wal_survives_a_crash_mid_lifecycle() {
    let mut fs = tier_fs();
    let hot = written_file(&mut fs, "hot", 48);
    let cold = written_file(&mut fs, "cold", 64);
    let mut engine = TierEngine::default();
    let mut remap = RemapWal::new();
    for _ in 0..10 {
        engine.observe(&[(hot, 16, 0), (cold, 0, 0)]);
    }
    engine.maintain(&mut fs, &mut remap).unwrap();
    let before = fs.tier().clone();

    // Crash: the volatile map is lost, the WAL is not.
    *fs.tier_mut() = TierMap::default();
    let rec = TierRecovery::scan(engine.wal().image(), 0);
    recover(&mut fs, &rec);
    assert_eq!(*fs.tier(), before, "engine log replays to the same map");
    let r = fs.fsck(&FsckOptions::default());
    assert!(r.clean(), "{:?}", r.findings);
}
