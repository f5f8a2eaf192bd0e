//! Oracle tests for the placement protocols: replicate, encode, drop —
//! every end state must also be fsck-clean (the checker owns the ground
//! truth about allocator/mapping/tier consistency).

use mif_alloc::{PolicyKind, StreamId};
use mif_core::{DegradedSource, FileSystem, FsConfig, OpenFile};
use mif_fsck::{FsckExt, FsckOptions};
use mif_mds::DirMode;
use mif_tier::{drop_run, encode_file, replicate_file};

/// 6 OSTs, 8-block stripes: one 4+2 group spans 32 file-logical blocks
/// and both parity runs fit off the member OSTs.
fn tier_fs() -> FileSystem {
    let mut cfg = FsConfig::with_modes(PolicyKind::OnDemand, 6, DirMode::Embedded);
    cfg.stripe_blocks = 8;
    cfg.groups_per_ost = 4;
    FileSystem::new(cfg)
}

/// Write `blocks` file-logical blocks into a fresh file and sync.
fn written_file(fs: &mut FileSystem, name: &str, blocks: u64) -> OpenFile {
    let f = fs.create(name, Some(blocks));
    fs.begin_round();
    fs.write(f, StreamId::new(1, 0), 0, blocks);
    fs.end_round();
    fs.sync_data();
    f
}

#[test]
fn replicate_places_runs_and_is_idempotent() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "hot", 48);
    let mut wal = mif_mds::TierWal::new();

    let stats = replicate_file(&mut fs, &mut wal, f).unwrap();
    assert!(stats.replicas > 0, "{stats:?}");
    assert_eq!(wal.len(), stats.replicas * 2, "intent + commit per replica");
    assert_eq!(fs.tier().counts().0 as u64, stats.replicas);

    // Every placed run is claimed in the allocator and off the source OST.
    for r in fs.tier().replicas().to_vec() {
        assert!(fs.allocator(r.dst_ost as usize).is_allocated(r.dst_phys));
        assert_ne!(r.src_ost, r.dst_ost, "copy must not share the OST");
        assert!(r.valid);
    }

    // A second pass finds everything covered.
    let again = replicate_file(&mut fs, &mut wal, f).unwrap();
    assert_eq!(again.replicas, 0, "{again:?}");

    let report = fs.fsck(&FsckOptions::default());
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn replica_serves_a_degraded_read_for_its_span() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "hot", 48);
    let mut wal = mif_mds::TierWal::new();
    replicate_file(&mut fs, &mut wal, f).unwrap();

    let r = fs.tier().replicas()[0];
    let src = fs
        .tier()
        .degraded_source(
            r.file,
            r.src_ost,
            r.logical,
            r.len,
            |c| c,
            |ost| ost != r.src_ost,
        )
        .expect("replica must cover its own span");
    match src {
        DegradedSource::Replica { ost, phys, len } => {
            assert_eq!(ost, r.dst_ost);
            assert_eq!(phys, r.dst_phys);
            assert_eq!(len, r.len);
        }
        other => panic!("expected a replica source, got {other:?}"),
    }
}

#[test]
fn encode_builds_groups_and_parity_reconstructs() {
    let mut fs = tier_fs();
    // Two full groups: 2 × 4 members × 8 blocks.
    let f = written_file(&mut fs, "cold", 64);
    let mut wal = mif_mds::TierWal::new();

    let stats = encode_file(&mut fs, &mut wal, f).unwrap();
    assert_eq!(stats.groups, 2, "{stats:?}");
    assert_eq!(wal.len(), stats.groups * 4, "2 intents + 2 commits each");

    for g in fs.tier().groups().to_vec() {
        assert_eq!(g.members.len(), 4);
        assert_eq!(g.parity.len(), 2);
        assert_ne!(g.parity[0].0, g.parity[1].0);
        // With 6 OSTs both parity runs sit off the member OSTs.
        for &(post, pphys) in &g.parity {
            assert!(!g.members.iter().any(|&(most, _)| most == post));
            assert!(fs.allocator(post as usize).is_allocated(pphys));
        }
        // Losing any single member OST leaves a 4-run reconstruction.
        let (most, mstart) = g.members[2];
        let src = fs
            .tier()
            .degraded_source(g.file, most, mstart, g.unit, |c| c, |ost| ost != most)
            .expect("stripe must cover a lost member");
        match src {
            DegradedSource::Stripe { reads, .. } => assert_eq!(reads.len(), 4),
            other => panic!("expected stripe reconstruction, got {other:?}"),
        }
    }

    // Idempotent: the groups are already registered.
    let again = encode_file(&mut fs, &mut wal, f).unwrap();
    assert_eq!(again.groups, 0, "{again:?}");

    let report = fs.fsck(&FsckOptions::default());
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn a_partial_tail_is_not_encoded() {
    let mut fs = tier_fs();
    // 40 blocks: one full group (32) plus a tail no group can cover.
    let f = written_file(&mut fs, "cold", 40);
    let mut wal = mif_mds::TierWal::new();
    let stats = encode_file(&mut fs, &mut wal, f).unwrap();
    assert_eq!(stats.groups, 1, "{stats:?}");
}

#[test]
fn drop_run_frees_blocks_and_unregisters() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "hot", 48);
    let mut wal = mif_mds::TierWal::new();
    replicate_file(&mut fs, &mut wal, f).unwrap();

    // The write path invalidates; the engine later tears down lazily.
    fs.tier_mut().invalidate_file(f.0 .0);
    let doomed = fs.tier().invalid_runs();
    assert!(!doomed.is_empty());
    for run in doomed {
        drop_run(&mut fs, &mut wal, run);
        assert!(!fs.allocator(run.ost as usize).is_allocated(run.phys));
    }
    assert!(fs.tier().is_empty(), "all artifacts torn down");

    let report = fs.fsck(&FsckOptions::default());
    assert!(report.clean(), "{:?}", report.findings);
}

#[test]
fn unlink_after_teardown_leaves_a_clean_fs() {
    let mut fs = tier_fs();
    let f = written_file(&mut fs, "doomed", 64);
    let mut wal = mif_mds::TierWal::new();
    replicate_file(&mut fs, &mut wal, f).unwrap();
    encode_file(&mut fs, &mut wal, f).unwrap();
    assert!(!fs.tier().is_empty());

    let runs = fs.tier().runs_of_file(f.0 .0);
    for run in runs {
        drop_run(&mut fs, &mut wal, run);
    }
    assert!(fs.tier().is_empty());
    fs.close(f);
    fs.unlink(f);
    let report = fs.fsck(&FsckOptions::default());
    assert!(report.clean(), "{:?}", report.findings);
}
