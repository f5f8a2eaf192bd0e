//! Disk-population lifecycle under crashes: online drain/add power-cut
//! matrix, rebuild boundaries, and degraded reads.
//!
//! The drain driver relocates whole columns through the same WAL
//! Intent/Commit protocol as defragmentation, so a power cut at *any*
//! protocol point must leave the system recoverable: `recover` + an
//! offline `fsck --repair` reports clean with **zero** repairs applied,
//! the interrupted drain resumes to completion, and the evacuated bay
//! can rejoin the population and serve new files.

mod oracle;

use mif::defrag::{drain_ost, recover, relocate_column, CrashPoint, Outcome};
use mif::fsck::FsckOptions;
use mif::mds::wal::WAL_RECORD_BYTES;
use mif::mds::RemapWal;
use mif::pfs::concurrent::ConcurrentFs;
use mif::pfs::{DiskHealth, FileSystem, OpenFile};
use mif::simdisk::IoFault;
use mif::workloads::{age_data_fs, DataAgingParams};
use mif_alloc::StreamId;

/// Every protocol crash point, including torn WAL appends.
fn crash_points() -> Vec<CrashPoint> {
    let mut points = vec![
        CrashPoint::AfterIntent,
        CrashPoint::AfterAlloc,
        CrashPoint::AfterCopy,
        CrashPoint::AfterCommit,
    ];
    for persisted in [1, 7, 44, WAL_RECORD_BYTES - 1] {
        points.push(CrashPoint::TornIntent { persisted });
        points.push(CrashPoint::TornCommit { persisted });
    }
    points
}

fn aged(seed: u64) -> (FileSystem, Vec<(OpenFile, u64)>) {
    let params = DataAgingParams {
        seed,
        ..Default::default()
    };
    let (fs, survivors) = age_data_fs(&params);
    let spans = survivors.iter().map(|&f| (f, fs.file_size(f))).collect();
    (fs, spans)
}

/// Oracle invariants plus a repair-mode fsck with nothing to repair.
fn assert_settled(ctx: &str, fs: &mut FileSystem, spans: &[(OpenFile, u64)]) {
    let files = fs.file_handles();
    oracle::assert_physical_disjoint(ctx, fs, &files);
    oracle::assert_conservation(ctx, fs);
    for &(f, size) in spans {
        oracle::assert_written_ranges_mapped(ctx, fs, f, &[(0, size)]);
    }
    let report = mif::fsck::run(fs, &FsckOptions::offline_repair());
    assert!(
        report.clean() && report.repaired == 0,
        "{ctx}: fsck: {}",
        report.summary()
    );
}

/// A file with data on the draining bay, and a destination bay.
fn drain_victim(fs: &FileSystem, bay: usize) -> Option<(OpenFile, usize)> {
    fs.file_handles().into_iter().find_map(|f| {
        (0..fs.column_count(f)).find_map(|col| {
            (fs.ost_of_column(f, col) == Some(bay as u32) && !fs.physical_layout(f, col).is_empty())
                .then_some((f, col))
        })
    })
}

#[test]
fn drain_crash_matrix_recovers_at_every_point() {
    let bay = 1usize;
    for (pi, &point) in crash_points().iter().enumerate() {
        let (mut fs, spans) = aged(0xF1EE7 + pi as u64);
        let ctx = format!("point {pi} ({point:?})");
        fs.begin_drain(bay);
        fs.release_preallocations();
        let (file, col) = drain_victim(&fs, bay).expect("aged fs populates every bay");
        let dst = fs
            .active_osts()
            .into_iter()
            .map(|o| o as usize)
            .max_by_key(|&o| fs.allocator(o).free_blocks())
            .expect("placement-accepting bay exists");

        let mut wal = RemapWal::new();
        match relocate_column(&mut fs, &mut wal, file, col, dst, Some(point)) {
            Outcome::Crashed { .. } => {}
            other => panic!("{ctx}: expected a crash, got {other:?}"),
        }

        // Reboot: recover, verify, and check recovery is idempotent.
        recover(&mut fs, wal.image());
        assert_settled(&ctx, &mut fs, &spans);
        let again = recover(&mut fs, wal.image());
        assert_eq!((again.redone, again.rolled_back), (0, 0), "{ctx}");

        // The interrupted drain resumes to completion...
        let stats = drain_ost(&mut fs, &mut wal, bay);
        assert!(stats.completed, "{ctx}: {stats:?}");
        assert_eq!(fs.ost_health(bay), DiskHealth::Absent, "{ctx}");
        assert_settled(&format!("{ctx} (drained)"), &mut fs, &spans);

        // ...and the bay rejoins the population and serves new files.
        fs.add_ost(bay);
        let f = fs.create(&format!("post-crash-{pi}"), None);
        assert!(fs.ost_map_of(f).contains(&(bay as u32)), "{ctx}");
        fs.begin_round();
        fs.write(f, StreamId::new(99, 0), 0, 64);
        fs.end_round();
        fs.sync_data();
        fs.close(f);
        assert_eq!(fs.file_allocated(f), 64, "{ctx}");
        assert_settled(&format!("{ctx} (re-added)"), &mut fs, &spans);
    }
}

#[test]
fn expansion_is_metadata_only_and_crash_trivial() {
    // Growing the population writes no data: a "crash" right after
    // `add_ost` (no WAL involved) must already be fsck-clean, and files
    // created after the expansion stripe over the wider set.
    let mut cfg = mif::pfs::FsConfig::with_policy(mif::alloc::PolicyKind::Reservation, 3);
    cfg.spare_osts = 1;
    let mut fs = FileSystem::new(cfg);
    let bay = fs.total_osts() - 1;
    assert_eq!(fs.ost_health(bay), DiskHealth::Absent);

    let mut spans = Vec::new();
    for i in 0..4 {
        let f = fs.create(&format!("pre-{i}"), None);
        fs.begin_round();
        fs.write(f, StreamId::new(i, 0), 0, 256);
        fs.end_round();
        fs.sync_data();
        fs.close(f);
        spans.push((f, 256));
        assert!(!fs.ost_map_of(f).contains(&(bay as u32)));
    }

    fs.add_ost(bay);
    fs.release_preallocations();
    assert_settled("post-add", &mut fs, &spans);
    assert_eq!(fs.lifecycle().osts_added, 1);
    let f = fs.create("wider", None);
    assert_eq!(fs.ost_map_of(f).len(), fs.active_osts().len());
    assert!(fs.ost_map_of(f).contains(&(bay as u32)));
}

#[test]
fn rebuild_boundary_power_cuts_are_fsck_clean() {
    // A bay dies; power cuts at both rebuild boundaries (before the
    // rebuild starts, and after `begin_rebuild` replaced the spindle but
    // before any data moved) leave a system fsck --repair reports clean
    // with zero repairs: the rebuild protocol touches no metadata until
    // it completes.
    let (mut fs, spans) = aged(0x12EB_111D);
    fs.fail_ost(2);
    assert_settled("failed bay", &mut fs, &spans);

    fs.begin_rebuild(2);
    assert_settled("mid-rebuild", &mut fs, &spans);
    assert_eq!(fs.ost_health(2), DiskHealth::Rebuilding);

    // After the "reboot", the rebuild restarts from scratch and the bay
    // rejoins — run it through the concurrent front-end (the one rebuild
    // code path).
    let cfs = ConcurrentFs::from_engine(fs);
    cfs.rebuild_ost(2).expect("rebuild completes");
    assert_eq!(cfs.ost_health(2), DiskHealth::Healthy);
    let mut fs = cfs.into_engine();
    assert_eq!(fs.lifecycle().rebuilds_completed, 1);
    assert_settled("rebuilt", &mut fs, &spans);
}

#[test]
fn degraded_reads_never_touch_the_dead_bay() {
    // A failed disk faults every request submitted to it, so a degraded
    // read that *succeeds* proves its bytes came entirely from surviving
    // bays — the simulator's checksum argument. An uncovered span must
    // surface a typed `DiskFailed`, never silently-stale bytes.
    let (fs, _) = aged(0x0DEA_DBA1);
    let cfs = ConcurrentFs::from_engine(fs);
    let file = cfs.open("aged-0").expect("survivor exists");
    let len = cfs.file_size(file).clamp(1, 64);

    // Replicate the file so every span is covered, then kill a bay it
    // stripes over.
    let bay = 0usize;
    let tier = {
        let mut fs = cfs.into_engine();
        let mut wal = mif::mds::TierWal::new();
        mif::tier::replicate_file(&mut fs, &mut wal, file).expect("replication");
        // Replicas avoid the source bay, so bay 0's spans are covered
        // elsewhere.
        fs
    };
    let cfs = ConcurrentFs::from_engine(tier);
    cfs.fail_ost(bay);
    assert!(cfs.ost_failed(bay));

    cfs.try_read(file, StreamId::new(7, 0), 0, len)
        .expect("covered degraded read routes around the dead bay");

    // A fresh, uncovered file with a column on the dead bay fails typed.
    // Revive the bay through the rebuild path so create() stripes over it.
    let cfs2 = {
        let mut fs = cfs.into_engine();
        fs.begin_rebuild(bay);
        fs.finish_rebuild(bay);
        ConcurrentFs::from_engine(fs)
    };
    let fresh = cfs2.create("uncovered", None);
    cfs2.write(fresh, StreamId::new(8, 0), 0, 128);
    cfs2.sync();
    // A short write fills a single stripe unit, so fail the bay that
    // actually hosts it.
    let (cfs2, dead) = {
        let fs = cfs2.into_engine();
        let col = (0..fs.column_count(fresh))
            .find(|&c| !fs.physical_layout(fresh, c).is_empty())
            .expect("write is mapped");
        let dead = fs.ost_of_column(fresh, col).unwrap() as usize;
        (ConcurrentFs::from_engine(fs), dead)
    };
    cfs2.fail_ost(dead);
    assert_eq!(
        cfs2.stats()
            .health
            .iter()
            .position(|&h| h == DiskHealth::Failed),
        Some(dead)
    );
    let err = cfs2
        .try_read(fresh, StreamId::new(8, 0), 0, 128)
        .expect_err("uncovered span on a dead bay must fail typed");
    assert_eq!(err, (dead, IoFault::DiskFailed));
}
