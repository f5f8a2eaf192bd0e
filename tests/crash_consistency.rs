//! Crash-consistency checker: enumerate crash points over a recorded
//! write sequence, damage the journal image at each one, recover, and
//! assert the recovered MDS is exactly the committed prefix and passes the
//! fsck-style invariants.
//!
//! Every assertion message carries the workload seed and the crash index,
//! so any failure reproduces with a one-line change.

use mif::mds::wal::{self, RecoveryStop, WalRecord, WAL_RECORD_BYTES};
use mif::mds::{DirMode, InodeNo, LoggedOp, Mds, MdsConfig, OpLog, RemapWal, ROOT_INO};
use mif::simdisk::{FaultPlan, IoFault};
use mif_rng::SmallRng;

mod oracle;

/// Generate a valid random op against the live namespace, mirroring it
/// into the log (invalid ops — duplicate creates etc. — are skipped the
/// way the MDS would reject them before journaling).
fn step(mds: &mut Mds, log: &mut OpLog, rng: &mut SmallRng, dirs: &[InodeNo; 2]) {
    let kind = rng.gen_range(0u8..4);
    let n = rng.gen::<u8>();
    let d = dirs[(n % 2) as usize];
    let name = format!("f{}", n % 32);
    let op = match kind {
        0 => LoggedOp::Create {
            parent: d,
            name,
            extents: (n % 9) as u32 + 1,
        },
        1 => LoggedOp::Unlink { parent: d, name },
        2 => LoggedOp::Utime { parent: d, name },
        _ => LoggedOp::Rename {
            src: d,
            name,
            dst: dirs[(n as usize + 1) % 2],
            new_name: format!("r{}", n % 32),
        },
    };
    if let LoggedOp::Create { parent, name, .. } = &op {
        if mds.lookup(*parent, name).is_some() {
            return;
        }
    }
    if let LoggedOp::Rename { dst, new_name, .. } = &op {
        if mds.lookup(*dst, new_name).is_some() {
            return;
        }
    }
    mif::mds::replay::apply(mds, &op);
    log.record(op);
}

/// A seeded workload: ~`target` valid operations over two directories.
fn workload(seed: u64, target: usize) -> (DirMode, OpLog) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mode = [DirMode::Normal, DirMode::Htree, DirMode::Embedded][rng.gen_range(0usize..3)];
    let mut mds = Mds::new(MdsConfig::with_mode(mode));
    let mut log = OpLog::new();
    for dname in ["d1", "d2"] {
        let op = LoggedOp::Mkdir {
            parent: ROOT_INO,
            name: dname.into(),
        };
        mif::mds::replay::apply(&mut mds, &op);
        log.record(op);
    }
    let d1 = mds.lookup(ROOT_INO, "d1").expect("d1");
    let d2 = mds.lookup(ROOT_INO, "d2").expect("d2");
    let dirs = [d1, d2];
    while log.len() < target {
        step(&mut mds, &mut log, &mut rng, &dirs);
    }
    (mode, log)
}

/// Check one crash image: recovery must yield exactly `committed` ops and
/// replay to a checker-clean namespace.
fn check_crash_point(
    seed: u64,
    crash_idx: usize,
    mode: DirMode,
    log: &OpLog,
    image: &[u8],
    committed: usize,
) {
    let r = wal::recover(image, 0);
    assert_eq!(
        r.ops,
        log.ops[..committed].to_vec(),
        "seed {seed} crash {crash_idx}: recovered ops are not the committed prefix \
         (stop: {:?})",
        r.stop
    );
    let mut mds = r.replay(mode);
    let problems = mds.check();
    assert!(
        problems.is_empty(),
        "seed {seed} crash {crash_idx}: recovered namespace inconsistent: {problems:?}"
    );
    // Every crash point is followed by fsck --repair (workers=1 — repair
    // runs on the caller's thread for determinism): recovery must hand
    // fsck a store it has nothing to fix, and the second pass stays clean.
    let report = mif::fsck::run_mds(&mut mds, true);
    assert!(
        report.clean() && report.repaired == 0,
        "seed {seed} crash {crash_idx}: fsck after recovery: {}",
        report.summary()
    );
    assert!(
        mif::fsck::run_mds(&mut mds, false).clean(),
        "seed {seed} crash {crash_idx}: dirty after fsck repair"
    );
}

fn run_crash_scan(seed: u64, ops_target: usize, torn_offsets: &[usize]) -> usize {
    let (mode, log) = workload(seed, ops_target);
    let image = wal::encode_log(&log);
    let records = log.len();
    let mut crash_points = 0usize;

    // Clean cuts: power loss exactly between two record writes.
    for cut in 0..=records {
        check_crash_point(
            seed,
            crash_points,
            mode,
            &log,
            &image[..cut * WAL_RECORD_BYTES],
            cut,
        );
        crash_points += 1;
    }
    // Torn cuts: power loss mid-record — the tail record must be rejected
    // and everything before it kept.
    for rec in 0..records {
        for &off in torn_offsets {
            let cut = rec * WAL_RECORD_BYTES + off.min(WAL_RECORD_BYTES - 1);
            check_crash_point(seed, crash_points, mode, &log, &image[..cut], rec);
            crash_points += 1;
        }
    }
    crash_points
}

#[test]
fn every_crash_point_recovers_the_committed_prefix() {
    for seed in [0xC4A5_0001u64, 0xC4A5_0002, 0xC4A5_0003] {
        let points = run_crash_scan(seed, 60, &[1, 67]);
        assert!(
            points >= 100,
            "seed {seed}: only {points} crash points enumerated"
        );
    }
}

/// Torn records with *garbage* tails (stale media content, not zeroes)
/// are also rejected by the checksum.
#[test]
fn torn_records_with_stale_tails_are_rejected() {
    for seed in [11u64, 12, 13] {
        let (mode, log) = workload(seed, 40);
        let image = wal::encode_log(&log);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7EA5);
        for crash_idx in 0..64 {
            let rec = rng.gen_range(0usize..log.len());
            let keep = rng.gen_range(1usize..WAL_RECORD_BYTES);
            let mut img = image[..(rec + 1) * WAL_RECORD_BYTES].to_vec();
            // Overwrite the tail of the last record with pseudo-random
            // stale bytes.
            let base = rec * WAL_RECORD_BYTES;
            for b in &mut img[base + keep..] {
                *b = rng.gen::<u8>();
            }
            let r = wal::recover(&img, 0);
            // Either the damage is detected (prefix ends at rec) or —
            // astronomically unlikely — the random tail forms a valid
            // record, which the seqno check would still bound.
            assert!(
                r.ops.len() <= rec + 1,
                "seed {seed} crash {crash_idx}: recovered past the damage"
            );
            assert_eq!(
                r.ops[..rec.min(r.ops.len())],
                log.ops[..rec.min(r.ops.len())],
                "seed {seed} crash {crash_idx}: prefix mismatch"
            );
            let mut mds = r.replay(mode);
            assert!(
                mds.check().is_empty(),
                "seed {seed} crash {crash_idx}: inconsistent recovery"
            );
            assert!(
                mif::fsck::run_mds(&mut mds, true).clean(),
                "seed {seed} crash {crash_idx}: fsck found damage after recovery"
            );
        }
    }
}

/// Bridge to the fault-injection layer: run fallible MDS ops under a
/// seeded power-cut plan, then recover from the mirrored WAL prefix and
/// verify the durable namespace.
#[test]
fn power_cut_workload_recovers_cleanly() {
    for seed in [1u64, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(0x9C_0000 + seed);
        let cut_after = rng.gen_range(5u64..60);
        let mut mds = Mds::new(MdsConfig::with_mode(DirMode::Embedded));
        mds.install_faults(FaultPlan::none(seed).with_power_cut_after(cut_after));
        let mut wal_writer = mif::mds::WalWriter::new();
        let mut survived = 0usize;
        for i in 0..2000 {
            let op = LoggedOp::Create {
                parent: ROOT_INO,
                name: format!("f{i}"),
                extents: 1,
            };
            match mds.try_create(ROOT_INO, &format!("f{i}"), 1) {
                Ok(_) => {
                    wal_writer.append(&op);
                    survived += 1;
                }
                Err(IoFault::PowerCut { .. }) => break,
                Err(other) => panic!("seed {seed}: unexpected fault {other}"),
            }
            // Periodic fsync: forces journal flush + checkpoint traffic, so
            // the cut lands at a realistic group-commit boundary.
            if i % 8 == 7 && mds.try_sync().is_err() {
                break;
            }
        }
        assert!(
            mds.powered_off(),
            "seed {seed}: workload ended without a power cut"
        );
        assert!(survived > 0, "seed {seed}: nothing survived");
        let r = wal::recover(wal_writer.image(), 0);
        assert_eq!(r.stop, RecoveryStop::CleanEnd, "seed {seed}");
        assert_eq!(r.ops.len(), survived, "seed {seed}");
        let mut recovered = r.replay(DirMode::Embedded);
        for i in 0..survived {
            assert!(
                recovered.lookup(ROOT_INO, &format!("f{i}")).is_some(),
                "seed {seed}: durable op {i} lost"
            );
        }
        assert!(recovered.check().is_empty(), "seed {seed}");
        let report = mif::fsck::run_mds(&mut recovered, true);
        assert!(
            report.clean(),
            "seed {seed}: fsck after power-cut recovery: {}",
            report.summary()
        );
        assert!(
            mif::fsck::run_mds(&mut recovered, false).clean(),
            "seed {seed}: dirty after fsck repair"
        );
    }
}

/// Exhaustive byte-granular crash matrix — every single byte offset of the
/// image is a crash point, across all three directory modes. Slow; run
/// with `cargo test -- --ignored`.
#[test]
#[ignore = "exhaustive matrix; run with --ignored"]
fn crash_matrix_every_byte_offset() {
    for seed in [0xFFAA_0001u64, 0xFFAA_0002, 0xFFAA_0003] {
        let (mode, log) = workload(seed, 32);
        let image = wal::encode_log(&log);
        for cut in 0..=image.len() {
            let committed = cut / WAL_RECORD_BYTES;
            check_crash_point(seed, cut, mode, &log, &image[..cut], committed);
        }
    }
}

// ---------------------------------------------------------------------------
// Group commit under power cut: the coalesced WAL persists MANY records in
// one merged flush, so a cut can now land *inside* the merged buffer — a
// torn prefix spanning several records plus a partial one. Recovery must
// still be all-or-nothing per record: every record persisted whole is
// replayed, the partial tail is rejected, and `fsck --repair` has nothing
// to fix. 2 seeds × all 3 directory-placement policies.
// ---------------------------------------------------------------------------

use mif::mds::{FlushFaultPlan, GroupCommitWal};

/// Records coalesced per merged flush in the aligned matrix below.
const BATCH: usize = 8;

/// A seeded workload in a *fixed* directory mode (the matrix sweeps modes
/// explicitly; `workload` derives the mode from the seed).
fn workload_in_mode(mode: DirMode, seed: u64, target: usize) -> OpLog {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mds = Mds::new(MdsConfig::with_mode(mode));
    let mut log = OpLog::new();
    for dname in ["d1", "d2"] {
        let op = LoggedOp::Mkdir {
            parent: ROOT_INO,
            name: dname.into(),
        };
        mif::mds::replay::apply(&mut mds, &op);
        log.record(op);
    }
    let d1 = mds.lookup(ROOT_INO, "d1").expect("d1");
    let d2 = mds.lookup(ROOT_INO, "d2").expect("d2");
    let dirs = [d1, d2];
    while log.len() < target {
        step(&mut mds, &mut log, &mut rng, &dirs);
    }
    log
}

/// Feed `log` through a group-commit WAL in `BATCH`-record batches (one
/// merged flush per batch) with `plan` armed; return the media image at
/// the crash instant.
fn group_commit_image(log: &OpLog, slab: usize, plan: FlushFaultPlan) -> Vec<u8> {
    let wal = GroupCommitWal::new(slab);
    wal.set_fault(plan);
    for batch in log.ops.chunks(BATCH) {
        for op in batch {
            wal.append(|seq| op.encode(seq));
        }
        // One commit for the whole batch: the staged records ride a single
        // merged flush (slab >= BATCH keeps flush boundaries aligned).
        wal.commit_all();
    }
    assert!(wal.frozen(), "armed fault plan never fired");
    let stats = wal.stats();
    assert!(
        stats.max_batch as usize >= BATCH.min(slab),
        "flushes did not coalesce (max batch {})",
        stats.max_batch
    );
    wal.image()
}

/// Power cuts inside coalesced multi-record flushes: cut merged flush
/// `cut_at_flush` after every interesting byte offset — record-aligned,
/// mid-header, mid-payload, one byte short of a whole record — with both
/// short-tail and zero-filled-tail media behaviour. The committed prefix
/// is exactly the records persisted whole.
#[test]
fn group_commit_torn_flush_recovers_whole_record_prefix() {
    let flush_bytes = BATCH * WAL_RECORD_BYTES;
    for seed in [0x6C_0001u64, 0x6C_0002] {
        for mode in [DirMode::Normal, DirMode::Htree, DirMode::Embedded] {
            let log = workload_in_mode(mode, seed, 48); // 6 aligned flushes
            let mut crash_idx = 0usize;
            for cut_at_flush in [0u64, 1, 3] {
                for persist_bytes in [
                    0usize,
                    1,
                    WAL_RECORD_BYTES + 9,      // mid-header of record 1
                    3 * WAL_RECORD_BYTES,      // aligned: 3 whole records
                    5 * WAL_RECORD_BYTES + 64, // mid-payload of record 5
                    flush_bytes - 1,           // one byte short of the flush
                    flush_bytes,               // the whole flush (clean cut)
                ] {
                    for zero_fill in [false, true] {
                        let image = group_commit_image(
                            &log,
                            64,
                            FlushFaultPlan {
                                cut_at_flush,
                                persist_bytes,
                                zero_fill,
                            },
                        );
                        let committed = (cut_at_flush as usize * BATCH
                            + persist_bytes / WAL_RECORD_BYTES)
                            .min(log.len());
                        check_crash_point(seed, crash_idx, mode, &log, &image, committed);
                        crash_idx += 1;
                    }
                }
            }
            assert!(crash_idx >= 42, "matrix shrank to {crash_idx} points");
        }
    }
}

/// The same cuts against a slab smaller than the batch: backpressure
/// forces appenders to drain mid-batch, so flush boundaries are no longer
/// aligned — the recovered log must still be an exact per-record prefix
/// that replays to an fsck-clean namespace.
#[test]
fn group_commit_crash_under_backpressure_is_still_a_prefix() {
    for seed in [0x6C_0011u64, 0x6C_0012] {
        for mode in [DirMode::Normal, DirMode::Htree, DirMode::Embedded] {
            let log = workload_in_mode(mode, seed, 48);
            for (crash_idx, (cut_at_flush, persist_bytes)) in [
                (0u64, 1usize),
                (1, WAL_RECORD_BYTES / 2),
                (2, 2 * WAL_RECORD_BYTES + 100),
                (5, 3 * WAL_RECORD_BYTES - 1),
            ]
            .into_iter()
            .enumerate()
            {
                // Slab of 4 < BATCH of 8: appends park and self-flush.
                let image = group_commit_image(
                    &log,
                    4,
                    FlushFaultPlan {
                        cut_at_flush,
                        persist_bytes,
                        zero_fill: crash_idx % 2 == 1,
                    },
                );
                // Flush boundaries are backpressure-driven; derive the
                // committed count from the image instead of pinning it.
                let committed = wal::recover(&image, 0).ops.len();
                assert!(
                    committed <= log.len(),
                    "seed {seed} crash {crash_idx}: recovered past the log"
                );
                check_crash_point(seed, crash_idx, mode, &log, &image, committed);
            }
        }
    }
}

use mif::defrag::{recover, relocate_ost, scan, CrashPoint, Outcome};
use mif::fsck::{FsckMode, FsckOptions};
use mif::pfs::FileSystem;
use mif::workloads::{age_data_fs, DataAgingParams};

/// Every protocol crash point, including torn WAL appends at byte offsets
/// spanning the record: inside the magic, the header, the payload, and one
/// byte short of the checksum's end.
fn defrag_crash_points() -> Vec<CrashPoint> {
    let mut points = vec![
        CrashPoint::AfterIntent,
        CrashPoint::AfterAlloc,
        CrashPoint::AfterCopy,
        CrashPoint::AfterCommit,
    ];
    for persisted in [1, 3, 7, 14, 44, 90, WAL_RECORD_BYTES - 1] {
        points.push(CrashPoint::TornIntent { persisted });
        points.push(CrashPoint::TornCommit { persisted });
    }
    points
}

/// Aged file system + the ranges every survivor's readers rely on (the
/// aging generator writes each survivor's full logical span).
fn aged_fs(seed: u64) -> (FileSystem, Vec<(mif::pfs::OpenFile, u64)>) {
    let params = DataAgingParams {
        seed,
        ..Default::default()
    };
    let (fs, survivors) = age_data_fs(&params);
    let spans = survivors.iter().map(|&f| (f, fs.file_size(f))).collect();
    (fs, spans)
}

/// All-invariant check after a recovery: oracle invariants plus a
/// repair-mode fsck that must have nothing to do.
fn assert_settled(ctx: &str, fs: &mut FileSystem, spans: &[(mif::pfs::OpenFile, u64)]) {
    let files = fs.file_handles();
    oracle::assert_physical_disjoint(ctx, fs, &files);
    oracle::assert_conservation(ctx, fs);
    for &(f, size) in spans {
        oracle::assert_written_ranges_mapped(ctx, fs, f, &[(0, size)]);
    }
    let opts = FsckOptions {
        workers: 1,
        mode: FsckMode::Offline,
        repair: true,
    };
    let report = mif::fsck::run(fs, &opts);
    assert!(
        report.clean() && report.repaired == 0,
        "{ctx}: fsck after defrag recovery: {}",
        report.summary()
    );
}

#[test]
fn defrag_crash_matrix_recovers_at_every_point() {
    for seed in [0xDF_0001u64, 0xDF_0002] {
        for (pi, &point) in defrag_crash_points().iter().enumerate() {
            // Fresh, deterministic world per crash point; a couple of
            // clean relocations first so the WAL has a committed prefix.
            let (mut fs, spans) = aged_fs(seed);
            let ctx = format!("seed {seed} point {pi} ({point:?})");
            let candidates = scan(&fs, 1).candidates;
            assert!(candidates.len() >= 3, "{ctx}: aged fs not fragmented");
            let mut wal = RemapWal::new();
            let osts = fs.config.osts as usize;
            for c in &candidates[..2] {
                for ost in 0..osts {
                    relocate_ost(&mut fs, &mut wal, c.file, ost, None);
                }
            }

            // Crash the next candidate's first eligible relocation.
            let victim = candidates[2].file;
            let mut crashed = false;
            for ost in 0..osts {
                match relocate_ost(&mut fs, &mut wal, victim, ost, Some(point)) {
                    Outcome::Crashed { .. } => {
                        crashed = true;
                        break;
                    }
                    Outcome::Done { .. } | Outcome::Skipped(_) => {}
                    other => panic!("{ctx}: unexpected outcome {other:?}"),
                }
            }
            assert!(crashed, "{ctx}: crash point never reached");

            // Reboot: recover from the WAL image, then everything must
            // hold — and a second recovery must change nothing.
            let rec = recover(&mut fs, wal.image());
            assert_settled(&ctx, &mut fs, &spans);
            let again = recover(&mut fs, wal.image());
            assert_eq!(
                (again.redone, again.rolled_back),
                (0, 0),
                "{ctx}: recovery not idempotent (first: {rec:?})"
            );
            assert_settled(&format!("{ctx} (re-recovered)"), &mut fs, &spans);
        }
    }
}

/// A full background pass crashed mid-run at an arbitrary relocation,
/// recovered, then *finished* by a second pass: the end state must match
/// an uninterrupted run's layout quality.
#[test]
fn interrupted_defrag_run_finishes_after_recovery() {
    use mif::defrag::{run, DefragConfig};

    let seed = 0xDF_0003u64;
    let (mut fs, spans) = aged_fs(seed);
    let candidates = scan(&fs, 1).candidates;
    let mut wal = RemapWal::new();
    let osts = fs.config.osts as usize;

    // Relocate half the queue, then power-cut in the middle of the next.
    let half = candidates.len() / 2;
    for c in &candidates[..half] {
        for ost in 0..osts {
            relocate_ost(&mut fs, &mut wal, c.file, ost, None);
        }
    }
    let mut crashed = false;
    for ost in 0..osts {
        if let Outcome::Crashed { .. } = relocate_ost(
            &mut fs,
            &mut wal,
            candidates[half].file,
            ost,
            Some(CrashPoint::AfterCopy),
        ) {
            crashed = true;
            break;
        }
    }
    assert!(crashed, "mid-run crash never fired");

    recover(&mut fs, wal.image());
    assert_settled("mid-run crash", &mut fs, &spans);

    // Finish the job; compare against an uninterrupted world.
    let mut wal2 = RemapWal::new();
    run(&mut fs, &mut wal2, &DefragConfig::default());

    let (mut clean_fs, _) = aged_fs(seed);
    let mut clean_wal = RemapWal::new();
    run(&mut clean_fs, &mut clean_wal, &DefragConfig::default());

    let interrupted = scan(&fs, 1).report;
    let uninterrupted = scan(&clean_fs, 1).report;
    assert_eq!(
        interrupted.extents, uninterrupted.extents,
        "crash + recover + resume must reach the same layout quality"
    );
    assert_settled("after resumed run", &mut fs, &spans);
}

// ---- cross-shard rename crash matrix --------------------------------------

use mif::fsck::run_sharded;
use mif::mds::{ShardedMds, XsCrashPoint};

/// A 4-shard world with two striped directories and a rename route that
/// provably crosses shards, plus enough bystander entries that a botched
/// recovery has something to orphan.
fn xs_world(seed: u64) -> (ShardedMds, (u32, String, u32, String)) {
    let mut m = ShardedMds::new(4);
    let left = m.mkdir_striped("left");
    let right = m.mkdir_striped("right");
    let plain = m.mkdir("plain");
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..24 {
        m.create(left, &format!("x{i}"), rng.gen_range(1u32..4));
    }
    for i in 0..8 {
        m.create(right, &format!("y{i}"), 1);
        m.create(plain, &format!("p{i}"), 1);
    }
    // A couple of clean cross-directory renames so the WALs carry a
    // committed prefix ahead of the crash.
    m.rename(left, "x20", right, "warm0");
    m.rename(left, "x21", plain, "warm1");
    let route = (0..20)
        .find_map(|i| {
            let name = format!("x{i}");
            let new_name = format!("z{i}");
            (m.entry_shard(left, &name) != m.entry_shard(right, &new_name))
                .then_some((left, name, right, new_name))
        })
        .expect("some route must cross shards");
    (m, route)
}

/// Every crash point of the two-phase CAS protocol, with the record at
/// the point either absent or torn at offsets spanning the fixed-size
/// record. Recovery must roll the rename exactly the way the commit
/// point dictates, recover idempotently, and leave nothing orphaned or
/// doubled for fsck to find.
#[test]
fn cross_shard_rename_crash_matrix() {
    let seed = 0x8A2D_0001u64;
    // Expected end states, computed on uncrashed twins.
    let (rolled_back, _) = xs_world(seed);
    let rolled_back = rolled_back.snapshot();
    let (mut fwd, (src, ref name, dst, ref new_name)) = xs_world(seed);
    fwd.rename(src, name, dst, new_name);
    let rolled_forward = fwd.snapshot();
    assert_ne!(rolled_back, rolled_forward, "the rename must be observable");

    let torn: [Option<usize>; 5] = [None, Some(0), Some(1), Some(15), Some(WAL_RECORD_BYTES - 1)];
    for point in XsCrashPoint::ALL {
        let cuts: &[Option<usize>] = match point {
            // No record is being written at these points; a torn budget
            // has nothing to tear.
            XsCrashPoint::BeforeIntent | XsCrashPoint::BeforeApply => &[None],
            _ => &torn,
        };
        for &persisted in cuts {
            let ctx = format!("{point:?} persisted={persisted:?}");
            let (mut m, (src, name, dst, new_name)) = xs_world(seed);
            m.rename_crash(src, &name, dst, &new_name, point, persisted);

            let mut rec = ShardedMds::recover(&m.wal_images(), m.shards());
            let expect = if point.commits() {
                &rolled_forward
            } else {
                &rolled_back
            };
            assert_eq!(
                &rec.snapshot(),
                expect,
                "{ctx}: recovery must {} the rename",
                if point.commits() {
                    "roll forward"
                } else {
                    "roll back"
                }
            );

            // Exactly-once at the entry level: never gone from both
            // sides, never present on both.
            let at_src = rec.stat(src, &name);
            let at_dst = rec.stat(dst, &new_name);
            assert!(at_src ^ at_dst, "{ctx}: entry orphaned or doubled");

            // Nothing for the checker: no orphans, no doubles, no head
            // regressions against the journaled CAS advances.
            let report = run_sharded(&mut rec, true);
            assert!(report.clean(), "{ctx}: {:?}", report.findings);
            assert_eq!(report.repaired, 0, "{ctx}: recovery left damage");

            // Recovery is idempotent: recovering the recovered cluster's
            // own journal reaches the same namespace.
            let again = ShardedMds::recover(&rec.wal_images(), rec.shards());
            assert_eq!(again.snapshot(), rec.snapshot(), "{ctx}: not idempotent");
        }
    }
}

/// After a crashed attempt, the *same* rename retried on the recovered
/// cluster converges: rolled-back points simply redo the op; committed
/// points make the retry a no-op-shaped same-result operation. Either
/// way the world ends identical to a never-crashed run.
#[test]
fn crashed_rename_retry_converges() {
    let seed = 0x8A2D_0002u64;
    let (mut fwd, (src, ref name, dst, ref new_name)) = xs_world(seed);
    fwd.rename(src, name, dst, new_name);
    let want = fwd.snapshot();

    for point in XsCrashPoint::ALL {
        let ctx = format!("{point:?}");
        let (mut m, (src, name, dst, new_name)) = xs_world(seed);
        m.rename_crash(src, &name, dst, &new_name, point, None);
        let mut rec = ShardedMds::recover(&m.wal_images(), m.shards());
        // The client saw no ack, so it retries exactly once.
        if !point.commits() {
            rec.rename(src, &name, dst, &new_name);
        }
        assert_eq!(rec.snapshot(), want, "{ctx}: retry did not converge");
        let report = run_sharded(&mut rec, true);
        assert!(
            report.clean() && report.repaired == 0,
            "{ctx}: damage after retry"
        );
    }
}
