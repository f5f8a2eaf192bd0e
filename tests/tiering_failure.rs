//! The tiering failure scenario, end to end: heat builds under threaded
//! traffic, a maintenance pass places replicas (hot) and 4+2 parity
//! groups (cold), then a disk dies. The dead shard must fail writes
//! fast, serve every replica- or parity-covered read degraded, rebuild
//! in the background *under live reader traffic*, and come out of
//! offline fsck clean with nothing to repair.

use mif::alloc::{PolicyKind, StreamId};
use mif::fsck::{run, FsckOptions};
use mif::mds::RemapWal;
use mif::pfs::{ConcurrentFs, FsConfig};
use mif::simdisk::IoFault;
use mif::tier::{Heat, TierEngine};
use std::sync::atomic::{AtomicBool, Ordering};

const OSTS: u32 = 6;
const STRIPE: u64 = 8;
const HOT_BLOCKS: u64 = 48;
const COLD_BLOCKS: u64 = 64;

fn config() -> FsConfig {
    let mut cfg = FsConfig::with_policy(PolicyKind::OnDemand, OSTS);
    cfg.stripe_blocks = STRIPE;
    cfg
}

/// Quiesce the front-end, run one maintenance pass, re-shard.
fn maintain(
    cfs: ConcurrentFs,
    engine: &mut TierEngine,
    remap: &mut RemapWal,
) -> (ConcurrentFs, mif::tier::MaintenanceStats) {
    let mut fs = cfs.into_engine();
    let stats = engine.maintain(&mut fs, remap).expect("maintenance IO");
    (ConcurrentFs::from_engine(fs), stats)
}

#[test]
fn disk_death_degraded_service_and_live_rebuild() {
    let cfs = ConcurrentFs::new(config());
    let s = StreamId::new(0, 0);
    let hot = cfs.create("hot.dat", Some(HOT_BLOCKS));
    let cold = cfs.create("cold.dat", Some(COLD_BLOCKS));
    cfs.write(hot, s, 0, HOT_BLOCKS);
    cfs.write(cold, s, 0, COLD_BLOCKS);
    cfs.sync();

    // Register both files with the classifier (the setup writes), then
    // let threaded read traffic on the hot file build heat while the
    // cold file's estimate decays: 4 threads x 4 reads per tick.
    let mut engine = TierEngine::default();
    engine.observe(&cfs.drain_access());
    for _ in 0..12 {
        std::thread::scope(|sc| {
            for t in 0..4u32 {
                let cfs = &cfs;
                sc.spawn(move || {
                    for i in 0..4u64 {
                        cfs.read(
                            hot,
                            StreamId::new(t + 1, 0),
                            (i * STRIPE) % HOT_BLOCKS,
                            STRIPE,
                        );
                    }
                });
            }
        });
        engine.observe(&cfs.drain_access());
    }
    assert_eq!(engine.heat().heat(hot.0 .0), Heat::Hot, "hot set missed");
    assert_eq!(engine.heat().heat(cold.0 .0), Heat::Cold, "cold set missed");

    // Maintenance: the hot file's one 8-block span per OST gains a
    // replica each; the cold file packs into 64 / (4 * 8) = 2 groups.
    let mut remap = RemapWal::new();
    let (cfs, stats) = maintain(cfs, &mut engine, &mut remap);
    assert_eq!(
        stats.replicas_placed, OSTS as u64,
        "one replica per source span"
    );
    assert_eq!(stats.groups_encoded, 2, "two 4+2 groups");
    assert_eq!(stats.skipped_no_space, 0);

    // Kill a disk that hosts hot data (every OST does: 6 stripe pieces
    // land one per OST; replicas point at their source shard).
    let victim = cfs.tier_snapshot().replicas()[0].src_ost as usize;
    cfs.fail_ost(victim);
    assert!(cfs.ost_failed(victim));
    assert!(cfs.ost_degraded(victim));

    // Writes touching the dead shard fail fast, before any mutation.
    let (ost, fault) = cfs.try_write(hot, s, 0, HOT_BLOCKS).unwrap_err();
    assert_eq!(ost, victim);
    assert!(matches!(fault, IoFault::DiskFailed), "got {fault}");

    // Degraded reads: hot pieces on the victim come from replicas, cold
    // pieces reconstruct from the 3 surviving members + parity — under
    // concurrent readers.
    std::thread::scope(|sc| {
        for t in 0..4u32 {
            let cfs = &cfs;
            sc.spawn(move || {
                for _ in 0..8 {
                    cfs.try_read(hot, StreamId::new(t + 1, 1), 0, HOT_BLOCKS)
                        .expect("replica-covered read failed degraded");
                    cfs.try_read(cold, StreamId::new(t + 1, 2), 0, COLD_BLOCKS)
                        .expect("parity-covered read failed degraded");
                }
            });
        }
    });

    // Swap the disk and rebuild in the background while readers hammer
    // both files; every span on the victim has redundancy, so nothing
    // is uncovered.
    cfs.begin_rebuild(victim);
    assert!(!cfs.ost_failed(victim));
    assert!(cfs.ost_degraded(victim));
    let stop = AtomicBool::new(false);
    let (rebuilt, uncovered) = std::thread::scope(|sc| {
        for t in 0..3u32 {
            let (cfs, stop) = (&cfs, &stop);
            sc.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cfs.try_read(hot, StreamId::new(t + 1, 3), 0, HOT_BLOCKS)
                        .expect("read failed during rebuild");
                    cfs.try_read(cold, StreamId::new(t + 1, 4), 0, COLD_BLOCKS)
                        .expect("read failed during rebuild");
                }
            });
        }
        let r = cfs.rebuild_ost(victim).expect("rebuild IO");
        stop.store(true, Ordering::Relaxed);
        r
    });
    assert!(rebuilt > 0, "nothing rebuilt");
    assert_eq!(uncovered, 0, "every victim span had redundancy");
    assert!(!cfs.ost_degraded(victim), "rebuild must clear the flag");

    // Back to normal service: direct reads, and the write that failed
    // degraded now lands (invalidating the hot replicas it covers).
    cfs.read(hot, s, 0, HOT_BLOCKS);
    cfs.read(cold, s, 0, COLD_BLOCKS);
    cfs.write(hot, s, 0, HOT_BLOCKS);
    cfs.sync();

    // A final maintenance pass reaps the invalidated replicas lazily
    // (and re-promotes the still-hot file), then offline fsck with
    // repair enabled finds a fully consistent system.
    let mut fs = cfs.into_engine();
    let reap = engine.maintain(&mut fs, &mut remap).expect("reap pass");
    assert_eq!(reap.dropped_runs, OSTS as u64, "stale replicas reaped");
    fs.close(hot);
    fs.close(cold);
    let report = run(&mut fs, &FsckOptions::offline_repair());
    assert!(report.clean(), "not fsck-clean after rebuild: {report:?}");
    assert_eq!(
        report.repaired, 0,
        "fsck had to repair: {:?}",
        report.actions
    );
}

#[test]
fn an_uncovered_piece_on_a_dead_disk_fails_the_read() {
    let cfs = ConcurrentFs::new(config());
    let s = StreamId::new(0, 0);
    let f = cfs.create("plain.dat", Some(HOT_BLOCKS));
    cfs.write(f, s, 0, HOT_BLOCKS);
    cfs.sync();

    // No tiering ran: the file has no redundancy anywhere.
    cfs.fail_ost(2);
    let (ost, fault) = cfs.try_read(f, s, 0, HOT_BLOCKS).unwrap_err();
    assert_eq!(ost, 2);
    assert!(matches!(fault, IoFault::DiskFailed), "got {fault}");

    // The surviving shards still serve spans that avoid the dead one.
    let mut served = 0;
    for i in 0..HOT_BLOCKS / STRIPE {
        if cfs.try_read(f, s, i * STRIPE, STRIPE).is_ok() {
            served += 1;
        }
    }
    assert_eq!(served, HOT_BLOCKS / STRIPE - 1, "exactly one piece is lost");
}
