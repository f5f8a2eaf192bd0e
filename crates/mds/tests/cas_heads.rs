//! Property tests for the CAS op-head protocol: N real threads racing
//! renames over shared directories. The properties the protocol promises —
//! heads strictly monotone, every operation exactly-once, retries bounded —
//! are asserted over seeded random schedules so a failure reproduces with
//! one number.

use mif_mds::{OpHeadTable, ShardedMds, MAX_CAS_RETRIES};
use mif_rng::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw table property: `threads` threads hammer one head with CAS
/// advances. Every advance is exactly-once (the sum of wins equals the
/// final head) and the head never moves backwards.
#[test]
fn raced_head_advances_are_exactly_once() {
    for &(threads, per_thread) in &[(2usize, 400usize), (4, 200), (8, 100)] {
        let table = OpHeadTable::new();
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut advanced = 0;
                    while advanced < per_thread {
                        let seen = table.load(7);
                        if table.try_advance(7, seen).is_ok() {
                            advanced += 1;
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            table.load(7),
            wins.load(Ordering::Relaxed),
            "every successful CAS moved the head by exactly one"
        );
        assert_eq!(table.load(7), (threads * per_thread) as u64);
    }
}

/// Monotonicity under interference: a reader thread samples the head while
/// writers advance it; no sample may ever be smaller than a previous one.
#[test]
fn head_is_strictly_monotone_under_load() {
    let table = OpHeadTable::new();
    let stop = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..500 {
                    let seen = table.load(3);
                    let _ = table.try_advance(3, seen);
                }
            });
        }
        s.spawn(|| {
            let mut last = 0;
            while stop.load(Ordering::Acquire) == 0 {
                let now = table.load(3);
                assert!(now >= last, "head regressed: {now} < {last}");
                last = now;
            }
        });
        // Writers run to completion, then release the reader.
        // (Scoped threads join at scope end; flag it before that.)
        for _ in 0..2000 {
            let seen = table.load(3);
            let _ = table.try_advance(3, seen);
        }
        stop.store(1, Ordering::Release);
    });
}

/// `force_at_least` (the recovery path) composes with live CAS traffic:
/// it can only raise, and a stale force below the live head is a no-op.
#[test]
fn force_at_least_never_lowers() {
    let table = OpHeadTable::new();
    for _ in 0..64 {
        let seen = table.load(1);
        table.try_advance(1, seen).unwrap();
    }
    assert_eq!(table.load(1), 64);
    table.force_at_least(1, 10); // stale — recovery saw an old journal
    assert_eq!(table.load(1), 64);
    table.force_at_least(1, 99);
    assert_eq!(table.load(1), 99);
}

/// Build a cluster with striped directories sized so cross-shard routes
/// exist between `src` and `dst` for the storm entries.
fn storm_cluster(
    shards: usize,
    entries_per_thread: usize,
    threads: usize,
) -> (ShardedMds, u32, u32) {
    let mut m = ShardedMds::new(shards);
    let src = m.mkdir_striped("src");
    let dst = m.mkdir_striped("dst");
    for t in 0..threads {
        for i in 0..entries_per_thread {
            m.create(src, &format!("t{t}_{i}"), 1);
        }
    }
    (m, src, dst)
}

/// The full protocol under racing threads: every planned op commits
/// exactly once, per-directory heads advance monotonically to exactly the
/// number of journaled CAS advances, and no single op needed more than
/// the retry budget.
#[test]
fn racing_renames_commit_exactly_once_with_bounded_retries() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0xCA5_0000 + seed);
        let threads = 2 + (rng.gen_range(0u32..3) as usize); // 2..=4
        let per_thread = 24;
        let (mut m, src, dst) = storm_cluster(4, per_thread, threads);
        // Only cross-shard routes belong in a CAS storm (the fast path
        // handles the rest); filter by the pure routing function.
        let mut planned: Vec<(usize, usize)> = Vec::new();
        let plan: Vec<Vec<(u32, String, u32, String)>> = (0..threads)
            .map(|t| {
                (0..per_thread)
                    .filter(|&i| {
                        let xs = m.entry_shard(src, &format!("t{t}_{i}"))
                            != m.entry_shard(dst, &format!("m{t}_{i}"));
                        if xs {
                            planned.push((t, i));
                        }
                        xs
                    })
                    .map(|i| (src, format!("t{t}_{i}"), dst, format!("m{t}_{i}")))
                    .collect()
            })
            .collect();
        assert!(
            planned.len() >= threads * per_thread / 2,
            "seed {seed}: too few cross-shard routes to exercise the protocol"
        );
        let heads_before: Vec<u64> = (0..4).map(|s| m.head(s, src) + m.head(s, dst)).collect();
        let report = m.rename_storm(&plan);

        // Exactly-once: every planned op committed; no entry exists
        // twice, none lost, the unplanned ones untouched.
        assert_eq!(report.committed, planned.len() as u64, "seed {seed}");
        for t in 0..threads {
            for i in 0..per_thread {
                let there = m.stat(dst, &format!("m{t}_{i}"));
                let still = m.stat(src, &format!("t{t}_{i}"));
                if planned.contains(&(t, i)) {
                    assert!(there, "seed {seed}: t{t}_{i} lost");
                    assert!(!still, "seed {seed}: t{t}_{i} still at source");
                } else {
                    assert!(still && !there, "seed {seed}: unplanned t{t}_{i} moved");
                }
            }
        }

        // Bounded retries: no op exceeded the CAS budget.
        assert!(
            report.max_retries_single_op < MAX_CAS_RETRIES,
            "seed {seed}: worst op used {} retries",
            report.max_retries_single_op
        );

        // Heads moved forward only.
        let heads_after: Vec<u64> = (0..4).map(|s| m.head(s, src) + m.head(s, dst)).collect();
        for (s, (b, a)) in heads_before.iter().zip(&heads_after).enumerate() {
            assert!(a >= b, "seed {seed}: shard {s} heads regressed");
        }

        // The cluster is internally consistent after the storm.
        assert!(
            m.shard_findings().is_empty(),
            "seed {seed}: {:?}",
            m.shard_findings()
        );
    }
}

/// Create storms on one striped directory: the §IV-C primary hash index
/// stays per-shard-consistent under concurrent create traffic.
#[test]
fn create_storm_keeps_primary_index_consistent() {
    for &threads in &[2usize, 4, 8] {
        let mut m = ShardedMds::new(4);
        let big = m.mkdir_striped("big");
        let report = m.create_storm(big, threads, 64);
        assert_eq!(report.committed, (threads * 64) as u64);
        assert_eq!(m.entry_count(big), threads * 64);
        // Index vs stores: every entry indexed exactly where it lives.
        assert!(m.shard_findings().is_empty(), "{:?}", m.shard_findings());
        // Heads advanced exactly once per create, summed over the shards
        // the entries striped onto.
        let advanced: u64 = (0..4).map(|s| m.head(s, big)).sum();
        assert_eq!(advanced, (threads * 64) as u64);
    }
}

/// Contention telemetry is truthful: a storm over one hot directory pair
/// records CAS retries when threads actually raced, and the recovered
/// image replays to the identical namespace (the journaled heads carry
/// the whole story).
#[test]
fn storm_journal_recovers_to_identical_namespace() {
    let threads = 4;
    let (mut m, src, dst) = storm_cluster(4, 10, threads);
    let plan: Vec<Vec<(u32, String, u32, String)>> = (0..threads)
        .map(|t| {
            (0..10)
                .filter(|&i| {
                    m.entry_shard(src, &format!("t{t}_{i}"))
                        != m.entry_shard(dst, &format!("m{t}_{i}"))
                })
                .map(|i| (src, format!("t{t}_{i}"), dst, format!("m{t}_{i}")))
                .collect()
        })
        .collect();
    m.rename_storm(&plan);
    let recovered = ShardedMds::recover(&m.wal_images(), m.shards());
    assert_eq!(
        recovered.snapshot(),
        m.snapshot(),
        "replayed namespace must match the live one byte-for-byte"
    );
    assert!(recovered.shard_findings().is_empty());
}
