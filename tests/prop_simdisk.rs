//! Property-style tests for the disk substrate: whatever the scheduler,
//! cache and readahead do to *performance*, they must never lose, invent
//! or reorder-incorrectly any I/O. Seeded and replayable (seeds printed
//! on failure).

use mif::simdisk::{BlockRequest, Disk, DiskGeometry, IoScheduler, SchedulerConfig};
use mif_rng::SmallRng;

const CASES: u64 = 128;

fn requests(rng: &mut SmallRng) -> Vec<BlockRequest> {
    (0..rng.gen_range(1usize..100))
        .map(|_| {
            let start = rng.gen_range(0u64..10_000);
            let len = rng.gen_range(1u64..64);
            if rng.gen::<bool>() {
                BlockRequest::write(start, len)
            } else {
                BlockRequest::read(start, len)
            }
        })
        .collect()
}

/// Scheduling preserves the exact multiset of (op, block) pairs.
#[test]
fn scheduler_preserves_every_block() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0005_C4ED_0000 + seed);
        let batch = requests(&mut rng);
        let head = rng.gen_range(0u64..10_000);
        let sched = IoScheduler::new(SchedulerConfig::default());
        let mut before: Vec<_> = batch
            .iter()
            .flat_map(|r| (r.start..r.end()).map(move |b| (r.op, b)))
            .collect();
        let out = sched.schedule(head, batch.clone());
        let mut after: Vec<_> = out
            .iter()
            .flat_map(|r| (r.start..r.end()).map(move |b| (r.op, b)))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "seed {seed}: block multiset changed");
        // Merged counts add up to the submissions.
        let merged: u32 = out.iter().map(|r| r.merged).sum();
        assert_eq!(merged as usize, batch.len(), "seed {seed}");
    }
}

/// Merged output never contains two adjacent same-direction requests
/// that could still merge (the elevator is maximal).
#[test]
fn merging_is_maximal() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0003_E26E_0000 + seed);
        let batch = requests(&mut rng);
        let head = rng.gen_range(0u64..10_000);
        let sched = IoScheduler::new(SchedulerConfig::default());
        let out = sched.schedule(head, batch);
        for w in out.windows(2) {
            let can = w[0].can_merge(&w[1])
                && w[0].len + w[1].len <= SchedulerConfig::default().max_merged_blocks;
            assert!(
                !can,
                "seed {seed}: unmerged neighbours {:?} {:?}",
                w[0], w[1]
            );
        }
    }
}

/// The disk clock is monotone and every batch costs what it returns.
#[test]
fn disk_clock_is_additive() {
    for seed in 0..32 {
        let mut rng = SmallRng::seed_from_u64(0xC10C_0000 + seed);
        let mut disk = Disk::new(DiskGeometry::default());
        let mut expected = 0;
        for _ in 0..rng.gen_range(1usize..10) {
            expected += disk.submit_batch(requests(&mut rng));
            assert_eq!(disk.clock(), expected, "seed {seed}");
        }
        assert_eq!(disk.stats().busy_ns, expected, "seed {seed}");
    }
}

/// Cache-satisfied rereads never dispatch media transfers for the same
/// data twice in a row (read determinism under caching).
#[test]
fn immediate_reread_hits_cache() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x002E_2EAD_0000 + seed);
        let start = rng.gen_range(0u64..100_000);
        let len = rng.gen_range(1u64..64);
        let mut disk = Disk::new(DiskGeometry::default());
        disk.submit(BlockRequest::read(start, len));
        let hits_before = disk.stats().cache_hits;
        disk.submit(BlockRequest::read(start, len));
        assert_eq!(
            disk.stats().cache_hits,
            hits_before + 1,
            "seed {seed}: reread of {start}+{len} missed"
        );
    }
}

/// Positioning cost is bounded: never more than a full seek plus one
/// revolution beyond the pure transfer time.
#[test]
fn service_time_is_bounded() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB0_0000 + seed);
        let start = rng.gen_range(0u64..16_000_000u64);
        let len = rng.gen_range(1u64..256);
        let g = DiskGeometry::default();
        let mut disk = Disk::new(g.clone());
        let t = disk.submit(BlockRequest::write(start.min(g.blocks - 256), len));
        let ceiling = g.seek_ns(0, g.blocks - 1) + 2 * g.revolution_ns() + g.transfer_ns(len);
        assert!(t <= ceiling, "seed {seed}: service {t} > ceiling {ceiling}");
    }
}

/// FNV-1a over the little-endian bytes of `v`.
fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const PIN_SEED: u64 = 0x0D16_E570_0000;
const PIN_BATCHES: usize = 4000;
const PIN_CHECKPOINT: usize = 500;

/// One seeded mixed stream against a `Disk` with a `cache_blocks` cache:
/// sequential readers on their own readahead contexts, batch-context and
/// raw (no-readahead) reads, random reads, writes up to 1024 blocks,
/// invalidates and cache drops, over a region a few times the cache so
/// hits, partial hits and evictions all occur. `(clock, head, stats)` is
/// folded after every batch; the running digest is sampled every
/// `PIN_CHECKPOINT` batches.
///
/// With `churn`, the sequential readers are 256 streams issuing 16–63
/// reads per batch, a stream jumps to a fresh position under a fresh
/// readahead context after 1–6 reads, and caches are never dropped. Over
/// the run that is more than three times the disk's bound of 4 096 kept
/// contexts, each used only until its stream jumps, so every context
/// evicted by the bound is one never used again.
fn pinned_stream_digests(seed: u64, cache_blocks: usize, churn: bool) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut disk = Disk::with_config(
        DiskGeometry::default(),
        SchedulerConfig::default(),
        cache_blocks,
    );
    let region = cache_blocks as u64 * 6;
    let mut streams = [0u64; 4];
    // Churn streams: (context, next block, reads left before a jump).
    let mut churners = vec![(0u64, 0u64, 0u32); 256];
    let first_ctx = 1_000u64;
    let mut next_ctx = first_ctx;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut checkpoints = Vec::new();
    for batch in 1..=PIN_BATCHES {
        match rng.gen_range(0u32..100) {
            0..=29 if churn => {
                let reqs = (0..rng.gen_range(16usize..64))
                    .map(|_| {
                        let s = &mut churners[rng.gen_range(0usize..256)];
                        if s.2 == 0 {
                            *s = (
                                next_ctx,
                                rng.gen_range(0..region * 4),
                                rng.gen_range(1u32..7),
                            );
                            next_ctx += 1;
                        }
                        let len = rng.gen_range(1u64..9);
                        let r = BlockRequest::read(s.1, len).with_ctx(s.0);
                        s.1 += len;
                        s.2 -= 1;
                        r
                    })
                    .collect();
                disk.submit_batch(reqs);
            }
            // Interleaved sequential readers, one readahead context each.
            0..=29 => {
                let reqs = (0..rng.gen_range(1usize..6))
                    .map(|_| {
                        let s = rng.gen_range(0usize..streams.len());
                        let len = rng.gen_range(1u64..9);
                        if streams[s] + len > region {
                            streams[s] = 0;
                        }
                        let r = BlockRequest::read(s as u64 * region + streams[s], len)
                            .with_ctx(10 + s as u64);
                        streams[s] += len;
                        r
                    })
                    .collect();
                disk.submit_batch(reqs);
            }
            // A short sequential run under one batch-level context.
            30..=39 => {
                let mut at = rng.gen_range(0..region);
                let ctx = rng.gen_range(1u64..4);
                for _ in 0..rng.gen_range(2usize..6) {
                    let len = rng.gen_range(1u64..17);
                    disk.submit_batch_ctx(ctx, vec![BlockRequest::read(at, len)]);
                    at += len;
                }
            }
            // Random reads without readahead (metadata-style).
            40..=59 => {
                let reqs = (0..rng.gen_range(1usize..12))
                    .map(|_| BlockRequest::read(rng.gen_range(0..region), rng.gen_range(1u64..5)))
                    .collect();
                disk.submit_batch_raw(reqs);
            }
            // Random reads through context 0, up to a readahead window long.
            60..=69 => {
                let reqs = (0..rng.gen_range(1usize..8))
                    .map(|_| {
                        BlockRequest::read(rng.gen_range(0..region * 4), rng.gen_range(1u64..65))
                    })
                    .collect();
                disk.submit_batch(reqs);
            }
            // Writes: a burst of adjacent pieces (merged by the elevator;
            // half the bursts are short, the rest up to 1024 blocks, i.e.
            // larger than either cache) plus scattered small ones.
            70..=89 => {
                let mut reqs = Vec::new();
                let mut at = rng.gen_range(0..region * 4);
                let total = if rng.gen::<bool>() {
                    rng.gen_range(1u64..33)
                } else {
                    rng.gen_range(1u64..1025)
                };
                let mut done = 0;
                while done < total {
                    let len = rng.gen_range(1u64..257).min(total - done);
                    reqs.push(BlockRequest::write(at, len));
                    at += len;
                    done += len;
                }
                for _ in 0..rng.gen_range(0usize..6) {
                    reqs.push(BlockRequest::write(
                        rng.gen_range(0..region),
                        rng.gen_range(1u64..9),
                    ));
                }
                disk.submit_batch(reqs);
            }
            90..=97 => disk.invalidate(rng.gen_range(0..region * 4), rng.gen_range(1u64..300)),
            // A cold restart, which would also forget every context and
            // so hide the bound from the churn stream.
            _ if !churn => disk.drop_caches(),
            _ => {}
        }
        let s = disk.stats();
        for v in [
            disk.clock(),
            disk.head(),
            s.submitted,
            s.dispatched,
            s.cache_hits,
            s.seeks,
            s.seek_distance_cyl,
            s.bytes_read,
            s.bytes_written,
            s.busy_ns,
        ] {
            fnv1a(&mut h, v);
        }
        if batch % PIN_CHECKPOINT == 0 {
            checkpoints.push(h);
        }
    }
    assert!(
        !churn || next_ctx - first_ctx > 2 * 4096,
        "churn must outgrow the bound"
    );
    checkpoints
}

/// Behaviour pin: the first two digests were recorded with the per-block
/// `HashMap` + `BTreeMap` LRU cache that preceded the run-based one, and
/// the third (the service's 65 536-block cache under context churn) with
/// the B-tree-indexed run cache and an unbounded readahead-context map, so
/// any cache (or scheduler, readahead, geometry) change that alters a
/// single hit, eviction or head movement on these streams shows up here.
#[test]
fn disk_behaviour_digest_is_pinned() {
    const PINNED: [(usize, bool, [u64; PIN_BATCHES / PIN_CHECKPOINT]); 3] = [
        (
            64,
            false,
            [
                0x0b746e80642fc036,
                0x35352ca77b2380f8,
                0xa1f96c016960d551,
                0x9bd4b52a2fbd100d,
                0xb010d6357784c4b0,
                0x213d727f5cc34177,
                0x574c27445dd409f4,
                0x12c4ca998faedf5b,
            ],
        ),
        (
            1024,
            false,
            [
                0xe1daf525ed3af509,
                0xf4989c3b7354d59d,
                0x633ef6992641308e,
                0xb3d4cc85b4616546,
                0x616509e512ba3fe7,
                0x8f238576ec660942,
                0xb9d7a7499783a9a5,
                0xba3d5bd78df4b6bc,
            ],
        ),
        (
            65_536,
            true,
            [
                0x9c1967b59cf47261,
                0x33aa592ca0f09bd8,
                0x150187cfaa04f3eb,
                0x8047aab20e3ebfbd,
                0x7e1f700579d7321e,
                0xd687c0e3bb9ef72e,
                0xe7205ad30b65bdd2,
                0x29080000881e4a9b,
            ],
        ),
    ];
    for (cache_blocks, churn, want) in PINNED {
        let seed = PIN_SEED + cache_blocks as u64;
        let got = pinned_stream_digests(seed, cache_blocks, churn);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g,
                w,
                "seed {seed:#x} cache {cache_blocks}: first divergence in batches {}..={} \
                 (got {got:#018x?})",
                i * PIN_CHECKPOINT + 1,
                (i + 1) * PIN_CHECKPOINT,
            );
        }
    }
}
