//! Sharded-MDS oracle: a sharded cluster is an implementation detail the
//! user must never observe. For every seed × name distribution × shard
//! count, the same logical operation sequence is driven against a
//! single-MDS baseline and the sharded cluster, and the deterministic
//! namespace snapshots must match byte-for-byte. Recovery from the
//! per-shard WAL images must reproduce the same snapshot, and a full
//! sharded fsck must find nothing to repair.
//!
//! Every assertion carries (seed, dist, shards) so a failure reproduces
//! with one line.

use mif::fsck::run_sharded;
use mif::mds::ShardedMds;
use mif::workloads::ZipfGen;
use mif_rng::SmallRng;
use std::collections::BTreeSet;

/// How the workload picks entry names: uniform over the population, or
/// Zipf-skewed so a hot minority soaks up most operations (contention on
/// a few directories/names is where cross-shard coordination earns it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dist {
    Uniform,
    Zipf,
}

/// A name drawn from the population under the distribution. Sampling is
/// pure in (generator state), so the op stream depends only on
/// (seed, dist) — never on the shard count under test.
fn draw_name(dist: Dist, rng: &mut SmallRng, zipf: &mut ZipfGen, population: u32) -> String {
    let k = match dist {
        Dist::Uniform => rng.gen_range(0u32..population),
        Dist::Zipf => zipf.next_key() as u32,
    };
    format!("f{k}")
}

/// Drive one seeded workload against a fresh cluster with `shards`
/// shards. Directory layout mixes plain and striped directories; the op
/// mix covers create / unlink / utime / same-dir rename / cross-dir
/// rename, each validated against a logical mirror so the exact same
/// sequence applies cleanly at every shard count.
fn drive(shards: usize, seed: u64, dist: Dist) -> ShardedMds {
    let mut m = ShardedMds::new(shards);
    let dirs = [
        m.mkdir("alpha"),
        m.mkdir("beta"),
        m.mkdir_striped("huge"),
        m.mkdir_striped("wide"),
        m.mkdir("gamma"),
    ];
    let population = 48u32;
    let mut rng = SmallRng::seed_from_u64(0xAC1E_0000 + seed);
    let mut zipf = ZipfGen::new(population as u64, 0.9, seed.wrapping_mul(31) + 7);
    // Logical mirror: dir index -> live names. The oracle decides op
    // validity here, not by querying the cluster, so the decision stream
    // is identical for every shard count by construction.
    let mut live: Vec<BTreeSet<String>> = vec![BTreeSet::new(); dirs.len()];

    for _ in 0..600 {
        let di = rng.gen_range(0u32..dirs.len() as u32) as usize;
        let name = draw_name(dist, &mut rng, &mut zipf, population);
        match rng.gen_range(0u32..10) {
            // Creates dominate: the namespace must grow for the other
            // ops to find targets.
            0..=3 => {
                if !live[di].contains(&name) {
                    let extents = rng.gen_range(1u32..5);
                    m.create(dirs[di], &name, extents);
                    live[di].insert(name);
                }
            }
            4..=5 => {
                if live[di].contains(&name) {
                    m.unlink(dirs[di], &name);
                    live[di].remove(&name);
                }
            }
            6 => {
                if live[di].contains(&name) {
                    m.utime(dirs[di], &name);
                }
            }
            // Same-directory rename (within-dir moves still cross shards
            // inside a striped directory when the new name hashes away).
            7 => {
                let new_name = format!("r{}", rng.gen_range(0u32..population));
                if live[di].contains(&name) && !live[di].contains(&new_name) && name != new_name {
                    m.rename(dirs[di], &name, dirs[di], &new_name);
                    live[di].remove(&name);
                    live[di].insert(new_name);
                }
            }
            // Cross-directory rename: plain→striped, striped→plain and
            // every other pairing shows up over the run.
            _ => {
                let dj = rng.gen_range(0u32..dirs.len() as u32) as usize;
                let new_name = format!("m{}", rng.gen_range(0u32..population));
                if dj != di && live[di].contains(&name) && !live[dj].contains(&new_name) {
                    m.rename(dirs[di], &name, dirs[dj], &new_name);
                    live[di].remove(&name);
                    live[dj].insert(new_name);
                }
            }
        }
    }
    m
}

#[test]
fn sharded_namespace_matches_single_mds_byte_for_byte() {
    for seed in 0..4u64 {
        for dist in [Dist::Uniform, Dist::Zipf] {
            let baseline = drive(1, seed, dist).snapshot();
            assert!(!baseline.is_empty(), "seed {seed} {dist:?}: empty baseline");
            for shards in [2usize, 4, 8] {
                let m = drive(shards, seed, dist);
                assert_eq!(
                    m.snapshot(),
                    baseline,
                    "seed {seed} {dist:?} shards {shards}: sharded namespace diverged"
                );
            }
        }
    }
}

#[test]
fn recovered_cluster_matches_live_snapshot() {
    for seed in 0..4u64 {
        for dist in [Dist::Uniform, Dist::Zipf] {
            for shards in [2usize, 4, 8] {
                let m = drive(shards, seed, dist);
                let recovered = ShardedMds::recover(&m.wal_images(), m.shards());
                assert_eq!(
                    recovered.snapshot(),
                    m.snapshot(),
                    "seed {seed} {dist:?} shards {shards}: recovery diverged"
                );
                // Recovery of a recovery is a fixpoint: the rebuilt WAL
                // replays to the same place.
                let twice = ShardedMds::recover(&recovered.wal_images(), recovered.shards());
                assert_eq!(
                    twice.snapshot(),
                    m.snapshot(),
                    "seed {seed} {dist:?} shards {shards}: recovery not idempotent"
                );
            }
        }
    }
}

#[test]
fn every_oracle_cell_is_fsck_clean() {
    for seed in 0..4u64 {
        for dist in [Dist::Uniform, Dist::Zipf] {
            for shards in [1usize, 2, 4, 8] {
                let mut m = drive(shards, seed, dist);
                let report = run_sharded(&mut m, true);
                assert!(
                    report.clean(),
                    "seed {seed} {dist:?} shards {shards}: {:?}",
                    report.findings
                );
                assert_eq!(
                    report.repaired, 0,
                    "seed {seed} {dist:?} shards {shards}: healthy cluster repaired"
                );
            }
        }
    }
}
