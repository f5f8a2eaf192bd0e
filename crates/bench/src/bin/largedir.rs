//! §IV-C / §IV-D: extreme large directories over an MDS cluster, and the
//! distribution policies that make or break the embedded directory.
//!
//! "ORNL's CrayXT5 cluster... periodically write application state into a
//! file per process, all stored in one directory. To support it, most
//! parallel file systems build the metadata server cluster to balance
//! load... the cluster using embedded directory algorithm enforces the
//! primary server to collect the hash value of the subfiles' name" (§IV-C).
//!
//! "this assumption can be broken by metadata servers which sacrifices
//! locality for load distribution... the embedded directory can not improve
//! the disk performance" under hashed-pathname distribution (§IV-D).

use mif_bench::{expectation, section, Table};
use mif_mds::{DirMode, Distribution, MdsCluster, ShardedMds};

fn main() {
    // ---- §IV-C: the checkpoint directory ---------------------------------
    section("§IV-C — one checkpoint file per process, one directory, 8 MDS servers");
    expectation(
        "the primary's collected name-hash index turns lookups into a single \
         forward hop; without it the primary interrogates subordinates",
    );

    let t = Table::new(
        &["hash index", "creates", "stats", "hops", "client time"],
        &[10, 8, 7, 9, 12],
    );
    for index in [false, true] {
        let mut c = MdsCluster::new(8, DirMode::Embedded, Distribution::Subtree);
        c.primary_hash_index = index;
        c.mkdir("/ckpt", true);
        let files = 20_000u32;
        for i in 0..files {
            c.create("/ckpt", &format!("rank{i:06}.state"), 1);
        }
        let h0 = c.stats().hops;
        let t0 = c.client_ns();
        for i in 0..files {
            assert!(c.stat("/ckpt", &format!("rank{i:06}.state")));
        }
        t.row(&[
            if index { "primary" } else { "none" }.into(),
            files.to_string(),
            files.to_string(),
            (c.stats().hops - h0).to_string(),
            format!("{:.2} s", (c.client_ns() - t0) as f64 / 1e9),
        ]);
    }

    // ---- §IV-D: distribution policy vs embedding --------------------------
    section("§IV-D — distribution policy: where the embedded directory's assumption breaks");
    expectation(
        "under subtree distribution the embedded directory keeps each dir on \
         one server and wins; under hashed-pathname distribution the entries \
         scatter and embedding buys (almost) nothing over the normal layout",
    );

    let t = Table::new(
        &[
            "distribution",
            "mode",
            "spread",
            "disk accesses",
            "readdir time",
        ],
        &[13, 10, 7, 13, 13],
    );
    let mut gains = Vec::new();
    for dist in [Distribution::Subtree, Distribution::HashedPath] {
        let mut per_mode = Vec::new();
        let mut per_mode_accesses = Vec::new();
        for mode in [DirMode::Normal, DirMode::Embedded] {
            let mut c = MdsCluster::new(4, mode, dist);
            for d in 0..4 {
                c.mkdir(&format!("/proj{d}"), false);
                for i in 0..2000 {
                    c.create(&format!("/proj{d}"), &format!("f{i}"), 1);
                }
            }
            c.drop_caches();
            let a0 = c.disk_accesses();
            let t0 = c.client_ns();
            for d in 0..4 {
                c.readdir_stat(&format!("/proj{d}"));
            }
            let accesses = c.disk_accesses() - a0;
            let time = c.client_ns() - t0;
            per_mode.push(time);
            per_mode_accesses.push(accesses);
            t.row(&[
                dist.to_string(),
                mode.to_string(),
                c.spread_of("/proj0").to_string(),
                accesses.to_string(),
                format!("{:.1} ms", time as f64 / 1e6),
            ]);
        }
        gains.push((
            dist,
            per_mode_accesses[1] as f64 / per_mode_accesses[0].max(1) as f64,
        ));
    }
    println!();
    for (dist, proportion) in gains {
        println!(
            "embedded disk-access proportion under {dist}: {proportion:.2} \
             (low = embedding helps; near 1.0 = assumption broken, §IV-D)"
        );
    }

    // ---- sharded namespace: the tens-of-millions directory ---------------
    section("sharded MDS — one striped directory projected to 20M files");
    expectation(
        "per-op cost in the sharded namespace is population-independent \
         (stable-hash placement, indexed lookups), so a materialized \
         calibration run extrapolates linearly to checkpoint directories \
         holding tens of millions of files",
    );

    let t = Table::new(
        &[
            "shards",
            "calibrated",
            "ns/create",
            "ns/stat",
            "20M creates",
            "20M stats",
        ],
        &[6, 10, 10, 9, 12, 11],
    );
    const CAL_FILES: u32 = 20_000;
    const TARGET: u64 = 20_000_000;
    for shards in [2usize, 4, 8] {
        let mut m = ShardedMds::new(shards);
        let d = m.mkdir_striped("ckpt");
        let t0 = m.client_ns();
        for i in 0..CAL_FILES {
            m.create(d, &format!("rank{i:06}.state"), 1);
        }
        let create_ns = (m.client_ns() - t0) as f64 / CAL_FILES as f64;
        let t1 = m.client_ns();
        for i in 0..CAL_FILES {
            assert!(m.stat(d, &format!("rank{i:06}.state")));
        }
        let stat_ns = (m.client_ns() - t1) as f64 / CAL_FILES as f64;
        t.row(&[
            shards.to_string(),
            CAL_FILES.to_string(),
            format!("{create_ns:.0}"),
            format!("{stat_ns:.0}"),
            format!("{:.0} s", create_ns * TARGET as f64 / 1e9),
            format!("{:.0} s", stat_ns * TARGET as f64 / 1e9),
        ]);
    }
}
