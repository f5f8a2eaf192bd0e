//! `eng_shared_file`: the paper's Fig. 6 micro-benchmark on the engine.
//!
//! Phase 1: 64 streams (16 clients x 4) extend their own regions of one
//! shared file in 4-block requests, arriving interleaved; sync; close.
//! Phase 2: 64 readers read the file back segment by segment in 64-block
//! requests, one round of readers per sync. The file (4 GiB) is far larger
//! than the disks' caches, so phase 2 is bound by the platters and shows
//! what phase 1's placement cost. One thread, no server: every simulated
//! number repeats exactly, so the scenario is repeated on fresh instances
//! until the time budget is spent and each repeat is one epoch.

use mif_alloc::{PolicyKind, StreamId};
use mif_core::FsConfig;
use mif_mds::DirMode;
use mif_rng::SmallRng;

use crate::direct::{self, Repeat};
use crate::engine::{self, EngOp, PassResult};
use crate::layers::{
    self_time, set_core_counters, set_core_span_metrics, set_disk_counters, set_leaf_metrics,
};
use crate::leaf;
use crate::report::Outcome;
use crate::span::{self, Tracer};
use crate::stats;
use crate::verify;

pub const NAME: &str = "eng_shared_file";
const OSTS: u32 = 5;
const CLIENTS: u32 = 16;
const STREAMS: u64 = 64;
const REGION_BLOCKS: u64 = 16_384;
const WRITE_BLOCKS: u64 = 4;
const SEGMENTS: u64 = 1024;
const READERS: u64 = 64;
const READ_BLOCKS: u64 = 64;
/// Chance that a reader issues its request in a round; below 1 the readers
/// drift out of step like threads of a real cluster.
const READER_DUTY: f64 = 0.9;

const FILE_BLOCKS: u64 = STREAMS * REGION_BLOCKS;

pub fn fs_config() -> FsConfig {
    let mut cfg = FsConfig::with_modes(PolicyKind::OnDemand, OSTS, DirMode::Embedded);
    cfg.data_cache_blocks = 8192;
    cfg
}

/// The scenario as a list of engine calls, arrival order drawn from `seed`.
/// Marks: start of phase 1, end of phase 1, end of phase 2.
pub fn scenario(seed: u64) -> Vec<EngOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let file = 0;
    let mut ops = vec![EngOp::Create { file }, EngOp::Mark];
    ops.extend((0..CLIENTS).map(|_| EngOp::Open { file }));
    for round in 0..REGION_BLOCKS / WRITE_BLOCKS {
        // Arrivals interleave; which stream comes first varies by round.
        let first = rng.gen_range(0..STREAMS);
        for i in 0..STREAMS {
            let s = (first + i) % STREAMS;
            ops.push(EngOp::Write {
                file,
                stream: StreamId::new((s / 4) as u32, (s % 4) as u32),
                offset: s * REGION_BLOCKS + round * WRITE_BLOCKS,
                len: WRITE_BLOCKS,
            });
        }
    }
    ops.push(EngOp::Sync);
    // The creating handle and the clients' handles: the last close lets
    // the preallocation windows go.
    ops.extend((0..=CLIENTS).map(|_| EngOp::Close { file }));
    ops.push(EngOp::Mark);

    ops.extend((0..READERS).map(|_| EngOp::Open { file }));
    let segment_blocks = FILE_BLOCKS / SEGMENTS;
    // Reader j reads segments j, j + READERS, ...: (segment, position).
    let mut readers: Vec<(u64, u64)> = (0..READERS).map(|j| (j, 0)).collect();
    while readers.iter().any(|r| r.0 < SEGMENTS) {
        for (j, r) in readers.iter_mut().enumerate() {
            if r.0 >= SEGMENTS || rng.gen::<f64>() > READER_DUTY {
                continue;
            }
            ops.push(EngOp::Read {
                file,
                stream: StreamId::new(j as u32, 1000),
                offset: r.0 * segment_blocks + r.1,
                len: READ_BLOCKS,
            });
            r.1 += READ_BLOCKS;
            if r.1 >= segment_blocks {
                *r = (r.0 + READERS, 0);
            }
        }
        ops.push(EngOp::Sync);
    }
    ops.extend((0..READERS).map(|_| EngOp::Close { file }));
    ops.push(EngOp::Mark);
    ops
}

fn measure(pass: PassResult, out: &mut Outcome, check_image: bool) -> Repeat {
    let m = &pass.marks;
    let (extents_per_gib, space_amp) = engine::extents_and_space(&pass.fs);
    let mut quiet = if check_image {
        verify::fs_image_is_clean(out, pass.fs)
    } else {
        pass.fs.into_engine()
    };
    Repeat::new(
        m[0].wall_ns as f64 / 1e9,
        m[2].ops - m[0].ops,
        m[2].wall_ns - m[0].wall_ns,
        m[2].cpu_us - m[0].cpu_us,
        [
            engine::mib_per_s(FILE_BLOCKS, m[1].data_ns - m[0].data_ns),
            engine::mib_per_s(FILE_BLOCKS, m[2].data_ns - m[1].data_ns),
            extents_per_gib,
            space_amp,
            engine::meta_ops_per_s(&mut quiet),
        ],
        pass.latencies,
    )
}

/// The untraced run: every end-to-end metric, and the output checks.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::new(NAME);
    let cfg = fs_config();
    direct::run(
        &mut out,
        seconds,
        || scenario(seed),
        |ops, out, nth| {
            let pass = engine::pass(&cfg, ops, direct::SAMPLE_EVERY, &mut Tracer::new(false));
            // The image of the first repeat is checked; the others must
            // only give the same simulated numbers.
            measure(pass, out, nth == 0)
        },
    );
    out
}

/// The traced run: every per-layer metric. Traced and untraced repeats
/// alternate; then the layers below the engine are timed alone.
pub fn run_traced(seed: u64, seconds: u64, trace_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::new(NAME);
    out.zero_per_layer();
    verify::caller_is_the_only_thread(&mut out);
    let cfg = fs_config();
    let pair_ns = Tracer::pair_cost_ns();
    let (ops, gen_s) = stats::fastest_of(1, || scenario(seed));
    let calls = ops.iter().filter(|o| **o != EngOp::Mark).count() as f64;
    out.set("workloads.gen_ns_per_op", gen_s * 1e9 / calls);
    // The spans of one traced repeat are kept: they all look alike.
    let mut kept: Option<Tracer> = None;
    let mut repeats = 0;
    let (traced_ns, untraced_ns, pass) = direct::alternate(seconds as f64 / 2.0, |tracing| {
        let mut tracer = Tracer::new(tracing);
        let pass = engine::pass(&cfg, &ops, 0, &mut tracer);
        if tracing {
            kept.get_or_insert(tracer);
        }
        repeats += 1;
        let m = &pass.marks;
        let ns_per_op = (m[2].wall_ns - m[0].wall_ns) as f64 / (m[2].ops - m[0].ops) as f64;
        (ns_per_op, pass)
    });
    let tracer = kept.expect("at least two traced repeats");
    let n_ops = (pass.marks[2].ops - pass.marks[0].ops) as f64;
    out.attempted = n_ops as u64 * repeats;
    direct::set_bench_metrics(
        &mut out,
        n_ops,
        tracer.spans().len(),
        traced_ns,
        untraced_ns,
    );
    let totals = span::totals_by_name(tracer.spans());
    set_core_span_metrics(&mut out, &totals, pair_ns);
    let fs_stats = pass.fs.stats();
    set_core_counters(&mut out, &fs_stats.contention, n_ops);
    set_disk_counters(&mut out, &fs_stats.io, FILE_BLOCKS);
    out.set(
        "mds.wal_image_mib",
        pass.fs.wal_image().len() as f64 / engine::MIB,
    );
    let mut quiet = verify::fs_image_is_clean(&mut out, pass.fs);
    let mds = quiet.mds();
    out.set("mds.journal_records", mds.journal_records() as f64);
    out.set(
        "mds.disk_accesses_per_op",
        mds.disk_stats().dispatched as f64 / mds.op_stats().total_ops() as f64,
    );
    drop(quiet);

    // No durability gate is asked for here: the journal flushes at syncs
    // and write-back sweeps, as its own counters say.
    let c = &fs_stats.contention;
    let commit_every = (c.wal_records as f64 / c.wal_flushes.max(1) as f64).round() as u64;
    let leaf_times = leaf::prepass(&cfg, &ops).time_layers(commit_every);
    let leaf_ns = set_leaf_metrics(&mut out, &leaf_times, n_ops);
    let core_self = self_time(untraced_ns, leaf_ns);
    out.set("core.self_ns_per_op", core_self.unwrap_or(0.0));
    out.set(
        "bench.layer_self_sum_ns_per_op",
        core_self.unwrap_or(0.0) + leaf_ns,
    );
    out.check(
        "replay_self_times_are_not_negative",
        core_self.is_some(),
        format!("per op: engine {untraced_ns:.0} ns, layers below {leaf_ns:.0} ns"),
    );

    verify::trace_is_written(&mut out, trace_dir, tracer.spans());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scenario_writes_and_reads_every_block_once() {
        let ops = scenario(5);
        let mut written = vec![false; FILE_BLOCKS as usize];
        let mut read = vec![false; FILE_BLOCKS as usize];
        for op in &ops {
            let (seen, offset, len) = match *op {
                EngOp::Write { offset, len, .. } => (&mut written, offset, len),
                EngOp::Read { offset, len, .. } => (&mut read, offset, len),
                _ => continue,
            };
            for b in offset..offset + len {
                assert!(
                    !std::mem::replace(&mut seen[b as usize], true),
                    "block {b} twice"
                );
            }
        }
        assert!(written.iter().all(|&w| w) && read.iter().all(|&r| r));
        assert_eq!(ops.iter().filter(|o| **o == EngOp::Mark).count(), 3);
        let opens = ops
            .iter()
            .filter(|o| matches!(o, EngOp::Open { .. }))
            .count();
        let closes = ops
            .iter()
            .filter(|o| matches!(o, EngOp::Close { .. }))
            .count();
        assert_eq!(opens + 1, closes, "the create's handle is closed too");
        assert_eq!(scenario(5), ops);
        assert_ne!(scenario(6), ops);
    }
}
