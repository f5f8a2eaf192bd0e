//! Checks of the program's outputs. All of them run outside the timed
//! sections; any failure makes the run incorrect and the exit code non-zero.

use mif_core::{ConcurrentFs, FileSystem};
use mif_fsck::FsckOptions;
use mif_mds::{recover_writes, RecoveryStop};

use crate::host;
use crate::report::Outcome;
use crate::span::{self, Span};

/// One acknowledged write as its journal record describes it:
/// `(file, stream, offset, len)`.
pub type WriteKey = (u64, u64, u64, u64);

/// Every acknowledged write must be in the recovered journal: an ack is a
/// promise that the record is durable.
pub fn wal_covers_acked_writes(out: &mut Outcome, fs: &ConcurrentFs, mut acked: Vec<WriteKey>) {
    let recovery = recover_writes(&fs.wal_image(), 0);
    let clean = recovery.stop == RecoveryStop::CleanEnd;
    let mut recovered: Vec<WriteKey> = recovery
        .ops
        .iter()
        .map(|w| (w.file, w.stream, w.offset, w.len))
        .collect();
    recovered.sort_unstable();
    acked.sort_unstable();
    // Multiset inclusion by a merge walk over the two sorted lists.
    let mut r = recovered.iter().peekable();
    let missing = acked
        .iter()
        .filter(|a| {
            while r.next_if(|x| x < a).is_some() {}
            r.next_if(|x| *x == *a).is_none()
        })
        .count();
    out.check(
        "wal_covers_acked_writes",
        clean && missing == 0,
        format!(
            "{} acked writes, {} records recovered, {missing} missing, scan stopped at {:?}",
            acked.len(),
            recovered.len(),
            recovery.stop
        ),
    );
}

/// Quiesce the engine, run the offline checker on the final image and
/// account for every block. Hands the quiesced engine back.
pub fn fs_image_is_clean(out: &mut Outcome, fs: ConcurrentFs) -> FileSystem {
    let capacity = fs.config.geometry.blocks * fs.config.total_osts() as u64;
    let mut engine = fs.into_engine();
    let report = mif_fsck::run(&mut engine, &FsckOptions::offline_repair());
    out.check(
        "fsck_clean",
        report.clean() && report.repaired == 0,
        report.summary(),
    );
    // fsck released every preallocation window, so what is not free is
    // mapped by some file.
    let (free, mapped) = (engine.free_blocks(), engine.metrics().blocks);
    out.check(
        "free_plus_allocated_is_capacity",
        free + mapped == capacity,
        format!("{free} free + {mapped} mapped, capacity {capacity}"),
    );
    engine
}

/// The harness must not be what is measured: generating an operation may
/// take at most a fifth of the wall time an operation takes.
pub fn generator_is_cheap(out: &mut Outcome, gen_ns_per_op: f64, wall_ns_per_op: f64) {
    out.check(
        "generator_under_a_fifth_of_the_op_time",
        gen_ns_per_op <= 0.2 * wall_ns_per_op,
        format!("{gen_ns_per_op:.1} ns to generate an operation that takes {wall_ns_per_op:.1} ns"),
    );
}

/// Load generation may use as many OS threads as the host has cores, not
/// more: an oversubscribed host measures its scheduler.
pub fn threads_within_nproc(out: &mut Outcome, threads: u64) {
    out.check(
        "threads_within_nproc",
        threads <= host::nproc(),
        format!("{threads} threads on {} cores", host::nproc()),
    );
}

/// The direct workloads have no server: the caller is the only thread.
pub fn caller_is_the_only_thread(out: &mut Outcome) {
    let threads = host::threads();
    out.note(format!("threads {threads} (the caller), no server"));
    threads_within_nproc(out, threads);
}

/// Write the spans of a traced run to `trace_<workload>.jsonl` in `dir`.
pub fn trace_is_written(out: &mut Outcome, dir: &std::path::Path, spans: &[Span]) {
    let path = dir.join(format!("trace_{}.jsonl", out.workload));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| span::write_jsonl(spans, &mut std::io::BufWriter::new(f)));
    out.check(
        "trace_written",
        written.is_ok(),
        format!("{} spans to {}: {written:?}", spans.len(), path.display()),
    );
}

/// The values of `name` over the in-run repeats of a direct workload must
/// be identical: one thread on the simulated clock is deterministic.
pub fn repeats_identical(out: &mut Outcome, name: &'static str, values: &[f64]) {
    let same = values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
    out.check(
        name,
        same,
        format!("{} repeats, first {:?}", values.len(), values.first()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::{PolicyKind, StreamId};
    use mif_core::FsConfig;

    #[test]
    fn a_lost_record_and_a_clean_image_are_told_apart() {
        let fs = ConcurrentFs::new(FsConfig::with_policy(PolicyKind::OnDemand, 2));
        let f = fs.create("a", None);
        let s = StreamId::new(3, 0);
        fs.write(f, s, 0, 4);
        fs.write(f, s, 4, 4);
        fs.sync();
        fs.close(f);
        let acked = vec![(f.0 .0, s.as_u64(), 0, 4), (f.0 .0, s.as_u64(), 4, 4)];

        let mut out = Outcome::new("t");
        wal_covers_acked_writes(&mut out, &fs, acked.clone());
        assert!(out.correct(), "{}", out.checks[0].detail);

        // The same write acknowledged twice needs two records.
        let mut out = Outcome::new("t");
        let mut twice = acked.clone();
        twice.push(acked[0]);
        wal_covers_acked_writes(&mut out, &fs, twice);
        assert!(!out.correct());

        let mut out = Outcome::new("t");
        fs_image_is_clean(&mut out, fs);
        assert!(out.correct(), "{}", out.checks[0].detail);
        assert_eq!(out.checks.len(), 2);
    }

    #[test]
    fn repeats_must_agree_to_the_bit() {
        let mut out = Outcome::new("t");
        repeats_identical(&mut out, "x", &[1.5, 1.5, 1.5]);
        assert!(out.correct());
        repeats_identical(&mut out, "y", &[1.5, 1.5000000000000002]);
        assert!(!out.correct());
    }
}
