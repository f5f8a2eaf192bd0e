//! `mds_metarates`: the paper's Fig. 8 on the embedded-directory MDS alone.
//!
//! 20 clients, each in its own directory of 5000 files, interleave their
//! operations: create (one extent), utime, readdir-stat (`ls -l`), unlink,
//! with the MDS cache dropped between phases. One thread calls
//! `mif_mds::Mds` directly; there is no data path, no allocator and no
//! server, so this is the workload on which a data-path change must show
//! nothing. The scenario is repeated on fresh instances until the time
//! budget is spent and each repeat is one epoch.

use std::time::Instant;

use mif_mds::layout::{BLOCK_SIZE, EMB_ENTRIES_PER_BLOCK};
use mif_mds::{DirMode, InodeNo, Mds, MdsConfig, ROOT_INO};
use mif_rng::SmallRng;

use crate::direct::{self, Repeat};
use crate::engine::MIB;
use crate::host;
use crate::report::Outcome;
use crate::span::{self, SpanId, Tracer};
use crate::stats;
use crate::verify;

pub const NAME: &str = "mds_metarates";
const DIRS: u64 = 20;
const FILES_PER_DIR: u64 = 5000;
/// Bytes of metadata one file stands for: an embedded entry (name, inode,
/// stuffed mapping). Turns the create and readdir-stat rates into MiB/s.
const ENTRY_BYTES: f64 = (BLOCK_SIZE / EMB_ENTRIES_PER_BLOCK) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Create,
    Utime,
    ReaddirStat,
    Unlink,
}

const PHASES: [Phase; 4] = [
    Phase::Create,
    Phase::Utime,
    Phase::ReaddirStat,
    Phase::Unlink,
];

impl Phase {
    fn span_name(self) -> &'static str {
        match self {
            Phase::Create => "mds.create",
            Phase::Utime => "mds.utime",
            Phase::ReaddirStat => "mds.readdir_stat",
            Phase::Unlink => "mds.unlink",
        }
    }
}

/// The seeded inputs: file names, and which client goes first in a round.
pub struct Inputs {
    names: Vec<String>,
    first: Vec<u64>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    Inputs {
        names: (0..FILES_PER_DIR)
            .map(|i| format!("f{i:05}-{:08x}", rng.next_u32()))
            .collect(),
        first: (0..FILES_PER_DIR).map(|_| rng.gen_range(0..DIRS)).collect(),
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseResult {
    calls: u64,
    sim_ns: u64,
    disk_accesses: u64,
}

/// What one repeat measured.
struct MdsRepeat {
    timing: Repeat,
    phases: [PhaseResult; 4],
    journal_records: u64,
    disk: mif_simdisk::DiskStats,
    /// The first inconsistencies found, if any: an entry count that is off
    /// after a phase, or a finding of `Mds::check()`.
    problems: String,
}

struct Caller<'a> {
    mds: Mds,
    tracer: &'a mut Tracer,
    sample_every: u64,
    calls: u64,
    latencies: Vec<u64>,
}

impl Caller<'_> {
    /// One call on the MDS: a span when tracing, a latency sample every
    /// `sample_every`th call otherwise.
    fn call(&mut self, phase: Phase, parent: SpanId, f: impl FnOnce(&mut Mds)) {
        let sampled = !self.tracer.enabled()
            && self.sample_every != 0
            && self.calls.is_multiple_of(self.sample_every);
        let called = sampled.then(Instant::now);
        let span = self.tracer.begin(phase.span_name(), parent, self.calls);
        f(&mut self.mds);
        self.tracer.end(span);
        if let Some(called) = called {
            self.latencies.push(called.elapsed().as_nanos() as u64);
        }
        self.calls += 1;
    }
}

fn repeat(inputs: &Inputs, sample_every: u64, tracer: &mut Tracer) -> MdsRepeat {
    let start = Instant::now();
    let mut mds = Mds::new(MdsConfig::with_mode(DirMode::Embedded));
    let dirs: Vec<InodeNo> = (0..DIRS)
        .map(|c| mds.mkdir(ROOT_INO, &format!("client{c:02}")))
        .collect();
    mds.sync();
    let setup_s = start.elapsed().as_secs_f64();

    let mut c = Caller {
        mds,
        tracer,
        sample_every,
        calls: 0,
        latencies: Vec::new(),
    };
    let mut cpu = host::CpuClock::new();
    let cpu_before = cpu.read_us();
    let timed = Instant::now();
    let mut phases = [PhaseResult::default(); 4];
    let (mut content_runs, mut content_blocks) = (0, 0);
    let mut problems = Vec::new();
    for (result, phase) in phases.iter_mut().zip(PHASES) {
        // A cold cache for every phase, like a fresh `ls -l`.
        c.mds.drop_caches();
        let calls_before = c.calls;
        let sim_before = c.mds.total_elapsed_ns();
        let accesses_before = c.mds.disk_stats().dispatched;
        let root = c.tracer.begin("mds.phase", 0, phase as u64);
        if phase == Phase::ReaddirStat {
            for &dir in &dirs {
                c.call(phase, root, |m| m.readdir_stat(dir));
            }
        } else {
            for (name, &first) in inputs.names.iter().zip(&inputs.first) {
                for i in 0..DIRS {
                    let dir = dirs[((first + i) % DIRS) as usize];
                    c.call(phase, root, |m| match phase {
                        Phase::Create => {
                            m.create(dir, name, 1);
                        }
                        Phase::Utime => m.utime(dir, name),
                        Phase::Unlink => m.unlink(dir, name),
                        Phase::ReaddirStat => unreachable!("handled above"),
                    });
                }
            }
        }
        c.mds.sync();
        c.tracer.end(root);
        *result = PhaseResult {
            calls: c.calls - calls_before,
            sim_ns: c.mds.total_elapsed_ns() - sim_before,
            disk_accesses: c.mds.disk_stats().dispatched - accesses_before,
        };
        // Entry counts: full after the create, empty after the unlink.
        let store = c.mds.embedded().expect("embedded mode");
        let want = match phase {
            Phase::Unlink => 0,
            _ => FILES_PER_DIR as usize,
        };
        for &dir in &dirs {
            if store.dir_len(dir) != want {
                problems.push(format!(
                    "{} entries after {phase:?}, expected {want}",
                    store.dir_len(dir)
                ));
            }
        }
        if phase == Phase::Create {
            for &dir in &dirs {
                let runs = store.runs_of(dir);
                content_runs += runs.len() as u64;
                content_blocks += runs.iter().map(|r| r.1).sum::<u64>();
            }
        }
    }
    let wall_ns = timed.elapsed().as_nanos() as u64;
    let cpu_us = cpu.read_us() - cpu_before;
    problems.extend(c.mds.check().iter().map(|i| format!("{i:?}")));
    let files = (DIRS * FILES_PER_DIR) as f64;
    let sim_ns = |p: &[PhaseResult]| p.iter().map(|p| p.sim_ns).sum::<u64>() as f64;
    let mib_per_s = |p: &PhaseResult| files * ENTRY_BYTES / MIB / (p.sim_ns as f64 / 1e9);
    let timing = Repeat::new(
        setup_s,
        c.calls,
        wall_ns,
        cpu_us,
        [
            mib_per_s(&phases[0]),
            mib_per_s(&phases[2]),
            content_runs as f64 / (content_blocks as f64 * BLOCK_SIZE as f64 / (1024.0 * MIB)),
            (content_blocks * EMB_ENTRIES_PER_BLOCK) as f64 / files,
            c.calls as f64 / (sim_ns(&phases) / 1e9),
        ],
        std::mem::take(&mut c.latencies),
    );
    MdsRepeat {
        timing,
        phases,
        journal_records: c.mds.journal_records(),
        disk: c.mds.disk_stats().clone(),
        problems: problems.into_iter().take(3).collect::<Vec<_>>().join("; "),
    }
}

fn check_consistent(out: &mut Outcome, repeats: usize, problems: &[String]) {
    out.check(
        "mds_check_empty_and_entry_counts_match",
        problems.is_empty(),
        problems
            .first()
            .cloned()
            .unwrap_or(format!("{repeats} repeats")),
    );
}

/// The untraced run: every end-to-end metric, and the output checks.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::new(NAME);
    let (mut repeats, mut problems) = (0, Vec::new());
    direct::run(
        &mut out,
        seconds,
        || inputs(seed),
        |inputs, _, _| {
            let r = repeat(inputs, direct::SAMPLE_EVERY, &mut Tracer::new(false));
            repeats += 1;
            problems.extend(Some(r.problems).filter(|p| !p.is_empty()));
            r.timing
        },
    );
    check_consistent(&mut out, repeats, &problems);
    out
}

/// The traced run: every per-layer metric. Traced and untraced repeats
/// alternate. The MDS is called directly and calls nothing the harness can
/// replay apart from it, so all of the time is the `mds` layer's own.
pub fn run_traced(seed: u64, seconds: u64, trace_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::new(NAME);
    out.zero_per_layer();
    verify::caller_is_the_only_thread(&mut out);
    let pair_ns = Tracer::pair_cost_ns();
    let (inputs, gen_s) = stats::fastest_of(1, || inputs(seed));
    // The spans of one traced repeat are kept: they all look alike.
    let mut kept: Option<Tracer> = None;
    let (mut repeats, mut problems) = (0, Vec::new());
    let (traced_ns, untraced_ns, r) = direct::alternate(seconds as f64 / 2.0, |tracing| {
        let mut tracer = Tracer::new(tracing);
        let r = repeat(&inputs, 0, &mut tracer);
        if tracing {
            kept.get_or_insert(tracer);
        }
        repeats += 1;
        problems.extend(Some(r.problems.clone()).filter(|p| !p.is_empty()));
        (r.timing.ns_per_op(), r)
    });
    check_consistent(&mut out, repeats, &problems);
    let tracer = kept.expect("at least two traced repeats");
    let calls = r.timing.ops as f64;
    out.attempted = r.timing.ops * repeats as u64;
    out.set("workloads.gen_ns_per_op", gen_s * 1e9 / calls);
    direct::set_bench_metrics(
        &mut out,
        calls,
        tracer.spans().len(),
        traced_ns,
        untraced_ns,
    );
    out.set("mds.self_ns_per_op", untraced_ns);
    out.set("bench.layer_self_sum_ns_per_op", untraced_ns);

    let totals = span::totals_by_name(tracer.spans());
    let per_call = |phase: Phase, per: f64| {
        let t = totals.get(phase.span_name()).copied().unwrap_or_default();
        ((t.total_ns as f64 / t.count.max(1) as f64 - pair_ns) / per).max(0.0)
    };
    out.set("mds.create_ns_per_op", per_call(Phase::Create, 1.0));
    out.set("mds.utime_ns_per_op", per_call(Phase::Utime, 1.0));
    out.set(
        "mds.readdir_stat_ns_per_entry",
        per_call(Phase::ReaddirStat, FILES_PER_DIR as f64),
    );
    out.set("mds.unlink_ns_per_op", per_call(Phase::Unlink, 1.0));
    let sim_ops_s = |p: &PhaseResult| p.calls as f64 / (p.sim_ns as f64 / 1e9);
    out.set("mds.sim_create_ops_s", sim_ops_s(&r.phases[0]));
    out.set("mds.sim_utime_ops_s", sim_ops_s(&r.phases[1]));
    out.set("mds.sim_readdir_stat_ops_s", sim_ops_s(&r.phases[2]));
    out.set("mds.sim_unlink_ops_s", sim_ops_s(&r.phases[3]));
    out.set(
        "mds.disk_accesses_per_op",
        r.phases.iter().map(|p| p.disk_accesses).sum::<u64>() as f64 / calls,
    );
    out.set("mds.journal_records", r.journal_records as f64);
    // The metadata disk's own counters; its host time is inside the MDS
    // calls and cannot be told apart from outside.
    // Nor can the bytes the MDS asked of it, so no readahead overshoot.
    crate::layers::set_disk_counters(&mut out, &r.disk, 0);

    verify::trace_is_written(&mut out, trace_dir, tracer.spans());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(1);
        assert_eq!(a.names.len(), FILES_PER_DIR as usize);
        assert_eq!(a.first.len(), FILES_PER_DIR as usize);
        assert!(a.first.iter().all(|&f| f < DIRS));
        let mut unique = a.names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            a.names.len(),
            "names within a directory differ"
        );
        assert_eq!(inputs(1).names, a.names);
        assert_ne!(inputs(2).names, a.names);
    }
}
