//! What the two direct workloads share: a seeded scenario is repeated on
//! fresh instances, one thread, until the time budget is spent; each repeat
//! is one epoch, and its simulated results must repeat exactly.

use std::time::{Duration, Instant};

use crate::host;
use crate::report::Outcome;
use crate::stats;
use crate::verify;

/// Every `SAMPLE_EVERY`th call of an untraced repeat is timed for the
/// latency percentiles. Odd, so it does not beat with the 64 streams of one
/// workload or the 20 clients of the other.
pub const SAMPLE_EVERY: u64 = 7;
/// Fewest repeats a run reports on.
const MIN_REPEATS: usize = 5;
/// Times the seeded inputs are generated; `setup_s` takes the fastest.
const GEN_REPEATS: usize = 5;

/// The simulated end-to-end metrics, in the order of [`Repeat::sim`].
const SIM_NAMES: [&str; 5] = [
    "sim_write_mib_s",
    "sim_read_mib_s",
    "extents_per_gib",
    "space_amp",
    "sim_meta_ops_s",
];

/// What one repeat measured.
pub struct Repeat {
    /// Seconds to build the instance, up to the first timed call.
    pub setup_s: f64,
    /// Calls of the timed section.
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_us: u64,
    /// Percentiles of the call-to-return time of the sampled calls, in
    /// microseconds. Only they outlive the repeat: a run must not grow with
    /// the number of its repeats.
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub samples: usize,
    /// The simulated results, which must repeat exactly.
    pub sim: [f64; 5],
}

impl Repeat {
    /// `latencies_ns` are the call-to-return times of the sampled calls.
    pub fn new(
        setup_s: f64,
        ops: u64,
        wall_ns: u64,
        cpu_us: u64,
        sim: [f64; 5],
        mut latencies_ns: Vec<u64>,
    ) -> Self {
        latencies_ns.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        Repeat {
            setup_s,
            ops,
            wall_ns,
            cpu_us,
            p50_us: stats::percentile(&latencies_ns, 0.5).map(us),
            p99_us: stats::tail_percentile(&latencies_ns, 0.99).map(us),
            samples: latencies_ns.len(),
            sim,
        }
    }

    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops as f64
    }
}

/// Generate the inputs (timed, fastest of [`GEN_REPEATS`]), repeat the
/// scenario for `seconds`, and report every end-to-end metric.
pub fn run<I>(
    out: &mut Outcome,
    seconds: u64,
    generate: impl FnMut() -> I,
    mut repeat: impl FnMut(&I, &mut Outcome, usize) -> Repeat,
) {
    verify::caller_is_the_only_thread(out);
    let (inputs, gen_s) = stats::fastest_of(GEN_REPEATS, generate);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut repeats = Vec::new();
    while repeats.len() < MIN_REPEATS || Instant::now() < deadline {
        repeats.push(repeat(&inputs, out, repeats.len()));
    }
    let of = |f: &dyn Fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let rates = of(&|r| 1e9 / r.ns_per_op());
    out.attempted = repeats.iter().map(|r| r.ops).sum();
    out.set(
        "setup_s",
        gen_s + stats::fast_decile(&of(&|r| r.setup_s), false),
    );
    let ops_per_s = stats::fast_decile(&rates, true);
    out.set("ops_per_s", ops_per_s);
    verify::generator_is_cheap(out, gen_s * 1e9 / repeats[0].ops as f64, 1e9 / ops_per_s);
    out.set(
        "cpu_us_per_op",
        stats::fast_decile(&of(&|r| r.cpu_us as f64 / r.ops as f64), false),
    );
    let p50: Vec<f64> = repeats.iter().filter_map(|r| r.p50_us).collect();
    let p99: Vec<f64> = repeats.iter().filter_map(|r| r.p99_us).collect();
    out.check(
        "p99_has_ten_samples_beyond_it",
        p99.len() == repeats.len(),
        format!("{} of {} repeats", p99.len(), repeats.len()),
    );
    if p99.len() == repeats.len() {
        out.set("ack_p50_us", stats::fast_decile(&p50, false));
        out.set("ack_p99_us", stats::fast_decile(&p99, false));
    }
    for (i, name) in SIM_NAMES.into_iter().enumerate() {
        let values = of(&|r| r.sim[i]);
        out.set(name, values[0]);
        verify::repeats_identical(out, name, &values);
    }
    out.set("peak_rss_mib", host::peak_rss_mib());
    out.note(format!(
        "{} repeats (epochs) of {} calls each, {} latency samples per repeat (every {SAMPLE_EVERY}th call); ops_per_s per repeat: min {:.0} median {:.0} max {:.0}",
        repeats.len(),
        repeats[0].ops,
        repeats[0].samples,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&rates),
        rates.iter().copied().fold(0.0, f64::max),
    ));
}

/// Repeat the scenario for `seconds`, traced and untraced by turns. Returns
/// the per-operation wall time of the fast traced and of the fast untraced
/// repeats, and what `repeat` returned last.
pub fn alternate<T>(seconds: f64, mut repeat: impl FnMut(bool) -> (f64, T)) -> (f64, f64, T) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced.len() < 2 || Instant::now() < deadline {
        let tracing = untraced.len() > traced.len();
        let (ns_per_op, kept) = repeat(tracing);
        if tracing { &mut traced } else { &mut untraced }.push(ns_per_op);
        last = Some(kept);
    }
    (
        stats::fast_decile(&traced, false),
        stats::fast_decile(&untraced, false),
        last.expect("at least one repeat"),
    )
}

/// Fill in the `bench.*` metrics every traced direct run reports the same
/// way. The caller does nothing but call the layer under test.
pub fn set_bench_metrics(
    out: &mut Outcome,
    ops: f64,
    spans: usize,
    traced_ns: f64,
    untraced_ns: f64,
) {
    out.set("bench.ops", ops);
    out.set("bench.spans", spans as f64);
    out.set("bench.traced_ns_per_op", traced_ns);
    out.set("bench.trace_overhead_frac", traced_ns / untraced_ns - 1.0);
    out.set("bench.driver_busy_frac", 1.0);
}
