//! The names every number is reported under, and the output formats.
//!
//! This file is the one place the metric names, units, directions and
//! bounds are written down; `BENCHMARK.json` at the repository root is
//! rendered from it (`--print-benchmark-json`) and a test keeps the two
//! identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock (or what else) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time of this host: noisy, hardware-dependent.
    Wall,
    /// CPU time and memory the kernel accounts to the process.
    Host,
    /// The simulated disk and MDS clocks: deterministic for one thread.
    Sim,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn word(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "svc_ckpt_write",
        why: "N-1 checkpoint through the server: codec, queue, sessions, write path, on-demand window claims and the group-commit WAL do the work; disk reads do none",
    },
    Workload {
        name: "svc_restart_mixed",
        why: "70/30 reads and in-place writes on populated files through the server: extent resolve and the disk model do the work; the allocator is bypassed",
    },
    Workload {
        name: "eng_shared_file",
        why: "Fig. 6 on the engine, one thread, no server: allocator, extent trees and disks do all the work, deterministically; the server and the MDS are bypassed",
    },
    Workload {
        name: "mds_metarates",
        why: "Fig. 8 on the embedded-directory MDS alone: create, utime, readdir-stat, unlink; the data path, allocator and server are bypassed",
    },
];

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with tracing off.
/// README.md says what each one means on each workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Clock::Wall, Lower, 0.25),
    e2e("ops_per_s", "1/s", Clock::Wall, Higher, 0.25),
    e2e("cpu_us_per_op", "us", Clock::Host, Lower, 0.25),
    e2e("ack_p50_us", "us", Clock::Wall, Lower, 0.25),
    e2e("ack_p99_us", "us", Clock::Wall, Lower, 0.25),
    e2e("sim_write_mib_s", "MiB/s", Clock::Sim, Higher, 0.06),
    e2e("sim_read_mib_s", "MiB/s", Clock::Sim, Higher, 0.1),
    e2e("extents_per_gib", "1/GiB", Clock::Count, Lower, 0.25),
    e2e("space_amp", "ratio", Clock::Count, Lower, 0.03),
    e2e("sim_meta_ops_s", "1/s", Clock::Sim, Higher, 0.03),
    e2e("peak_rss_mib", "MiB", Clock::Host, Lower, 0.15),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, reported by every workload with tracing on. A
/// layer a workload does not enter reports zeros.
pub const PER_LAYER: [PerLayer; 68] = [
    layer("server.encode_ns_per_frame", "ns", Lower),
    layer("server.decode_ns_per_frame", "ns", Lower),
    layer("server.submit_ns_per_op", "ns", Lower),
    layer("server.reap_ns_per_op", "ns", Lower),
    layer("server.self_ns_per_op", "ns", Lower),
    layer("server.queue_parks", "count", Lower),
    layer("server.queue_max_depth", "count", Lower),
    layer("server.admission_parks", "count", Lower),
    layer("server.sessions", "count", Higher),
    layer("server.rejected", "count", Lower),
    layer("server.ack_p999_us", "us", Lower),
    layer("core.write_ns_per_op", "ns", Lower),
    layer("core.read_ns_per_op", "ns", Lower),
    layer("core.sync_ns_per_call", "ns", Lower),
    layer("core.sync_calls", "count", Lower),
    layer("core.openclose_ns_per_op", "ns", Lower),
    layer("core.self_ns_per_op", "ns", Lower),
    layer("core.disk_locks_per_op", "ratio", Lower),
    layer("core.lockfree_claim_frac", "ratio", Higher),
    layer("core.writeback_batches", "count", Lower),
    layer("core.writeback_reqs_per_batch", "ratio", Higher),
    layer("mds.wal_append_ns_per_rec", "ns", Lower),
    layer("mds.wal_commit_ns_per_call", "ns", Lower),
    layer("mds.wal_records", "count", Lower),
    layer("mds.wal_flushes", "count", Lower),
    layer("mds.wal_recs_per_flush", "ratio", Higher),
    layer("mds.wal_max_batch", "count", Higher),
    layer("mds.wal_backpressure_parks", "count", Lower),
    layer("mds.wal_image_mib", "MiB", Lower),
    layer("mds.create_ns_per_op", "ns", Lower),
    layer("mds.utime_ns_per_op", "ns", Lower),
    layer("mds.readdir_stat_ns_per_entry", "ns", Lower),
    layer("mds.unlink_ns_per_op", "ns", Lower),
    layer("mds.sim_create_ops_s", "1/s", Higher),
    layer("mds.sim_utime_ops_s", "1/s", Higher),
    layer("mds.sim_readdir_stat_ops_s", "1/s", Higher),
    layer("mds.sim_unlink_ops_s", "1/s", Higher),
    layer("mds.disk_accesses_per_op", "ratio", Lower),
    layer("mds.journal_records", "count", Lower),
    layer("mds.self_ns_per_op", "ns", Lower),
    layer("alloc.extend_ns_per_op", "ns", Lower),
    layer("alloc.runs_per_extend", "ratio", Lower),
    layer("alloc.prealloc_hit_frac", "ratio", Higher),
    layer("alloc.streams_turned_off", "count", Lower),
    layer("alloc.reclaimed_blocks", "count", Lower),
    layer("alloc.self_ns_per_op", "ns", Lower),
    layer("extent.insert_ns_per_op", "ns", Lower),
    layer("extent.resolve_ns_per_op", "ns", Lower),
    layer("extent.extents_total", "count", Lower),
    layer("extent.max_extents_per_tree", "count", Lower),
    layer("extent.self_ns_per_op", "ns", Lower),
    layer("simdisk.host_ns_per_req", "ns", Lower),
    layer("simdisk.submitted", "count", Lower),
    layer("simdisk.dispatched", "count", Lower),
    layer("simdisk.merge_ratio", "ratio", Higher),
    layer("simdisk.cache_hit_frac", "ratio", Higher),
    layer("simdisk.seek_frac", "ratio", Lower),
    layer("simdisk.cyl_per_seek", "cyl", Lower),
    layer("simdisk.sim_busy_ns_per_mib", "ns/MiB", Lower),
    layer("simdisk.readahead_overshoot", "ratio", Lower),
    layer("simdisk.self_ns_per_op", "ns", Lower),
    layer("workloads.gen_ns_per_op", "ns", Lower),
    layer("bench.driver_busy_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.traced_ns_per_op", "ns", Lower),
    layer("bench.layer_self_sum_ns_per_op", "ns", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.ops", "count", Higher),
];

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// One verification of the program's outputs.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the reader: epochs, sample counts, counters.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Start a traced run: a layer the workload does not enter reports
    /// zeros.
    pub fn zero_per_layer(&mut self) {
        for m in &PER_LAYER {
            self.set(m.name, 0.0);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v:?}")
}

/// The result line the driver reads: `names` are the metrics it expects.
pub fn result_json<'a>(
    outcome: &Outcome,
    names: impl Iterator<Item = (&'a str, &'a str)>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in names.enumerate() {
        let value = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{} did not report {name}", outcome.workload));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        )
        .expect("writing to a string");
    }
    s.push_str("}}");
    s
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"mifbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"mifbench\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a string");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("writing to a string");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        )
        .expect("writing to a string");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        )
        .expect("writing to a string");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_root_is_what_this_file_renders() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path mifbench/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_keep_to_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn the_result_line_carries_every_digit() {
        let mut o = Outcome::new("w");
        o.attempted = 3;
        o.set("a", 1.25);
        o.set("b", 0.1 + 0.2);
        let line = result_json(&o, [("a", "s"), ("b", "1/s")].into_iter());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"1/s\"}}}"
        );
        o.check("x", false, String::new());
        assert!(result_json(&o, std::iter::empty()).starts_with("{\"correct\": false"));
    }
}
