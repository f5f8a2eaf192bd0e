//! The per-layer metrics that all three data-path workloads fill in the
//! same way: from the layers timed alone, from the disks' and the engine's
//! own counters, and from spans around engine calls.

use std::collections::BTreeMap;

use crate::engine;
use crate::leaf;
use crate::report::Outcome;
use crate::span;

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of a parent's time by which its children may exceed it before the
/// replay is held to no longer match the program.
const SELF_TIME_SLACK: f64 = 0.05;

/// A layer's self time per operation: its own pass minus its children's.
/// The passes are timed apart and each carries a few percent of noise, so a
/// layer that adds little to its children can come out slightly negative;
/// that is reported as 0. `None` when the children exceed the parent by more
/// than [`SELF_TIME_SLACK`]: then the replay is wrong, not noisy.
pub fn self_time(parent_ns: f64, children_ns: f64) -> Option<f64> {
    (children_ns <= parent_ns * (1.0 + SELF_TIME_SLACK)).then(|| (parent_ns - children_ns).max(0.0))
}

/// Fill in the per-layer metrics that come from timing the layers below
/// the engine alone, and return the sum of their self times per operation.
pub fn set_leaf_metrics(out: &mut Outcome, t: &leaf::LeafTimes, ops: f64) -> f64 {
    out.set(
        "mds.wal_append_ns_per_rec",
        ratio((t.wal_ns - t.wal_commit_ns) as f64, t.wal_records as f64),
    );
    out.set(
        "mds.wal_commit_ns_per_call",
        ratio(t.wal_commit_ns as f64, t.wal_commits as f64),
    );
    out.set("mds.self_ns_per_op", t.wal_ns as f64 / ops);
    out.set(
        "alloc.extend_ns_per_op",
        ratio(t.alloc_ns as f64, t.extends as f64),
    );
    out.set(
        "alloc.runs_per_extend",
        ratio(t.extend_runs as f64, t.extends as f64),
    );
    let od = t.ondemand;
    out.set(
        "alloc.prealloc_hit_frac",
        ratio(
            od.pre_alloc_hits as f64,
            (od.pre_alloc_hits + od.layout_misses) as f64,
        ),
    );
    out.set("alloc.streams_turned_off", od.streams_turned_off as f64);
    out.set("alloc.reclaimed_blocks", od.reclaimed_blocks as f64);
    out.set("alloc.self_ns_per_op", t.alloc_ns as f64 / ops);
    out.set(
        "extent.insert_ns_per_op",
        ratio(t.extent_insert_ns as f64, t.inserts as f64),
    );
    out.set(
        "extent.resolve_ns_per_op",
        ratio((t.extent_ns - t.extent_insert_ns) as f64, t.resolves as f64),
    );
    out.set("extent.extents_total", t.extents_total as f64);
    out.set("extent.max_extents_per_tree", t.max_extents_per_tree as f64);
    out.set("extent.self_ns_per_op", t.extent_ns as f64 / ops);
    out.set(
        "simdisk.host_ns_per_req",
        ratio(t.disk_ns as f64, t.disk_requests as f64),
    );
    out.set("simdisk.self_ns_per_op", t.disk_ns as f64 / ops);
    (t.wal_ns + t.alloc_ns + t.extent_ns + t.disk_ns) as f64 / ops
}

/// Fill in the `simdisk.*` counters from the disks' own statistics.
pub fn set_disk_counters(
    out: &mut Outcome,
    io: &mif_simdisk::DiskStats,
    requested_blocks_read: u64,
) {
    out.set("simdisk.submitted", io.submitted as f64);
    out.set("simdisk.dispatched", io.dispatched as f64);
    out.set(
        "simdisk.merge_ratio",
        ratio(io.submitted as f64, (io.dispatched + io.cache_hits) as f64),
    );
    out.set(
        "simdisk.cache_hit_frac",
        ratio(io.cache_hits as f64, io.submitted as f64),
    );
    out.set("simdisk.seek_frac", io.seek_ratio());
    out.set(
        "simdisk.cyl_per_seek",
        ratio(io.seek_distance_cyl as f64, io.seeks as f64),
    );
    out.set(
        "simdisk.sim_busy_ns_per_mib",
        ratio(io.busy_ns as f64, io.bytes_total() as f64 / engine::MIB),
    );
    out.set(
        "simdisk.readahead_overshoot",
        ratio(io.bytes_read as f64, requested_blocks_read as f64 * 4096.0),
    );
}

/// Fill in the `core.*` metrics that come from spans around engine calls.
/// `pair_ns` is what recording one span costs; it is taken off each call.
pub fn set_core_span_metrics(
    out: &mut Outcome,
    totals: &BTreeMap<&'static str, span::NameTotals>,
    pair_ns: f64,
) {
    let per_call = |names: &[&str]| {
        let (count, total) = names
            .iter()
            .filter_map(|n| totals.get(n))
            .fold((0u64, 0u64), |a, t| (a.0 + t.count, a.1 + t.total_ns));
        (ratio(total as f64, count as f64) - pair_ns).max(0.0)
    };
    out.set("core.write_ns_per_op", per_call(&["core.write"]));
    out.set("core.read_ns_per_op", per_call(&["core.read"]));
    out.set("core.sync_ns_per_call", per_call(&["core.sync"]));
    out.set(
        "core.sync_calls",
        totals.get("core.sync").map_or(0, |t| t.count) as f64,
    );
    out.set(
        "core.openclose_ns_per_op",
        per_call(&["core.open", "core.close", "core.create"]),
    );
}

/// Fill in the `core.*` counters from the engine's contention telemetry.
pub fn set_core_counters(out: &mut Outcome, c: &mif_core::ContentionSnapshot, ops: f64) {
    out.set(
        "core.disk_locks_per_op",
        c.disk_lock_acquisitions as f64 / ops,
    );
    out.set(
        "core.lockfree_claim_frac",
        ratio(
            c.lockfree_window_claims as f64,
            (c.lockfree_window_claims + c.locked_policy_extends) as f64,
        ),
    );
    out.set("core.writeback_batches", c.writeback_batches as f64);
    out.set(
        "core.writeback_reqs_per_batch",
        ratio(c.writeback_requests as f64, c.writeback_batches as f64),
    );
    out.set("mds.wal_records", c.wal_records as f64);
    out.set("mds.wal_flushes", c.wal_flushes as f64);
    out.set(
        "mds.wal_recs_per_flush",
        ratio(c.wal_records as f64, c.wal_flushes as f64),
    );
    out.set("mds.wal_max_batch", c.wal_max_batch as f64);
    out.set(
        "mds.wal_backpressure_parks",
        c.wal_backpressure_parks as f64,
    );
}
