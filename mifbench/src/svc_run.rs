//! What a run of a service workload reports: the end-to-end metrics of an
//! untraced run, and the per-layer metrics of a traced one.

use std::time::{Duration, Instant};

use mif_alloc::StreamId;
use mif_server::{encode_request, Request};

use crate::engine::{self, EngOp};
use crate::layers::{
    ratio, self_time, set_core_counters, set_core_span_metrics, set_disk_counters, set_leaf_metrics,
};
use crate::leaf;
use crate::plan::{self, Sessions, Step, SvcKind};
use crate::report::Outcome;
use crate::span::{self, Tracer};
use crate::stats;
use crate::svc::{self, Check, LoopResult, Tracing, ACTIVE, WINDOW};
use crate::verify::{self, WriteKey};

/// Set-ups per untraced run; `setup_s` is the fastest of them.
const SETUPS: usize = 5;
/// Equal-op epochs the timed section is cut into: about a second each.
const EPOCHS: usize = 15;
/// Strides of [`CHECK_STRIDE`] acks per traced or untraced group of a
/// traced run.
const TRACE_GROUP_STRIDES: usize = 16;
/// Sessions of the fixed-work pass the simulated metrics come from: about
/// a million requests.
const FIXED_SESSIONS: u64 = 30_000;
/// Share of `--seconds` a traced run spends in the server loop; the layer
/// replays take the rest.
const TRACED_LOOP_SHARE: f64 = 0.3;

pub fn name(kind: SvcKind) -> &'static str {
    match kind {
        SvcKind::CkptWrite => "svc_ckpt_write",
        SvcKind::RestartMixed => "svc_restart_mixed",
    }
}

struct Epoch {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    p50_us: f64,
    p99_us: Option<f64>,
    samples: usize,
}

fn epoch(r: &LoopResult, strides: std::ops::Range<usize>) -> Epoch {
    let (a, b): (Check, Check) = (r.checks[strides.start], r.checks[strides.end]);
    let acks = a.acks..b.acks;
    let ops = acks.len();
    let mut lat = r.latencies[acks].to_vec();
    lat.sort_unstable();
    let us = |ns: u64| ns as f64 / 1e3;
    Epoch {
        ops_per_s: ops as f64 / ((b.wall_ns - a.wall_ns) as f64 / 1e9),
        cpu_us_per_op: (b.cpu_us - a.cpu_us) as f64 / ops as f64,
        p50_us: us(stats::percentile(&lat, 0.5).expect("an epoch has samples")),
        p99_us: stats::tail_percentile(&lat, 0.99).map(us),
        samples: ops,
    }
}

/// Every write the run acknowledged, as its journal record describes it.
fn acked_writes(kind: SvcKind, seed: u64, r: &LoopResult) -> Vec<WriteKey> {
    let mut sessions = Sessions::new(kind, seed);
    let mut out = Vec::with_capacity(r.writes_ok as usize);
    for _ in 0..r.sessions_done {
        let mut s = sessions.next_session();
        let handle = r.handle_of[s.file as usize].expect("a finished session opened its file");
        let stream = StreamId::new(s.id as u32, 0).as_u64();
        while let Some(step) = s.next_step() {
            if let Step::Write { offset, len } = step {
                out.push((handle, stream, offset, len));
            }
        }
    }
    out
}

fn header(out: &mut Outcome, r: &LoopResult) {
    out.attempted = r.attempted;
    out.failed = r.failed;
    out.note(format!(
        "threads {} (1 driver + {} worker), {} sessions in flight x window {}, {} sessions, {} requests: {} writes {} reads {} syncs",
        r.threads_seen,
        svc::WORKERS,
        ACTIVE,
        WINDOW,
        r.sessions_done,
        r.latencies.len(),
        r.writes_ok,
        r.reads_ok,
        r.syncs_ok
    ));
    verify::threads_within_nproc(out, r.threads_seen);
    out.check(
        "every_request_acked_ok",
        r.failed == 0 && r.latencies.len() as u64 == r.attempted,
        format!(
            "{} attempted, {} acked, {} failed",
            r.attempted,
            r.latencies.len(),
            r.failed
        ),
    );
}

/// The untraced run: every end-to-end metric, and the output checks.
pub fn run(kind: SvcKind, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::new(name(kind));
    let cfg = svc::fs_config();
    let setup = svc::setup_ops(kind);
    let mut setup_s = Vec::new();
    let mut built: Option<std::sync::Arc<mif_server::Server>> = None;
    for _ in 0..SETUPS {
        // Only the last set-up is used; the others are timed and torn down.
        if let Some(server) = built.take() {
            server.into_fs();
        }
        let start = Instant::now();
        let pass = engine::pass(&cfg, &setup, 0, &mut Tracer::new(false));
        let server = svc::start_server(pass.fs);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(server);
    }
    let server = built.expect("SETUPS > 0");
    out.set("setup_s", stats::fast_decile(&setup_s, false));

    let mut sessions = Sessions::new(kind, seed);
    let mut tracer = Tracer::new(false);
    let r = svc::closed_loop(
        &server,
        &mut sessions,
        Duration::from_secs(seconds),
        Tracing::Off,
        &mut tracer,
    );
    header(&mut out, &r);
    let stats_after = {
        server.shutdown();
        server.stats()
    };
    out.check(
        "server_executed_each_request_once",
        stats_after.executed == r.attempted
            && stats_after.acks == r.attempted
            && stats_after.rejected == 0
            && stats_after.dup_replays == 0,
        format!("{stats_after:?}"),
    );

    let epochs: Vec<Epoch> = stats::split_epochs(r.checks.len() - 1, EPOCHS)
        .into_iter()
        .map(|e| epoch(&r, e))
        .collect();
    let of = |f: fn(&Epoch) -> f64| epochs.iter().map(f).collect::<Vec<f64>>();
    let rates = of(|e| e.ops_per_s);
    out.set("ops_per_s", stats::fast_decile(&rates, true));
    out.set(
        "cpu_us_per_op",
        stats::fast_decile(&of(|e| e.cpu_us_per_op), false),
    );
    verify::generator_is_cheap(
        &mut out,
        gen_ns_per_op(kind, seed),
        1e9 / stats::fast_decile(&rates, true),
    );
    out.set("ack_p50_us", stats::lower_quartile(&of(|e| e.p50_us)));
    let p99: Vec<f64> = epochs.iter().filter_map(|e| e.p99_us).collect();
    out.check(
        "p99_has_ten_samples_beyond_it",
        p99.len() == epochs.len() && !epochs.is_empty(),
        format!("{} of {} epochs", p99.len(), epochs.len()),
    );
    if !p99.is_empty() {
        out.set("ack_p99_us", stats::lower_quartile(&p99));
    }
    out.note(format!(
        "{} epochs of {} acks each (samples per percentile); ops_per_s per epoch: min {:.0} median {:.0} max {:.0}",
        epochs.len(),
        epochs.first().map_or(0, |e| e.samples),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&rates),
        rates.iter().copied().fold(0.0, f64::max),
    ));
    out.set("peak_rss_mib", r.rss_mib);
    out.note(format!(
        "peak_rss_mib is VmHWM after {} acks; at exit of the loop it was {:.1} MiB",
        svc::RSS_AT_ACKS.min(r.latencies.len()),
        crate::host::peak_rss_mib()
    ));

    let fs = server.into_fs();
    fs.sync();
    let (at_end, _) = engine::extents_and_space(&fs);
    out.note(format!(
        "the loop's own file system ended with {at_end:.0} extents per GiB; the simulated metrics are those of the first {FIXED_SESSIONS} sessions"
    ));
    for (name, value) in fixed_work(kind, seed) {
        out.set(name, value);
    }

    verify::wal_covers_acked_writes(&mut out, &fs, acked_writes(kind, seed, &r));
    verify::fs_image_is_clean(&mut out, fs);
    out
}

/// The simulated end-to-end metrics, at a fixed amount of work: the first
/// [`FIXED_SESSIONS`] sessions of the seeded stream, applied to the engine
/// in the order the server's worker sees them. What the timed loop itself
/// built depends on how far the clock let it get, so it would make these
/// metrics follow the host's speed; this pass depends on the seed alone. A
/// traced run checks that the order is the server's: the replay of a loop
/// ends with that loop's extents, extent for extent.
fn fixed_work(kind: SvcKind, seed: u64) -> [(&'static str, f64); 5] {
    let cfg = svc::fs_config();
    let ops = replay_ops(kind, seed, FIXED_SESSIONS, 64);
    let pass = engine::pass(&cfg, &ops, 0, &mut Tracer::new(false));
    let fs = pass.fs;
    let populate_ns = pass.marks[0].data_ns;
    let loop_ns = fs.data_elapsed_ns() - populate_ns;
    let (mut written, mut read) = (0, 0);
    for op in ops.iter().skip_while(|o| **o != EngOp::Mark) {
        match *op {
            EngOp::Write { len, .. } => written += len,
            EngOp::Read { len, .. } => read += len,
            _ => {}
        }
    }
    let (extents_per_gib, space_amp) = engine::extents_and_space(&fs);
    let (sim_write, sim_read) = match kind {
        SvcKind::CkptWrite => {
            // The restart: every region a session wrote is read back.
            let mut sessions = Sessions::new(kind, seed);
            let regions: Vec<(mif_core::OpenFile, u64, u64)> = (0..FIXED_SESSIONS)
                .map(|_| {
                    let s = sessions.next_session();
                    let file = fs
                        .open(&plan::file_name(s.file))
                        .expect("a file of the population");
                    (
                        file,
                        s.region_base(),
                        plan::SESSION_OPS * plan::WRITE_BLOCKS,
                    )
                })
                .collect();
            let (blocks, ns) = svc::read_back(&fs, &regions);
            (
                engine::mib_per_s(written, loop_ns),
                engine::mib_per_s(blocks, ns),
            )
        }
        SvcKind::RestartMixed => (
            engine::mib_per_s(plan::FILES * plan::RESTART_FILE_BLOCKS, populate_ns),
            engine::mib_per_s(read, loop_ns),
        ),
    };
    let mut quiet = fs.into_engine();
    [
        ("sim_write_mib_s", sim_write),
        ("sim_read_mib_s", sim_read),
        ("extents_per_gib", extents_per_gib),
        ("space_amp", space_amp),
        ("sim_meta_ops_s", engine::meta_ops_per_s(&mut quiet)),
    ]
}

/// The operations of the first `sessions` sessions in the order the worker
/// saw them: the turn-taking of `svc::closed_loop`, step for step, without
/// the waiting. Every `commit_every` writes pass one durability gate.
fn replay_ops(kind: SvcKind, seed: u64, sessions: u64, commit_every: u64) -> Vec<EngOp> {
    let mut ops = svc::setup_ops(kind);
    ops.push(EngOp::Mark);
    let mut gen = Sessions::new(kind, seed);
    let mut started = ACTIVE as u64;
    assert!(
        sessions >= started,
        "the loop starts with every slot filled"
    );
    // A session and the step it sends next, as in `svc::Slot`.
    let mut slots: Vec<Option<(plan::Session, Option<Step>)>> = (0..ACTIVE)
        .map(|_| {
            let mut s = gen.next_session();
            let first = s.next_step();
            Some((s, first))
        })
        .collect();
    let mut writes = 0u64;
    while slots.iter().any(Option::is_some) {
        for slot in slots.iter_mut() {
            if matches!(slot, Some((_, None))) {
                *slot = (started < sessions).then(|| {
                    started += 1;
                    let mut s = gen.next_session();
                    let first = s.next_step();
                    (s, first)
                });
            }
            let Some((s, pending)) = slot else { continue };
            let file = s.file as u32;
            let stream = StreamId::new(s.id as u32, 0);
            for _ in 0..gen.next_burst() {
                let Some(step) = *pending else { break };
                *pending = s.next_step();
                ops.push(match step {
                    Step::Open => EngOp::Open { file },
                    Step::Close => EngOp::Close { file },
                    Step::Sync => EngOp::Sync,
                    Step::Read { offset, len } => EngOp::Read {
                        file,
                        stream,
                        offset,
                        len,
                    },
                    Step::Write { offset, len } => {
                        writes += 1;
                        EngOp::Write {
                            file,
                            stream,
                            offset,
                            len,
                        }
                    }
                });
                if matches!(step, Step::Write { .. }) && writes.is_multiple_of(commit_every.max(1))
                {
                    ops.push(EngOp::Commit);
                }
                // The open goes alone: what follows needs its handle.
                if step == Step::Open {
                    break;
                }
            }
        }
    }
    ops.push(EngOp::Mark);
    // What the loop's last requests left queued is flushed after it, as
    // the run does before it reads the simulated clock.
    ops.push(EngOp::Commit);
    ops.push(EngOp::Sync);
    ops
}

/// Nanoseconds per operation to generate the sessions' programs.
pub fn gen_ns_per_op(kind: SvcKind, seed: u64) -> f64 {
    const SESSIONS: u64 = 4096;
    let mut gen = Sessions::new(kind, seed);
    let start = Instant::now();
    let mut steps = 0u64;
    for _ in 0..SESSIONS {
        let mut s = gen.next_session();
        while let Some(step) = s.next_step() {
            std::hint::black_box(step);
            steps += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / steps as f64
}

/// Encode and decode the frames of the first sessions: nanoseconds per
/// frame for each direction.
fn codec_ns_per_frame(kind: SvcKind, seed: u64) -> (f64, f64) {
    const SESSIONS: u64 = 4096;
    let mut gen = Sessions::new(kind, seed);
    let mut requests = Vec::new();
    for _ in 0..SESSIONS {
        let mut s = gen.next_session();
        let mut seq_no = 0;
        while let Some(step) = s.next_step() {
            seq_no += 1;
            requests.push(Request {
                client_id: s.id,
                seq_no,
                sent_at_ns: seq_no * 1000,
                op: svc::to_op(step, s.file, Some(s.file + 1)),
            });
        }
    }
    let start = Instant::now();
    let frames: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let encode = start.elapsed().as_nanos() as f64 / frames.len() as f64;
    let start = Instant::now();
    for f in &frames {
        std::hint::black_box(mif_server::decode_request(f).expect("a frame just encoded"));
    }
    let decode = start.elapsed().as_nanos() as f64 / frames.len() as f64;
    (encode, decode)
}

fn contention_since(
    now: &mif_core::ContentionSnapshot,
    then: &mif_core::ContentionSnapshot,
) -> mif_core::ContentionSnapshot {
    mif_core::ContentionSnapshot {
        write_ops: now.write_ops - then.write_ops,
        disk_lock_acquisitions: now.disk_lock_acquisitions - then.disk_lock_acquisitions,
        lockfree_window_claims: now.lockfree_window_claims - then.lockfree_window_claims,
        locked_policy_extends: now.locked_policy_extends - then.locked_policy_extends,
        writeback_batches: now.writeback_batches - then.writeback_batches,
        writeback_requests: now.writeback_requests - then.writeback_requests,
        wal_records: now.wal_records - then.wal_records,
        wal_flushes: now.wal_flushes - then.wal_flushes,
        // A high-water mark, not a counter.
        wal_max_batch: now.wal_max_batch,
        wal_backpressure_parks: now.wal_backpressure_parks - then.wal_backpressure_parks,
    }
}

/// Per-operation wall time of the traced and of the untraced groups of a
/// traced loop: the fast decile of the groups of each kind.
fn group_ns_per_op(r: &LoopResult) -> (f64, f64) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let strides = r.checks.len() - 1;
    for g in 0..strides / TRACE_GROUP_STRIDES {
        let (a, b) = (g * TRACE_GROUP_STRIDES, (g + 1) * TRACE_GROUP_STRIDES);
        let ns = (r.checks[b].wall_ns - r.checks[a].wall_ns) as f64
            / (r.checks[b].acks - r.checks[a].acks) as f64;
        if r.checks[b].traced {
            traced.push(ns);
        } else {
            untraced.push(ns);
        }
    }
    assert!(
        !traced.is_empty() && !untraced.is_empty(),
        "the traced loop was too short to alternate: {strides} strides"
    );
    (
        stats::fast_decile(&traced, false),
        stats::fast_decile(&untraced, false),
    )
}

/// The traced run: every per-layer metric.
pub fn run_traced(kind: SvcKind, seed: u64, seconds: u64, trace_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::new(name(kind));
    out.zero_per_layer();
    let cfg = svc::fs_config();
    let pair_ns = Tracer::pair_cost_ns();
    let gen_ns = gen_ns_per_op(kind, seed);
    out.set("workloads.gen_ns_per_op", gen_ns);
    let (encode_ns, decode_ns) = codec_ns_per_frame(kind, seed);
    out.set("server.encode_ns_per_frame", encode_ns);
    out.set("server.decode_ns_per_frame", decode_ns);

    // The server loop, traced and untraced groups alternating.
    let pass = engine::pass(&cfg, &svc::setup_ops(kind), 0, &mut Tracer::new(false));
    let server = svc::start_server(pass.fs);
    let before = svc::counters(&server);
    let mut sessions = Sessions::new(kind, seed);
    let mut tracer = Tracer::new(false);
    let r = svc::closed_loop(
        &server,
        &mut sessions,
        Duration::from_secs_f64(seconds as f64 * TRACED_LOOP_SHARE),
        Tracing::Alternate {
            strides: TRACE_GROUP_STRIDES,
        },
        &mut tracer,
    );
    header(&mut out, &r);
    server.shutdown();
    let after = svc::counters(&server);
    let ops = r.latencies.len() as f64;
    out.set("bench.ops", ops);
    out.set("bench.spans", tracer.spans().len() as f64);

    let (traced_ns, untraced_ns) = group_ns_per_op(&r);
    out.set("bench.traced_ns_per_op", traced_ns);
    out.set("bench.trace_overhead_frac", traced_ns / untraced_ns - 1.0);
    let totals = span::totals_by_name(tracer.spans());
    let span_total = |n: &str| totals.get(n).map_or(0, |t| t.total_ns) as f64;
    let traced_acks: usize = (1..r.checks.len())
        .filter(|&i| r.checks[i].traced)
        .map(|i| r.checks[i].acks - r.checks[i - 1].acks)
        .sum();
    let traced_acks = traced_acks as f64;
    out.set(
        "server.submit_ns_per_op",
        ratio(
            span_total("submit"),
            totals.get("submit").map_or(0, |t| t.count) as f64,
        ),
    );
    out.set(
        "server.reap_ns_per_op",
        ratio(span_total("reap"), traced_acks),
    );
    out.set(
        "bench.driver_busy_frac",
        ratio(
            span_total("submit") + span_total("reap") + gen_ns * traced_acks,
            traced_ns * traced_acks,
        ),
    );
    let s = &after.server;
    out.set(
        "server.queue_parks",
        (s.queue_parks - before.server.queue_parks) as f64,
    );
    out.set("server.queue_max_depth", s.queue_max_depth as f64);
    out.set(
        "server.admission_parks",
        (s.admission_parks - before.server.admission_parks) as f64,
    );
    out.set("server.sessions", s.sessions as f64);
    out.set("server.rejected", s.rejected as f64);
    let mut sorted = r.latencies.clone();
    sorted.sort_unstable();
    if let Some(p999) = stats::tail_percentile(&sorted, 0.999) {
        out.set("server.ack_p999_us", p999 as f64 / 1e3);
    }
    let contention = contention_since(&after.fs.contention, &before.fs.contention);
    set_core_counters(&mut out, &contention, ops);
    set_disk_counters(&mut out, &after.fs.io.since(&before.fs.io), r.read_blocks);

    let fs = server.into_fs();
    fs.sync();
    let run_image = fs.metrics();
    out.set(
        "mds.wal_image_mib",
        fs.wal_image().len() as f64 / engine::MIB,
    );
    verify::wal_covers_acked_writes(&mut out, &fs, acked_writes(kind, seed, &r));
    let mut quiet = verify::fs_image_is_clean(&mut out, fs);
    let mds = quiet.mds();
    out.set("mds.journal_records", mds.journal_records() as f64);
    out.set(
        "mds.disk_accesses_per_op",
        ratio(
            mds.disk_stats().dispatched as f64,
            mds.op_stats().total_ops() as f64,
        ),
    );
    drop(quiet);

    // One layer deeper each time: the same sessions on the engine alone,
    // then each layer below it alone.
    let commit_every = ratio(contention.wal_records as f64, contention.wal_flushes as f64)
        .round()
        .max(1.0) as u64;
    let ops_list = replay_ops(kind, seed, r.sessions_done, commit_every);
    let loop_spans = tracer.spans().len();
    tracer.set_enabled(true);
    let replay = engine::pass(&cfg, &ops_list, 0, &mut tracer);
    let (m0, m1) = (replay.marks[0], replay.marks[1]);
    let replay_ops_n = (m1.ops - m0.ops) as f64;
    // The same operations in the same order build the same file system.
    let replay_image = replay.fs.metrics();
    out.check(
        "replay_repeats_the_run",
        replay_ops_n == ops
            && (replay_image.extents, replay_image.blocks) == (run_image.extents, run_image.blocks),
        format!(
            "{replay_ops_n} operations replayed, {ops} acked; {} extents over {} blocks replayed, {} over {} in the run",
            replay_image.extents, replay_image.blocks, run_image.extents, run_image.blocks
        ),
    );
    let replay_totals = span::totals_by_name(&tracer.spans()[loop_spans..]);
    // Every call between the two marks was a span.
    let timed_spans = ops_list
        .iter()
        .skip_while(|o| **o != EngOp::Mark)
        .filter(|o| **o != EngOp::Mark)
        .count() as f64;
    let engine_ns = ((m1.wall_ns - m0.wall_ns) as f64 - pair_ns * timed_spans) / replay_ops_n;
    set_core_span_metrics(&mut out, &replay_totals, pair_ns);
    drop(replay);

    let logs = leaf::prepass(&cfg, &ops_list);
    let leaf_times = logs.time_layers(commit_every);
    let leaf_ns = set_leaf_metrics(&mut out, &leaf_times, replay_ops_n);
    let server_self = self_time(untraced_ns, engine_ns);
    let core_self = self_time(engine_ns, leaf_ns);
    out.set("server.self_ns_per_op", server_self.unwrap_or(0.0));
    out.set("core.self_ns_per_op", core_self.unwrap_or(0.0));
    out.set(
        "bench.layer_self_sum_ns_per_op",
        server_self.unwrap_or(0.0) + core_self.unwrap_or(0.0) + leaf_ns,
    );
    out.check(
        "replay_self_times_are_not_negative",
        server_self.is_some() && core_self.is_some(),
        format!(
            "per op: server loop {untraced_ns:.0} ns, engine replay {engine_ns:.0} ns, layers below {leaf_ns:.0} ns"
        ),
    );

    verify::trace_is_written(&mut out, trace_dir, tracer.spans());
    out
}
