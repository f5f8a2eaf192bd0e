//! The two service workloads: a closed loop of simulated sessions through
//! `mif-server`.
//!
//! One driver thread multiplexes [`ACTIVE`] sessions into a server with one
//! worker, so the process has two busy threads on a two-core host and
//! neither sleeps per request. The sessions take turns; see [`closed_loop`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mif_alloc::{PolicyKind, StreamId};
use mif_core::{ConcurrentFs, FsConfig, OpenFile};
use mif_mds::DirMode;
use mif_server::{ClientConn, Op, Server, ServerConfig, ServerStats, Status};

use crate::engine::EngOp;
use crate::host::{self, CpuClock};
use crate::plan::{self, Session, Sessions, Step, SvcKind};
use crate::span::{SpanId, Tracer};

/// Sessions the driver keeps active at once.
pub const ACTIVE: usize = 16;
pub use crate::plan::WINDOW;
/// Server worker threads. With the driver that makes two OS threads.
pub const WORKERS: usize = 1;
pub const OSTS: u32 = 4;
const STRIPE_BLOCKS: u64 = 32;
/// Acks between two readings of the wall and CPU clocks.
pub const CHECK_STRIDE: usize = 4096;
/// Acks after which the resident set is read: memory at a fixed amount of
/// work, so that a faster program is not charged for getting more done in
/// the same time.
pub const RSS_AT_ACKS: usize = 1 << 20;
/// Writer streams that interleave on each file while it is populated.
const POPULATE_STREAMS: u64 = 16;
const POPULATE_REQUEST_BLOCKS: u64 = 4;

/// The system under test is MiF as the paper ships it.
pub fn fs_config() -> FsConfig {
    let mut cfg = FsConfig::with_modes(PolicyKind::OnDemand, OSTS, DirMode::Embedded);
    cfg.stripe_blocks = STRIPE_BLOCKS;
    cfg
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_capacity: 1024,
        // Twice the client window: admission never parks a session that
        // keeps to its window.
        admission_window: 2 * WINDOW,
        // Nothing is re-sent here; keep the 100k sessions small.
        replay_cache: 4,
        batch: 64,
        worker_delay_ns: 0,
    }
}

/// The operations that build the file population. `svc_restart_mixed`
/// also fills every file: [`POPULATE_STREAMS`] streams extend their own
/// region of the file in turn, the paper's interleaved-arrival pattern.
pub fn setup_ops(kind: SvcKind) -> Vec<EngOp> {
    let mut ops = Vec::new();
    for file in 0..plan::FILES as u32 {
        ops.push(EngOp::Create { file });
        if kind == SvcKind::RestartMixed {
            let region = plan::RESTART_FILE_BLOCKS / POPULATE_STREAMS;
            for at in (0..region).step_by(POPULATE_REQUEST_BLOCKS as usize) {
                for s in 0..POPULATE_STREAMS {
                    ops.push(EngOp::Write {
                        file,
                        stream: StreamId::new(s as u32, 1),
                        offset: s * region + at,
                        len: POPULATE_REQUEST_BLOCKS,
                    });
                }
            }
        }
        ops.push(EngOp::Close { file });
    }
    ops.push(EngOp::Sync);
    ops
}

pub fn start_server(fs: ConcurrentFs) -> Arc<Server> {
    Server::start(fs, server_config())
}

/// A reading of the clocks after some number of acks.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Acks seen so far.
    pub acks: usize,
    pub wall_ns: u64,
    pub cpu_us: u64,
    /// Was the tracer recording during the stride that ends here?
    pub traced: bool,
}

/// Everything the closed loop measured.
pub struct LoopResult {
    /// `acked_at_ns - sent_at_ns` of every ack, in the order the driver
    /// saw them.
    pub latencies: Vec<u64>,
    /// Clock readings: one before the first submit, then one about every
    /// [`CHECK_STRIDE`] acks.
    pub checks: Vec<Check>,
    /// Requests submitted, plus those a session could not send because its
    /// open had failed.
    pub attempted: u64,
    /// Replies that were not `ok`, plus requests never sent or never acked.
    pub failed: u64,
    pub sessions_done: u64,
    pub writes_ok: u64,
    pub reads_ok: u64,
    pub syncs_ok: u64,
    /// Blocks written and read by acked requests.
    pub write_blocks: u64,
    pub read_blocks: u64,
    /// Peak resident set after [`RSS_AT_ACKS`] acks (at the end of the
    /// loop if it acked fewer).
    pub rss_mib: f64,
    pub threads_seen: u64,
    /// Wall time of the whole loop.
    pub wall_ns: u64,
    /// The handle the server gave out for each file of the population.
    pub handle_of: Vec<Option<u64>>,
}

struct Slot {
    conn: ClientConn,
    plan: Session,
    handle: Option<u64>,
    /// The step after the last submitted one, taken from the plan early
    /// so the loop can look at it before it has a handle.
    pending: Option<Step>,
    /// Steps submitted, in order, with their submit stamps.
    sent: VecDeque<(Step, u64)>,
    seen_replies: usize,
    span: SpanId,
    broken: bool,
}

impl Slot {
    fn connect(server: &Arc<Server>, mut plan: Session, tracer: &mut Tracer) -> Slot {
        let pending = plan.next_step();
        Slot {
            conn: ClientConn::connect(Arc::clone(server), plan.id, WINDOW, false),
            span: tracer.begin("session", 0, plan.id),
            plan,
            handle: None,
            pending,
            sent: VecDeque::with_capacity(WINDOW),
            seen_replies: 0,
            broken: false,
        }
    }
}

pub fn to_op(step: Step, file: u64, handle: Option<u64>) -> Op {
    let h = || handle.expect("open acked before the first data op");
    match step {
        Step::Open => Op::Open {
            name: plan::file_name(file),
        },
        Step::Write { offset, len } => Op::Write {
            handle: h(),
            stream: 0,
            offset,
            len,
        },
        Step::Read { offset, len } => Op::Read {
            handle: h(),
            stream: 0,
            offset,
            len,
        },
        Step::Sync => Op::Sync,
        Step::Close => Op::Close { handle: h() },
    }
}

/// How the tracer is switched during the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Record during every second group of `strides` strides, so traced
    /// and untraced epochs alternate on the same, growing server state.
    Alternate {
        strides: usize,
    },
}

/// The driver's bookkeeping while the loop runs.
struct Driver<'a> {
    r: LoopResult,
    tracer: &'a mut Tracer,
    tracing: Tracing,
    start: Instant,
    cpu: CpuClock,
}

impl Driver<'_> {
    fn check(&mut self, traced: bool) {
        self.r.checks.push(Check {
            acks: self.r.latencies.len(),
            wall_ns: self.start.elapsed().as_nanos() as u64,
            cpu_us: self.cpu.read_us(),
            traced,
        });
    }

    /// Poll the session's inbox once, without blocking, and account for
    /// the acks it brought. A poll that brought nothing is not a span; its
    /// time stays in the session's self time.
    fn poll(&mut self, slot: &mut Slot) {
        let reap = self.tracer.begin("reap", slot.span, slot.plan.id);
        assert!(slot.conn.reap(false), "server died mid-run");
        let replies = slot.conn.replies();
        if replies.len() == slot.seen_replies {
            self.tracer.cancel(reap);
            return;
        }
        let r = &mut self.r;
        for reply in &replies[slot.seen_replies..] {
            let (step, sent_at) = slot.sent.pop_front().expect("a reply per request");
            r.latencies.push(reply.acked_at_ns.saturating_sub(sent_at));
            match (step, reply.status) {
                (Step::Open, Status::Handle(h)) => {
                    slot.handle = Some(h);
                    r.handle_of[slot.plan.file as usize] = Some(h);
                }
                (Step::Write { len, .. }, Status::Done) => {
                    r.writes_ok += 1;
                    r.write_blocks += len;
                }
                (Step::Read { len, .. }, Status::Done) => {
                    r.reads_ok += 1;
                    r.read_blocks += len;
                }
                (Step::Sync, Status::Done) => r.syncs_ok += 1,
                (Step::Close, Status::Done) => {}
                _ => {
                    r.failed += 1;
                    // Without a handle the rest cannot be sent.
                    slot.broken |= step == Step::Open;
                }
            }
            if r.latencies.len() == RSS_AT_ACKS {
                r.rss_mib = host::peak_rss_mib();
            }
        }
        slot.seen_replies = replies.len();
        self.tracer.end(reap);
        // Clock readings fall on the first poll past a stride boundary, so
        // a stride is CHECK_STRIDE acks give or take a burst.
        let acked = self.r.latencies.len();
        if acked / CHECK_STRIDE >= self.r.checks.len() {
            let traced = self.tracer.enabled();
            self.check(traced);
            if let Tracing::Alternate { strides } = self.tracing {
                self.tracer
                    .set_enabled((self.r.checks.len() - 1) / strides % 2 == 1);
            }
        }
    }

    /// Send the session's next burst: up to `limit` steps, an `Open` alone
    /// because what follows needs its handle.
    fn burst(&mut self, slot: &mut Slot, limit: usize) {
        while let Some(step) = slot.pending {
            if slot.sent.len() >= limit || (step != Step::Open && slot.handle.is_none()) {
                break;
            }
            let op = to_op(step, slot.plan.file, slot.handle);
            let submit = self.tracer.begin("submit", slot.span, slot.plan.id);
            slot.conn.submit(op).expect("server died mid-run");
            self.tracer.end(submit);
            let sent_at = slot
                .conn
                .unacked()
                .last()
                .expect("just submitted")
                .sent_at_ns;
            slot.sent.push_back((step, sent_at));
            self.r.attempted += 1;
            slot.pending = slot.plan.next_step();
        }
    }

    fn finish(&mut self, slot: &Slot) {
        self.tracer.end(slot.span);
        self.r.sessions_done += 1;
        // Steps never sent because the open failed.
        let unsent = slot.plan.len() - slot.seen_replies as u64;
        self.r.attempted += unsent;
        self.r.failed += unsent;
    }
}

/// Run the closed loop for `budget`, then let the active sessions finish.
///
/// The sessions take turns in a fixed order. In its turn a session first
/// waits (polling, never sleeping) until its previous burst is acked, then
/// sends its next burst, of a seeded size up to its window. The other fifteen bursts are queued at the worker
/// meanwhile, and the one waited for is the oldest of them, so the wait is
/// short and the worker never runs dry. What this buys: the order in which
/// the worker sees the requests depends on the seed alone, not on when acks
/// happen to arrive, so the simulated results of a run repeat, and the
/// layer replays see exactly the run's order.
pub fn closed_loop(
    server: &Arc<Server>,
    sessions: &mut Sessions,
    budget: Duration,
    tracing: Tracing,
    tracer: &mut Tracer,
) -> LoopResult {
    tracer.set_enabled(false);
    let mut d = Driver {
        r: LoopResult {
            latencies: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            sessions_done: 0,
            writes_ok: 0,
            reads_ok: 0,
            syncs_ok: 0,
            write_blocks: 0,
            read_blocks: 0,
            rss_mib: 0.0,
            threads_seen: host::threads(),
            wall_ns: 0,
            handle_of: vec![None; plan::FILES as usize],
        },
        tracer,
        tracing,
        start: Instant::now(),
        cpu: CpuClock::new(),
    };
    let deadline = d.start + budget;
    d.check(false);
    let mut slots: Vec<Option<Slot>> = (0..ACTIVE)
        .map(|_| Some(Slot::connect(server, sessions.next_session(), d.tracer)))
        .collect();
    let mut admitting = true;
    while slots.iter().any(Option::is_some) {
        for entry in slots.iter_mut() {
            let Some(slot) = entry else { continue };
            while !slot.sent.is_empty() {
                d.poll(slot);
            }
            if slot.pending.is_none() || slot.broken {
                d.finish(slot);
                admitting &= Instant::now() < deadline;
                *entry =
                    admitting.then(|| Slot::connect(server, sessions.next_session(), d.tracer));
            }
            if let Some(slot) = entry {
                d.burst(slot, sessions.next_burst());
            }
        }
    }
    d.tracer.set_enabled(false);
    let mut r = d.r;
    r.wall_ns = d.start.elapsed().as_nanos() as u64;
    r.threads_seen = r.threads_seen.max(host::threads());
    if r.latencies.len() < RSS_AT_ACKS {
        r.rss_mib = host::peak_rss_mib();
    }
    r
}

/// Counters of the server and the engine, read at the loop's boundaries.
pub struct Counters {
    pub server: ServerStats,
    pub fs: mif_core::FsStats,
}

pub fn counters(server: &Server) -> Counters {
    Counters {
        server: server.stats(),
        fs: server.fs().stats(),
    }
}

/// The restart read-back of `svc_ckpt_write`: every region `(file, first
/// block, blocks)` a session wrote is read back whole, [`ACTIVE`] readers
/// to a round. Returns blocks read and the simulated time it took.
pub fn read_back(fs: &ConcurrentFs, regions: &[(OpenFile, u64, u64)]) -> (u64, u64) {
    let before = fs.data_elapsed_ns();
    let mut blocks = 0;
    for round in regions.chunks(ACTIVE) {
        for (reader, &(file, base, len)) in round.iter().enumerate() {
            fs.read(file, StreamId::new(reader as u32, 2), base, len);
            blocks += len;
        }
        fs.sync();
    }
    (blocks, fs.data_elapsed_ns() - before)
}
