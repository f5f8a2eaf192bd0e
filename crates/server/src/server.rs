//! The service front-end: worker shards over [`ConcurrentFs`].
//!
//! [`Server::start`] spawns `workers` shard threads, each owning one
//! bounded frame queue. A client maps to the shard `client_id % workers`,
//! so all of its frames land in one queue drained by one worker — the
//! transport preserves per-client program order by construction.
//!
//! The worker loop drains a batch, decodes each frame, and asks the
//! client's session what to do ([`Dispatch`]): a next-in-order request
//! executes on the engine, a duplicate is answered from the replay cache
//! without touching the engine, a gap is refused. The batch's acks are
//! then issued under the **durability contract**:
//!
//! 1. every executed write staged its WAL record via
//!    `try_write_journaled`, and the worker remembers the highest seqno;
//! 2. one [`ConcurrentFs::wal_commit`] on that seqno blocks until the
//!    group-commit WAL reports the whole batch durable (one merged flush
//!    amortized across every worker committing concurrently);
//! 3. the worker then checks [`ConcurrentFs::wal_frozen`]. Frozen means a
//!    simulated power cut tore the very flush this batch rode — the media
//!    stopped at the crash instant even though the in-memory protocol ran
//!    on. The worker declares the server **dead**: queues close, parked
//!    submitters fail, and — critically — *none* of this batch's acks are
//!    issued. `GroupCommitWal`'s flush leader stores its `frozen` flag
//!    (Release) before it advances the durable counter (Release), and a
//!    commit returns only after an Acquire load of that counter covers
//!    its record — so the frozen check, one Acquire load, always sees a
//!    tear of the flush this batch rode: an ack can never be issued for
//!    a record the media lost.
//!
//! Acks are delivered into per-session inboxes (stamped with the server
//! clock); replayed duplicates carry their original execution's ack time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mif_alloc::{FileId, StreamId};
use mif_core::{ConcurrentFs, OpenFile};

use crate::protocol::{
    decode_request, encode_request_into, ClientId, Op, Reply, Request, SeqNo, Status,
    MAX_NAME_BYTES,
};
use crate::queue::{BoundedQueue, FrameBatch};
use crate::session::{Dispatch, Session, SessionTable};

/// Tunables of the service layer (engine tunables live in `FsConfig`).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker shards (and request queues).
    pub workers: usize,
    /// Frames one queue holds before pushes park.
    pub queue_capacity: usize,
    /// Per-client in-flight cap: requests admitted but not yet acked.
    pub admission_window: usize,
    /// Replies cached per session for duplicate replay.
    pub replay_cache: usize,
    /// Frames a worker drains per queue visit.
    pub batch: usize,
    /// Artificial stall per executed request (backpressure tests model a
    /// slow shard with this; 0 in production and benches).
    pub worker_delay_ns: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 1024,
            admission_window: 32,
            replay_cache: 64,
            batch: 64,
            worker_delay_ns: 0,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is dead (shut down, or killed by a simulated power cut).
    ServerDead,
    /// A `Create` / `Open` name of more than [`MAX_NAME_BYTES`]: no frame
    /// can carry it. Refused before admission, so it costs the client
    /// neither a window slot nor a `seq_no`.
    NameTooLong { len: usize },
}

/// Aggregate service counters (the bench's evidence block).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests executed on the engine (exactly-once effects).
    pub executed: u64,
    /// Duplicates answered from the replay cache (engine untouched).
    pub dup_replays: u64,
    /// Duplicates/violations refused (`TooOld` / `SeqGap`) and frames
    /// that failed checksum or decode.
    pub rejected: u64,
    /// Acks issued.
    pub acks: u64,
    /// Times a submitter parked on a full request queue.
    pub queue_parks: u64,
    /// High-water mark across the request queues.
    pub queue_max_depth: u64,
    /// Times a submitter parked on a full admission window.
    pub admission_parks: u64,
    /// Sessions ever created.
    pub sessions: u64,
    /// The WAL durable watermark at snapshot time.
    pub wal_durable: u64,
}

/// Reply delivery deferred to after the batch's durability gate. The
/// *application* of an executed request (its `last_applied` advance and
/// replay-cache entry) already happened at execute time via
/// [`Session::mark_applied`]; only the ack itself waits for the gate.
enum PendingAck {
    /// Freshly executed: ack it, stamped with the post-durability clock.
    New {
        session: Arc<Session>,
        client_id: ClientId,
        seq_no: SeqNo,
        status: Status,
    },
    /// A duplicate: replay the cache at delivery time (so an in-batch
    /// duplicate sees its original's final ack stamp).
    Replay {
        session: Arc<Session>,
        client_id: ClientId,
        seq_no: SeqNo,
    },
    /// A refusal (`TooOld` / `SeqGap`): inbox only, nothing recorded.
    Refuse {
        session: Arc<Session>,
        client_id: ClientId,
        seq_no: SeqNo,
        status: Status,
    },
}

/// The running service. See the module docs for the protocol.
pub struct Server {
    fs: ConcurrentFs,
    cfg: ServerConfig,
    queues: Vec<Arc<BoundedQueue>>,
    /// A connection resolves its session here once, at connect.
    pub(crate) sessions: SessionTable,
    /// Set on shutdown or power-cut death; checked by submitters, parked
    /// admission waits, and reapers.
    pub(crate) dead: AtomicBool,
    epoch: Instant,
    workers: Mutex<Vec<JoinHandle<()>>>,
    submitted: AtomicU64,
    executed: AtomicU64,
    dup_replays: AtomicU64,
    rejected: AtomicU64,
    acks: AtomicU64,
}

impl Server {
    /// Start the service over `fs`: spawns the worker shards and returns
    /// the shared handle clients submit through.
    pub fn start(fs: ConcurrentFs, cfg: ServerConfig) -> Arc<Server> {
        assert!(cfg.workers > 0, "a server needs at least one worker");
        let server = Arc::new(Server {
            fs,
            cfg,
            queues: (0..cfg.workers)
                .map(|_| Arc::new(BoundedQueue::new(cfg.queue_capacity)))
                .collect(),
            sessions: SessionTable::new(cfg.replay_cache),
            dead: AtomicBool::new(false),
            epoch: Instant::now(),
            workers: Mutex::new(Vec::new()),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dup_replays: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            acks: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(cfg.workers);
        for shard in 0..cfg.workers {
            let srv = Arc::clone(&server);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mif-server-{shard}"))
                    .spawn(move || srv.worker_loop(shard))
                    .expect("spawn worker"),
            );
        }
        *server.workers.lock().unwrap() = handles;
        server
    }

    /// Nanoseconds on the server clock — the shared timeline `sent_at_ns`
    /// and `acked_at_ns` are stamped from.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Is the server dead (shut down or power-cut)?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Submit one request: admission-controlled (parks while the client's
    /// in-flight window is full), framed, and enqueued on the client's
    /// shard. Never drops and never reorders a client's requests — a full
    /// queue parks the submitter until the worker frees space.
    pub fn submit(&self, req: &Request) -> Result<(), SubmitError> {
        self.submit_with(&self.sessions.session(req.client_id), req, &mut Vec::new())
    }

    /// [`Self::submit`] for a caller that holds `req.client_id`'s session
    /// and keeps a buffer to encode into: no table lookup, and no
    /// allocation once `frame` has held a frame as long (the queue copies
    /// it).
    pub(crate) fn submit_with(
        &self,
        session: &Session,
        req: &Request,
        frame: &mut Vec<u8>,
    ) -> Result<(), SubmitError> {
        if let Some(len) = req.op.name().map(str::len).filter(|&n| n > MAX_NAME_BYTES) {
            return Err(SubmitError::NameTooLong { len });
        }
        if self.is_dead() || !session.admit(self.cfg.admission_window, &self.dead) {
            return Err(SubmitError::ServerDead);
        }
        encode_request_into(frame, req);
        let shard = (req.client_id % self.queues.len() as u64) as usize;
        self.queues[shard]
            .push(frame)
            .map_err(|_| SubmitError::ServerDead)?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reap the acks delivered to `client_id`'s inbox, in delivery order.
    /// With `wait`, parks until at least one ack exists or the server
    /// dies.
    pub fn take_acks(&self, client_id: ClientId, wait: bool) -> Vec<Reply> {
        self.sessions.session(client_id).take_acks(wait, &self.dead)
    }

    /// Highest applied seq_no for `client_id` (verification hook).
    pub fn last_applied(&self, client_id: ClientId) -> SeqNo {
        self.sessions.session(client_id).last_applied()
    }

    /// Stop accepting work, drain the queues, join the workers. Idempotent.
    pub fn shutdown(&self) {
        for q in &self.queues {
            q.close();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            h.join().expect("worker panicked");
        }
        self.dead.store(true, Ordering::Release);
    }

    /// Shut down and hand the engine back (for quiesced verification:
    /// `into_engine()`, fsck, serial-replay comparison).
    pub fn into_fs(self: Arc<Server>) -> ConcurrentFs {
        self.shutdown();
        match Arc::try_unwrap(self) {
            Ok(s) => s.fs,
            Err(_) => panic!("into_fs with outstanding Server handles"),
        }
    }

    /// The engine, for read-side verification while the server runs.
    pub fn fs(&self) -> &ConcurrentFs {
        &self.fs
    }

    /// Drain the engine's lock-free access recorder: one
    /// `(file, reads, writes)` delta per file touched since the last
    /// drain. The tiering engine feeds these to its heat classifier
    /// (`TierEngine::observe`) — callable while requests are in flight,
    /// since the recorder is swap-based and never blocks the data path.
    pub fn heat_feed(&self) -> Vec<(OpenFile, u64, u64)> {
        self.fs.drain_access()
    }

    /// Aggregate service counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            dup_replays: self.dup_replays.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            acks: self.acks.load(Ordering::Relaxed),
            queue_parks: self.queues.iter().map(|q| q.parks()).sum(),
            queue_max_depth: self.queues.iter().map(|q| q.max_depth()).max().unwrap_or(0),
            admission_parks: self.sessions.total_admission_parks(),
            sessions: self.sessions.len() as u64,
            wal_durable: self.fs.wal_durable_watermark(),
        }
    }

    // ----- the worker shard ----------------------------------------------

    fn worker_loop(&self, shard: usize) {
        // The worker's own buffer: every batch is drained into it.
        let mut batch = FrameBatch::default();
        loop {
            self.queues[shard].pop_batch(self.cfg.batch, &mut batch);
            if batch.is_empty() {
                return; // closed and drained
            }
            if !self.execute_batch(&batch) {
                return; // power cut: the server died under us
            }
        }
    }

    /// Execute one drained batch and issue its acks under the durability
    /// gate. Returns `false` if a power cut killed the server (no acks
    /// were issued for this batch).
    fn execute_batch(&self, batch: &FrameBatch) -> bool {
        let mut pending: Vec<PendingAck> = Vec::with_capacity(batch.len());
        // Highest WAL seqno staged by this batch's writes, if any.
        let mut max_wal_seq: Option<u64> = None;
        // The session of the current run of frames from one client: the
        // table is consulted once per run, not once per frame.
        let mut run: Option<(ClientId, Arc<Session>)> = None;
        for frame in batch.iter() {
            let Ok(req) = decode_request(frame) else {
                // Frames are checksummed end-to-end; a decode failure has
                // no trustworthy client to answer.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if self.cfg.worker_delay_ns > 0 {
                std::thread::sleep(Duration::from_nanos(self.cfg.worker_delay_ns));
            }
            let session = match &run {
                Some((id, s)) if *id == req.client_id => Arc::clone(s),
                _ => Arc::clone(
                    &run.insert((req.client_id, self.sessions.session(req.client_id)))
                        .1,
                ),
            };
            match session.dispatch(req.seq_no) {
                Dispatch::Execute => {
                    let status = self.apply(&req.op, req.client_id, &mut max_wal_seq);
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    // Applied now (so the batch's next request dispatches
                    // against it); acked only after the durability gate.
                    session.mark_applied(Reply {
                        client_id: req.client_id,
                        seq_no: req.seq_no,
                        status,
                        acked_at_ns: 0,
                    });
                    pending.push(PendingAck::New {
                        session,
                        client_id: req.client_id,
                        seq_no: req.seq_no,
                        status,
                    });
                }
                Dispatch::Replay(_) => {
                    self.dup_replays.fetch_add(1, Ordering::Relaxed);
                    pending.push(PendingAck::Replay {
                        session,
                        client_id: req.client_id,
                        seq_no: req.seq_no,
                    });
                }
                Dispatch::TooOld => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    pending.push(PendingAck::Refuse {
                        session,
                        client_id: req.client_id,
                        seq_no: req.seq_no,
                        status: Status::TooOld,
                    });
                }
                Dispatch::Gap => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    pending.push(PendingAck::Refuse {
                        session,
                        client_id: req.client_id,
                        seq_no: req.seq_no,
                        status: Status::SeqGap,
                    });
                }
            }
        }
        // The durability gate: one commit covers every write this batch
        // staged (group commit coalesces the flush across workers), then
        // the frozen check decides whether the media actually took it.
        if let Some(seq) = max_wal_seq {
            self.fs.wal_commit(seq);
            if self.fs.wal_frozen() {
                // Power cut mid-flush. The media image stopped before (or
                // inside) the flush this batch rode; acking now could
                // acknowledge a write recovery will not see. The server
                // dies with the batch unacked.
                self.dead.store(true, Ordering::Release);
                for q in &self.queues {
                    q.close();
                }
                return false;
            }
        }
        let now = self.now_ns();
        // Count BEFORE delivering: a client that drains its last ack may
        // be observed (stats read) the instant `deliver_*` wakes it, and
        // the counter must already cover the ack it just saw.
        self.acks.fetch_add(pending.len() as u64, Ordering::Relaxed);
        for p in pending {
            match p {
                PendingAck::New {
                    session,
                    client_id,
                    seq_no,
                    status,
                } => session.deliver_applied(Reply {
                    client_id,
                    seq_no,
                    status,
                    acked_at_ns: now,
                }),
                PendingAck::Replay {
                    session,
                    client_id,
                    seq_no,
                } => session.deliver_replay(client_id, seq_no, now),
                PendingAck::Refuse {
                    session,
                    client_id,
                    seq_no,
                    status,
                } => session.deliver_again(Reply {
                    client_id,
                    seq_no,
                    status,
                    acked_at_ns: now,
                }),
            }
        }
        true
    }

    /// Execute one next-in-order op on the engine. Write ops record their
    /// WAL seqno into `max_wal_seq` for the batch's durability gate.
    fn apply(&self, op: &Op, client_id: ClientId, max_wal_seq: &mut Option<u64>) -> Status {
        match op {
            Op::Create {
                name,
                size_hint_blocks,
            } => {
                let f = self.fs.create(name, *size_hint_blocks);
                Status::Handle(f.0 .0)
            }
            Op::Open { name } => match self.fs.open(name) {
                Some(f) => Status::Handle(f.0 .0),
                None => Status::NotFound,
            },
            Op::Write {
                handle,
                stream,
                offset,
                len,
            } => {
                if *len == 0 {
                    return Status::Invalid;
                }
                let file = OpenFile(FileId(*handle));
                if !self.fs.has_file(file) {
                    return Status::NotFound;
                }
                let sid = StreamId::new(client_id as u32, *stream);
                match self.fs.try_write_journaled(file, sid, *offset, *len) {
                    Ok(seq) => {
                        *max_wal_seq = Some(max_wal_seq.map_or(seq, |m| m.max(seq)));
                        Status::Done
                    }
                    Err((ost, _fault)) => Status::IoError { ost: ost as u32 },
                }
            }
            Op::Read {
                handle,
                stream,
                offset,
                len,
            } => {
                let file = OpenFile(FileId(*handle));
                if *len == 0 || !self.fs.has_file(file) {
                    return Status::NotFound;
                }
                self.fs.read(
                    file,
                    StreamId::new(client_id as u32, *stream),
                    *offset,
                    *len,
                );
                Status::Done
            }
            Op::Sync => match self.fs.try_sync() {
                Ok(()) => Status::Done,
                Err((ost, _fault)) => Status::IoError { ost: ost as u32 },
            },
            Op::Close { handle } => {
                let file = OpenFile(FileId(*handle));
                if !self.fs.has_file(file) {
                    return Status::NotFound;
                }
                self.fs.close(file);
                Status::Done
            }
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.cfg.workers)
            .field("dead", &self.is_dead())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::PolicyKind;
    use mif_core::FsConfig;

    fn engine() -> ConcurrentFs {
        ConcurrentFs::new(FsConfig::with_policy(PolicyKind::OnDemand, 2))
    }

    fn small_cfg() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            admission_window: 8,
            replay_cache: 8,
            batch: 4,
            worker_delay_ns: 0,
        }
    }

    fn req(client: ClientId, seq: SeqNo, op: Op) -> Request {
        Request {
            client_id: client,
            seq_no: seq,
            sent_at_ns: 0,
            op,
        }
    }

    /// Reap until `want` acks have arrived (delivery order).
    fn reap(server: &Server, client: ClientId, want: usize) -> Vec<Reply> {
        let mut got = Vec::new();
        while got.len() < want {
            let acks = server.take_acks(client, true);
            assert!(
                !acks.is_empty() || server.is_dead(),
                "blocking reap returned empty on a live server"
            );
            got.extend(acks);
        }
        got
    }

    #[test]
    fn create_write_sync_close_round_trip() {
        let server = Server::start(engine(), small_cfg());
        server
            .submit(&req(
                1,
                1,
                Op::Create {
                    name: "a.dat".into(),
                    size_hint_blocks: None,
                },
            ))
            .unwrap();
        let acks = reap(&server, 1, 1);
        let Status::Handle(h) = acks[0].status else {
            panic!("create must return a handle, got {:?}", acks[0].status);
        };
        for (seq, op) in [
            (
                2,
                Op::Write {
                    handle: h,
                    stream: 0,
                    offset: 0,
                    len: 8,
                },
            ),
            (3, Op::Sync),
            (4, Op::Close { handle: h }),
        ] {
            server.submit(&req(1, seq, op)).unwrap();
        }
        let acks = reap(&server, 1, 3);
        assert!(acks.iter().all(|a| a.status == Status::Done), "{acks:?}");
        assert_eq!(
            acks.iter().map(|a| a.seq_no).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "acks arrive in program order"
        );
        let fs = server.into_fs();
        assert_eq!(fs.file_size(OpenFile(FileId(h))), 8);
    }

    #[test]
    fn request_flow_feeds_the_heat_recorder() {
        let server = Server::start(engine(), small_cfg());
        server
            .submit(&req(
                1,
                1,
                Op::Create {
                    name: "hot.dat".into(),
                    size_hint_blocks: None,
                },
            ))
            .unwrap();
        let Status::Handle(h) = reap(&server, 1, 1)[0].status else {
            panic!()
        };
        for seq in 2..8 {
            server
                .submit(&req(
                    1,
                    seq,
                    Op::Write {
                        handle: h,
                        stream: 0,
                        offset: (seq - 2) * 4,
                        len: 4,
                    },
                ))
                .unwrap();
        }
        reap(&server, 1, 6);
        let feed = server.heat_feed();
        let mine = feed
            .iter()
            .find(|&&(f, ..)| f == OpenFile(FileId(h)))
            .expect("served writes must appear in the heat feed");
        assert!(mine.2 >= 6, "six writes recorded, got {mine:?}");
        // The drain is destructive: a quiet interval reads back empty.
        assert!(server.heat_feed().is_empty());
        server.shutdown();
    }

    #[test]
    fn write_ack_implies_wal_durability() {
        let server = Server::start(engine(), small_cfg());
        server
            .submit(&req(
                1,
                1,
                Op::Create {
                    name: "d.dat".into(),
                    size_hint_blocks: None,
                },
            ))
            .unwrap();
        let Status::Handle(h) = reap(&server, 1, 1)[0].status else {
            panic!()
        };
        server
            .submit(&req(
                1,
                2,
                Op::Write {
                    handle: h,
                    stream: 0,
                    offset: 0,
                    len: 4,
                },
            ))
            .unwrap();
        let ack = reap(&server, 1, 1);
        assert_eq!(ack[0].status, Status::Done);
        // The contract: by the time the write's ack exists, its record is
        // under the durable watermark.
        assert!(
            server.fs().wal_durable_watermark() >= 1,
            "acked write not covered by the durable watermark"
        );
        server.shutdown();
    }

    #[test]
    fn duplicate_resend_replays_without_reexecution() {
        let server = Server::start(engine(), small_cfg());
        let create = req(
            9,
            1,
            Op::Create {
                name: "dup.dat".into(),
                size_hint_blocks: None,
            },
        );
        server.submit(&create).unwrap();
        let first = reap(&server, 9, 1)[0];
        // The client "loses" the ack and re-sends the same request.
        server.submit(&create).unwrap();
        let second = reap(&server, 9, 1)[0];
        assert_eq!(first, second, "replay must return the original reply");
        let stats = server.stats();
        assert_eq!(stats.executed, 1, "the duplicate must not re-execute");
        assert_eq!(stats.dup_replays, 1);
        // Exactly one file exists.
        let fs = server.into_fs();
        assert!(fs.open("dup.dat").is_some());
    }

    #[test]
    fn seq_gap_is_refused_without_execution() {
        let server = Server::start(engine(), small_cfg());
        server.submit(&req(3, 5, Op::Sync)).unwrap();
        let acks = reap(&server, 3, 1);
        assert_eq!(acks[0].status, Status::SeqGap);
        assert_eq!(server.stats().executed, 0);
        server.shutdown();
    }

    #[test]
    fn ops_on_unknown_handles_are_not_found() {
        let server = Server::start(engine(), small_cfg());
        server
            .submit(&req(
                4,
                1,
                Op::Write {
                    handle: 999,
                    stream: 0,
                    offset: 0,
                    len: 4,
                },
            ))
            .unwrap();
        server
            .submit(&req(
                4,
                2,
                Op::Open {
                    name: "nope".into(),
                },
            ))
            .unwrap();
        let acks = reap(&server, 4, 2);
        assert_eq!(acks[0].status, Status::NotFound);
        assert_eq!(acks[1].status, Status::NotFound);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let server = Server::start(engine(), small_cfg());
        server.shutdown();
        server.shutdown();
        assert!(server.is_dead());
        assert_eq!(
            server.submit(&req(1, 1, Op::Sync)),
            Err(SubmitError::ServerDead)
        );
    }
}
