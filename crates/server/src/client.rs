//! A simulated client: windowed pipelining, crash/restart, dup storms.
//!
//! [`ClientConn`] is the client-side half of the protocol contract. It
//! assigns `seq_no`s contiguously from 1, keeps every un-acked request in
//! a send buffer (the *unacked suffix*), and pipelines up to `window`
//! requests before blocking on acks. Because acks arrive in program order
//! (one queue, one worker per client), reaping just matches the inbox
//! against the front of the send buffer.
//!
//! Two failure behaviours drive the test layer:
//!
//! * [`ClientConn::restart`] — the client process "crashes" (losing any
//!   acks it had not reaped) and reconnects with the same `client_id`,
//!   re-sending its entire unacked suffix with the *same* seq_nos. The
//!   server's session table replays what was already applied and executes
//!   only the genuinely new tail — at-least-once delivery, exactly-once
//!   effects.
//! * [`ClientConn::resend_acked`] — a duplicate storm: re-send requests
//!   that were already acknowledged (from the recorded send log). Every
//!   one must come back as a replay or `TooOld`, never a re-execution.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::protocol::{ClientId, Op, Reply, Request, SeqNo, Status};
use crate::server::{Server, SubmitError};
use crate::session::Session;

/// One client connection. See the module docs.
pub struct ClientConn {
    server: Arc<Server>,
    client_id: ClientId,
    /// This client's session, resolved once at connect and kept across
    /// [`Self::restart`] (it is the same table entry): submits and polls
    /// never take the table lock.
    session: Arc<Session>,
    /// Every request is encoded into this one buffer (the queue copies).
    frame: Vec<u8>,
    /// The client-side pipelining window (how many requests may be
    /// outstanding before `submit` blocks reaping). Kept at or below the
    /// server's admission window in the benches so admission parking is
    /// the server's decision, not the client's.
    window: usize,
    next_seq: SeqNo,
    /// Highest seq_no acked (and reaped) so far.
    highest_acked: SeqNo,
    /// Requests submitted but not yet acked, in program order.
    unacked: VecDeque<Request>,
    /// First-ack replies, in program order (the client's view of results).
    replies: Vec<Reply>,
    /// Stale replies absorbed (duplicates of already-acked seq_nos).
    stale_seen: u64,
    /// Full send log for duplicate storms (tests only; `None` keeps the
    /// 100k-client bench's memory flat).
    sent_log: Option<Vec<Request>>,
}

impl ClientConn {
    /// Connect as `client_id` with a pipelining `window` (>= 1).
    /// `record_log` keeps the full send log for [`Self::resend_acked`].
    pub fn connect(
        server: Arc<Server>,
        client_id: ClientId,
        window: usize,
        record_log: bool,
    ) -> Self {
        assert!(window >= 1, "a zero window can never submit");
        ClientConn {
            frame: Vec::new(),
            session: server.sessions.session(client_id),
            server,
            client_id,
            window,
            next_seq: 1,
            highest_acked: 0,
            unacked: VecDeque::new(),
            replies: Vec::new(),
            stale_seen: 0,
            sent_log: record_log.then(Vec::new),
        }
    }

    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// First-ack replies reaped so far, in program order.
    pub fn replies(&self) -> &[Reply] {
        &self.replies
    }

    /// Duplicate replies absorbed (each one a seq_no at or below the
    /// highest already acked).
    pub fn stale_seen(&self) -> u64 {
        self.stale_seen
    }

    /// Requests submitted but not yet acked, in program order.
    pub fn unacked(&self) -> impl Iterator<Item = &Request> {
        self.unacked.iter()
    }

    /// The full send log, in program order — every request with its
    /// submit-time `sent_at_ns` stamp. Needs `record_log = true`; used
    /// by benches to pair sends with acks for end-to-end latency.
    pub fn sent_requests(&self) -> &[Request] {
        self.sent_log
            .as_deref()
            .expect("sent_requests needs record_log = true")
    }

    /// Submit the next op in this client's program. Blocks (reaping)
    /// while the pipelining window is full; never skips or reorders. A
    /// refused op takes no `seq_no`: the next one is sent in its place.
    pub fn submit(&mut self, op: Op) -> Result<SeqNo, SubmitError> {
        while self.unacked.len() >= self.window {
            if !self.reap(true) {
                return Err(SubmitError::ServerDead);
            }
        }
        let req = Request {
            client_id: self.client_id,
            seq_no: self.next_seq,
            sent_at_ns: self.server.now_ns(),
            op,
        };
        self.server
            .submit_with(&self.session, &req, &mut self.frame)?;
        self.next_seq += 1;
        if let Some(log) = &mut self.sent_log {
            log.push(req.clone());
        }
        let seq_no = req.seq_no;
        self.unacked.push_back(req);
        Ok(seq_no)
    }

    /// Absorb whatever acks the server has delivered. With `wait`, parks
    /// for at least one. Returns `false` once the server is dead and the
    /// inbox is empty.
    pub fn reap(&mut self, wait: bool) -> bool {
        let acks = self.session.take_acks(wait, &self.server.dead);
        if acks.is_empty() {
            return !self.server.is_dead();
        }
        for ack in acks {
            if ack.seq_no <= self.highest_acked {
                // A duplicate's answer (replay / TooOld): already settled.
                self.stale_seen += 1;
                continue;
            }
            let front = self
                .unacked
                .front()
                .unwrap_or_else(|| panic!("ack for seq {} with nothing unacked", ack.seq_no));
            assert_eq!(
                ack.seq_no, front.seq_no,
                "acks must arrive in program order"
            );
            self.unacked.pop_front();
            self.highest_acked = ack.seq_no;
            self.replies.push(ack);
        }
        true
    }

    /// Block until every submitted request is acked. Returns `false` if
    /// the server died first (the remaining suffix stays unacked).
    pub fn drain(&mut self) -> bool {
        while !self.unacked.is_empty() {
            if !self.reap(true) {
                return false;
            }
        }
        true
    }

    /// Wait until `n` duplicate answers have been absorbed (after a
    /// [`Self::resend_acked`] storm). Returns `false` if the server died.
    pub fn await_stale(&mut self, n: u64) -> bool {
        while self.stale_seen < n {
            if !self.reap(true) {
                return false;
            }
        }
        true
    }

    /// Crash and reconnect: the process dies losing its un-reaped acks,
    /// then a new connection with the same `client_id` re-sends the whole
    /// unacked suffix (same seq_nos, same ops — the frames are replayed
    /// verbatim from the send buffer). The server replays what it already
    /// applied and executes only the new tail.
    pub fn restart(self) -> Result<ClientConn, SubmitError> {
        let mut conn = ClientConn {
            frame: self.frame,
            server: self.server,
            client_id: self.client_id,
            session: self.session,
            window: self.window,
            next_seq: self.next_seq,
            highest_acked: self.highest_acked,
            unacked: VecDeque::new(),
            replies: self.replies,
            stale_seen: self.stale_seen,
            sent_log: self.sent_log,
        };
        for req in self.unacked {
            conn.server
                .submit_with(&conn.session, &req, &mut conn.frame)?;
            conn.unacked.push_back(req);
        }
        Ok(conn)
    }

    /// Duplicate storm: re-send every already-acked request from the send
    /// log (connect with `record_log = true`). Returns how many went out;
    /// pair with [`Self::await_stale`] to absorb the answers.
    pub fn resend_acked(&mut self) -> Result<u64, SubmitError> {
        let log = self
            .sent_log
            .clone()
            .expect("resend_acked needs record_log = true");
        let mut sent = 0;
        for req in &log {
            if req.seq_no <= self.highest_acked {
                self.server
                    .submit_with(&self.session, req, &mut self.frame)?;
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// Convenience: the handle from the reply to `seq` (a create/open).
    pub fn handle_from(&self, seq: SeqNo) -> Option<u64> {
        self.replies.iter().find(|r| r.seq_no == seq).map(|r| {
            let Status::Handle(h) = r.status else {
                panic!("reply to seq {seq} carries no handle: {:?}", r.status)
            };
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_NAME_BYTES;
    use crate::server::ServerConfig;
    use mif_alloc::PolicyKind;
    use mif_core::{ConcurrentFs, FsConfig};

    fn server() -> Arc<Server> {
        Server::start(
            ConcurrentFs::new(FsConfig::with_policy(PolicyKind::OnDemand, 2)),
            ServerConfig {
                workers: 2,
                queue_capacity: 32,
                admission_window: 8,
                replay_cache: 16,
                batch: 8,
                worker_delay_ns: 0,
            },
        )
    }

    #[test]
    fn pipelined_program_acks_in_order() {
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 1, 4, false);
        let create = c
            .submit(Op::Create {
                name: "c.dat".into(),
                size_hint_blocks: None,
            })
            .unwrap();
        assert!(c.drain());
        let h = c.handle_from(create).unwrap();
        for i in 0..10 {
            c.submit(Op::Write {
                handle: h,
                stream: 0,
                offset: i * 4,
                len: 4,
            })
            .unwrap();
        }
        c.submit(Op::Sync).unwrap();
        assert!(c.drain());
        let seqs: Vec<SeqNo> = c.replies().iter().map(|r| r.seq_no).collect();
        assert_eq!(seqs, (1..=12).collect::<Vec<_>>());
        assert!(c.replies().iter().all(|r| r.status.ok()));
        srv.shutdown();
    }

    #[test]
    fn polling_without_waiting_reaps_every_ack_in_order() {
        const OPS: SeqNo = 5_000;
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 3, 4, false);
        for _ in 0..OPS {
            while c.unacked().count() == 4 {
                assert!(c.reap(false));
            }
            c.submit(Op::Open {
                name: "absent".into(),
            })
            .unwrap();
        }
        while c.unacked().count() > 0 {
            assert!(c.reap(false));
        }
        let seqs: Vec<SeqNo> = c.replies().iter().map(|r| r.seq_no).collect();
        assert_eq!(seqs, (1..=OPS).collect::<Vec<_>>());
        assert_eq!(srv.stats().executed, OPS);
        // Blocking reaps still work on the same connection.
        c.submit(Op::Sync).unwrap();
        assert!(c.drain());
        assert_eq!(c.replies().len() as u64, OPS + 1);
        srv.shutdown();
    }

    #[test]
    fn a_connection_keeps_its_session_across_restart_and_reconnect() {
        let srv = server();
        let c = ClientConn::connect(Arc::clone(&srv), 6, 4, false);
        let bound = Arc::clone(&c.session);
        let c = c.restart().unwrap();
        assert!(Arc::ptr_eq(&bound, &c.session), "restart rebound");
        let again = ClientConn::connect(Arc::clone(&srv), 6, 4, false);
        assert!(Arc::ptr_eq(&bound, &again.session), "reconnect rebound");
        assert!(Arc::ptr_eq(&bound, &srv.sessions.session(6)));
        assert_eq!(srv.stats().sessions, 1);
        srv.shutdown();
    }

    #[test]
    fn an_empty_poll_is_live_and_the_next_one_sees_a_delivery() {
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 7, 4, true);
        assert!(c.reap(false), "an empty inbox on a live server");
        assert!(c.replies().is_empty());
        c.submit(Op::Sync).unwrap();
        assert!(c.drain());
        assert!(c.reap(false));
        assert_eq!(c.stale_seen(), 0);
        // A duplicate's answer, delivered the way a worker delivers one:
        // the very next poll reaps it.
        c.session.deliver_again(c.replies()[0]);
        assert!(c.reap(false));
        assert_eq!(c.stale_seen(), 1);
        srv.shutdown();
    }

    #[test]
    fn an_oversized_name_is_refused_before_admission() {
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 11, 4, false);
        let name = "n".repeat(MAX_NAME_BYTES + 1);
        for op in [
            Op::Create {
                name: name.clone(),
                size_hint_blocks: None,
            },
            Op::Open { name },
        ] {
            assert_eq!(
                c.submit(op),
                Err(SubmitError::NameTooLong {
                    len: MAX_NAME_BYTES + 1
                })
            );
        }
        assert_eq!(srv.stats().submitted, 0);
        assert_eq!(c.unacked().count(), 0, "a refused op takes no seq_no");
        // The connection goes on: the next ops take seq 1 and 2, and ack.
        assert_eq!(c.submit(Op::Sync), Ok(1));
        let longest = c.submit(Op::Create {
            name: "n".repeat(MAX_NAME_BYTES),
            size_hint_blocks: None,
        });
        assert_eq!(longest, Ok(2));
        assert!(c.drain());
        assert!(c.replies().iter().all(|r| r.status.ok()));
        let stats = srv.stats();
        assert_eq!((stats.submitted, stats.executed, stats.rejected), (2, 2, 0));
        srv.shutdown();
    }

    #[test]
    fn restart_resends_only_the_unacked_suffix() {
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 5, 8, false);
        let create = c
            .submit(Op::Create {
                name: "r.dat".into(),
                size_hint_blocks: None,
            })
            .unwrap();
        assert!(c.drain());
        let h = c.handle_from(create).unwrap();
        for i in 0..6 {
            c.submit(Op::Write {
                handle: h,
                stream: 0,
                offset: i * 4,
                len: 4,
            })
            .unwrap();
        }
        // Crash without reaping: every write is still "unacked" from the
        // client's point of view even though the server may have applied
        // (and inbox-delivered) some of them.
        let mut c = c.restart().unwrap();
        assert!(c.drain());
        assert_eq!(c.replies().len(), 7, "create + 6 writes, exactly once");
        let stats = srv.stats();
        assert_eq!(stats.executed, 7, "re-sent suffix must not double-apply");
        assert!(
            stats.dup_replays > 0,
            "the applied prefix must have replayed"
        );
        srv.shutdown();
    }

    #[test]
    fn duplicate_storm_is_fully_absorbed_without_reexecution() {
        let srv = server();
        let mut c = ClientConn::connect(Arc::clone(&srv), 9, 4, true);
        c.submit(Op::Create {
            name: "s.dat".into(),
            size_hint_blocks: None,
        })
        .unwrap();
        c.submit(Op::Sync).unwrap();
        assert!(c.drain());
        let executed_before = srv.stats().executed;
        let sent = c.resend_acked().unwrap();
        assert_eq!(sent, 2);
        assert!(c.await_stale(sent));
        assert_eq!(srv.stats().executed, executed_before, "storm re-executed");
        srv.shutdown();
    }
}
