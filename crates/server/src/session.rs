//! Per-client sessions: the idempotency and admission state.
//!
//! The session table is what turns at-least-once delivery into
//! exactly-once *effects*. Each client has one [`Session`] keyed by its
//! durable `client_id`, holding:
//!
//! * **`last_applied`** — the highest `seq_no` whose op has executed. A
//!   worker consults it before touching the engine: `seq == last + 1`
//!   executes, `seq <= last` is a duplicate, `seq > last + 1` is a
//!   protocol violation (the transport never reorders within a client).
//! * **the replay cache** — a bounded ring of the most recent replies.
//!   A duplicate is answered from here with the *original* result (same
//!   status, same handle, same ack timestamp) without re-execution. A
//!   duplicate that has fallen off the ring gets [`Status::TooOld`] —
//!   still never re-executed.
//! * **the reply inbox** — acks the client has not reaped yet.
//! * **the in-flight counter** — admission control: a submitter parks in
//!   [`Session::admit`] until the client's unacked count drops below the
//!   per-client window.
//!
//! Lock discipline: the session mutex is rank
//! [`LockClass::ServerSession`], the outermost rank of the whole stack.
//! Workers take it only between engine calls (dispatch decision before,
//! ack delivery after), never across one.
//!
//! A connection resolves its session once and keeps the `Arc`, so the
//! table's lock is taken per connection, not per request. A delivery
//! signals the condvar only when a thread sleeps on it (docs/SERVER.md,
//! "Who wakes whom").

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use mif_alloc::lockorder::{self, LockClass};

use crate::protocol::{ClientId, Reply, SeqNo, Status};

/// What a worker should do with an arriving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch {
    /// `seq_no == last_applied + 1`: execute it (exactly once).
    Execute,
    /// Duplicate with a cached result: deliver this original reply again,
    /// do not touch the engine.
    Replay(Reply),
    /// Duplicate older than the replay cache window: answer `TooOld`,
    /// do not touch the engine.
    TooOld,
    /// `seq_no` skipped ahead: protocol violation, answer `SeqGap`.
    Gap,
}

struct SessionState {
    last_applied: SeqNo,
    /// Ring of recent replies, oldest first; bounded by `cache_cap`.
    replay_cache: VecDeque<Reply>,
    /// Delivered-but-unreaped acks, in delivery order.
    inbox: VecDeque<Reply>,
    /// Requests admitted but not yet acked (admission window accounting).
    inflight: usize,
    /// Threads asleep on `changed` in `admit` / `take_acks(true)`. A
    /// delivery signals the condvar only when this is non-zero.
    waiters: usize,
}

impl SessionState {
    /// Where `seq_no`'s reply sits in the replay cache, if it still does.
    /// The cache holds consecutive seq_nos, so this is a subtraction.
    fn cached(&self, seq_no: SeqNo) -> Option<usize> {
        let at = seq_no.checked_sub(self.replay_cache.front()?.seq_no)?;
        let at = usize::try_from(at).ok()?;
        (at < self.replay_cache.len()).then_some(at)
    }
}

/// One client's service state. See the module docs.
pub struct Session {
    state: Mutex<SessionState>,
    /// Wakes parked submitters (window space) and reapers (new acks).
    changed: Condvar,
    cache_cap: usize,
    /// The table's count of `admit` calls that parked, over all sessions.
    admission_parks: Arc<AtomicU64>,
}

impl Session {
    fn new(cache_cap: usize, admission_parks: Arc<AtomicU64>) -> Self {
        assert!(cache_cap > 0, "a session needs at least one cached reply");
        Session {
            state: Mutex::new(SessionState {
                last_applied: 0,
                replay_cache: VecDeque::with_capacity(cache_cap),
                inbox: VecDeque::new(),
                inflight: 0,
                waiters: 0,
            }),
            changed: Condvar::new(),
            cache_cap,
            admission_parks,
        }
    }

    /// Admission control: park until this client's unacked count is below
    /// `window`, then count the new request in. Returns `false` (without
    /// admitting) once `dead` is set — a power-cut must not strand parked
    /// submitters forever.
    pub fn admit(&self, window: usize, dead: &AtomicBool) -> bool {
        let token = lockorder::acquire(LockClass::ServerSession);
        let mut st = self.state.lock().unwrap();
        if st.inflight >= window {
            self.admission_parks.fetch_add(1, Ordering::Relaxed);
        }
        while st.inflight >= window {
            if dead.load(Ordering::Acquire) {
                return false;
            }
            st = self.wait(st);
        }
        if dead.load(Ordering::Acquire) {
            return false;
        }
        st.inflight += 1;
        drop(st);
        drop(token);
        true
    }

    /// Sleep until a delivery (or 10 ms) passes, counted in `waiters` so
    /// the delivery knows to wake us. We count ourselves in under the lock
    /// the deliverer reads the count under, so either it sees us or we see
    /// its ack. Timed, so that a death that never delivers an ack still
    /// wakes us to observe the flag.
    fn wait<'a>(&self, mut st: MutexGuard<'a, SessionState>) -> MutexGuard<'a, SessionState> {
        st.waiters += 1;
        let (mut st, _) = self
            .changed
            .wait_timeout(st, Duration::from_millis(10))
            .unwrap();
        st.waiters -= 1;
        st
    }

    /// Classify an arriving `seq_no` against this session's history.
    pub fn dispatch(&self, seq_no: SeqNo) -> Dispatch {
        let token = lockorder::acquire(LockClass::ServerSession);
        let st = self.state.lock().unwrap();
        let d = if seq_no == st.last_applied + 1 {
            Dispatch::Execute
        } else if seq_no > st.last_applied {
            Dispatch::Gap
        } else if let Some(at) = st.cached(seq_no) {
            Dispatch::Replay(st.replay_cache[at])
        } else {
            Dispatch::TooOld
        };
        drop(st);
        drop(token);
        d
    }

    /// Record an executed request *at execute time*, before its ack is
    /// issued: advance `last_applied` and cache the reply provisionally
    /// (`acked_at_ns` still 0 until [`Self::deliver_applied`] stamps it).
    /// This is what keeps a batch internally consistent — request `n+1`
    /// of the same batch dispatches against `last_applied = n` even
    /// though neither ack has passed the durability gate yet.
    pub fn mark_applied(&self, reply: Reply) {
        let token = lockorder::acquire(LockClass::ServerSession);
        let mut st = self.state.lock().unwrap();
        debug_assert_eq!(
            reply.seq_no,
            st.last_applied + 1,
            "mark_applied out of program order"
        );
        debug_assert!(
            st.replay_cache
                .back()
                .is_none_or(|newest| newest.seq_no + 1 == reply.seq_no),
            "the replay cache must hold consecutive seq_nos"
        );
        st.last_applied = reply.seq_no;
        if st.replay_cache.len() == self.cache_cap {
            st.replay_cache.pop_front();
        }
        st.replay_cache.push_back(reply);
        drop(st);
        drop(token);
    }

    /// Deliver the ack for a request recorded with [`Self::mark_applied`]
    /// (the durability gate has passed): stamp the cached reply's ack
    /// time, inbox the ack, release one admission slot.
    pub fn deliver_applied(&self, reply: Reply) {
        self.deliver(|st| {
            if let Some(at) = st.cached(reply.seq_no) {
                st.replay_cache[at].acked_at_ns = reply.acked_at_ns;
            }
            reply
        });
    }

    /// Record + deliver in one step (the single-request convenience used
    /// by tests; the server batches the two halves around its gate).
    pub fn deliver_new(&self, reply: Reply) {
        self.mark_applied(reply);
        self.deliver_applied(reply);
    }

    /// Deliver a duplicate's answer by replaying the cache *at delivery
    /// time* — so a duplicate that arrived in the same batch as its
    /// original picks up the original's final ack stamp. Falls back to
    /// `TooOld` if the entry aged out between dispatch and delivery.
    pub fn deliver_replay(&self, client_id: ClientId, seq_no: SeqNo, now_ns: u64) {
        self.deliver(|st| {
            st.cached(seq_no).map_or(
                Reply {
                    client_id,
                    seq_no,
                    status: Status::TooOld,
                    acked_at_ns: now_ns,
                },
                |at| st.replay_cache[at],
            )
        });
    }

    /// Deliver a duplicate's answer (a cached replay, `TooOld`, or a
    /// `SeqGap`/`Invalid` rejection): inbox + admission slot only —
    /// `last_applied` and the cache are untouched.
    pub fn deliver_again(&self, reply: Reply) {
        self.deliver(|_| reply);
    }

    /// Inbox the reply `ack` computes under the lock, release one
    /// admission slot, and wake the session's waiters if there are any.
    fn deliver(&self, ack: impl FnOnce(&mut SessionState) -> Reply) {
        let token = lockorder::acquire(LockClass::ServerSession);
        let mut st = self.state.lock().unwrap();
        let reply = ack(&mut st);
        st.inbox.push_back(reply);
        st.inflight = st.inflight.saturating_sub(1);
        let wake = st.waiters > 0;
        drop(st);
        drop(token);
        if wake {
            self.changed.notify_all();
        }
    }

    /// Reap delivered acks in delivery order. With `wait`, parks until at
    /// least one ack exists or `dead` is set; without, returns what is
    /// there (possibly nothing).
    pub fn take_acks(&self, wait: bool, dead: &AtomicBool) -> Vec<Reply> {
        let token = lockorder::acquire(LockClass::ServerSession);
        let mut st = self.state.lock().unwrap();
        while wait && st.inbox.is_empty() {
            if dead.load(Ordering::Acquire) {
                break;
            }
            st = self.wait(st);
        }
        let acks: Vec<Reply> = st.inbox.drain(..).collect();
        drop(st);
        drop(token);
        acks
    }

    /// Highest applied seq_no (test/verification hook).
    pub fn last_applied(&self) -> SeqNo {
        let token = lockorder::acquire(LockClass::ServerSession);
        let v = self.state.lock().unwrap().last_applied;
        drop(token);
        v
    }
}

/// The server-wide `client_id → Session` map. Sessions are created on
/// first contact and live for the server's lifetime — that persistence
/// across client restarts is the whole point.
pub struct SessionTable {
    sessions: RwLock<HashMap<ClientId, Arc<Session>>>,
    cache_cap: usize,
    /// Times any session's `admit` parked on a full window.
    admission_parks: Arc<AtomicU64>,
}

impl SessionTable {
    pub fn new(cache_cap: usize) -> Self {
        SessionTable {
            sessions: RwLock::new(HashMap::new()),
            cache_cap,
            admission_parks: Arc::default(),
        }
    }

    /// The session for `client_id`, created if first contact.
    pub fn session(&self, client_id: ClientId) -> Arc<Session> {
        if let Some(s) = self.sessions.read().unwrap().get(&client_id) {
            return Arc::clone(s);
        }
        let mut map = self.sessions.write().unwrap();
        Arc::clone(map.entry(client_id).or_insert_with(|| {
            Arc::new(Session::new(
                self.cache_cap,
                Arc::clone(&self.admission_parks),
            ))
        }))
    }

    /// Number of sessions ever created.
    pub fn len(&self) -> usize {
        self.sessions.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admission parks across all sessions.
    pub fn total_admission_parks(&self) -> u64 {
        self.admission_parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Status;

    fn session(cache_cap: usize) -> Session {
        Session::new(cache_cap, Arc::default())
    }

    fn reply(seq: SeqNo, status: Status) -> Reply {
        Reply {
            client_id: 1,
            seq_no: seq,
            status,
            acked_at_ns: seq * 100,
        }
    }

    #[test]
    fn execute_then_duplicate_replays_the_original() {
        let s = session(4);
        assert_eq!(s.dispatch(1), Dispatch::Execute);
        s.deliver_new(reply(1, Status::Handle(42)));
        // The same seq again: replay, with the original handle and the
        // original ack timestamp.
        assert_eq!(
            s.dispatch(1),
            Dispatch::Replay(reply(1, Status::Handle(42)))
        );
        assert_eq!(s.last_applied(), 1);
        // Next-in-order executes; skipping is a gap.
        assert_eq!(s.dispatch(2), Dispatch::Execute);
        assert_eq!(s.dispatch(5), Dispatch::Gap);
    }

    #[test]
    fn duplicates_beyond_the_cache_window_are_too_old() {
        let s = session(2);
        for seq in 1..=4 {
            assert_eq!(s.dispatch(seq), Dispatch::Execute);
            s.deliver_new(reply(seq, Status::Done));
        }
        // Cache holds {3, 4}: 1 has aged out, but is still not executed.
        assert_eq!(s.dispatch(1), Dispatch::TooOld);
        assert_eq!(s.dispatch(3), Dispatch::Replay(reply(3, Status::Done)));
        assert_eq!(s.last_applied(), 4);
    }

    #[test]
    fn replay_lookup_indexes_the_ring_across_wrap() {
        for cap in [1u64, 4, 64] {
            let s = session(cap as usize);
            for seq in 1..=3 * cap + 1 {
                assert_eq!(s.dispatch(seq), Dispatch::Execute);
                s.mark_applied(reply(seq, Status::Handle(seq)));
                // An in-batch duplicate, delivered after its original.
                s.deliver_applied(Reply {
                    acked_at_ns: seq + 7,
                    ..reply(seq, Status::Handle(seq))
                });
                s.deliver_replay(1, seq, 0);
                let oldest = seq.saturating_sub(cap) + 1;
                for dup in 1..=seq {
                    let want = if dup < oldest {
                        Dispatch::TooOld
                    } else {
                        Dispatch::Replay(Reply {
                            acked_at_ns: dup + 7,
                            ..reply(dup, Status::Handle(dup))
                        })
                    };
                    assert_eq!(s.dispatch(dup), want, "cap {cap} at {seq}, dup {dup}");
                }
                assert_eq!(s.dispatch(seq + 2), Dispatch::Gap);
                if oldest > 1 {
                    // Just off the front: answered at delivery, too.
                    s.deliver_replay(1, oldest - 1, 5);
                }
                let acks = s.take_acks(false, &AtomicBool::new(false));
                let stamped = Reply {
                    acked_at_ns: seq + 7,
                    ..reply(seq, Status::Handle(seq))
                };
                assert_eq!(acks[..2], [stamped, stamped]);
                if oldest > 1 {
                    assert_eq!(acks[2].status, Status::TooOld);
                    assert_eq!(acks[2].seq_no, oldest - 1);
                }
            }
        }
    }

    #[test]
    fn admission_window_parks_and_releases() {
        let dead = AtomicBool::new(false);
        let s = Arc::new(session(8));
        assert!(s.admit(2, &dead));
        assert!(s.admit(2, &dead));
        let parked = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let dead = AtomicBool::new(false);
                s.admit(2, &dead)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // An ack frees a slot; the parked submitter gets in.
        s.dispatch(1);
        s.deliver_new(reply(1, Status::Done));
        assert!(parked.join().unwrap());
        assert!(s.admission_parks.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn death_unparks_admission_and_reapers() {
        let dead = Arc::new(AtomicBool::new(false));
        let s = Arc::new(session(2));
        assert!(s.admit(1, &dead));
        let handles: Vec<_> = [
            {
                let (s, dead) = (Arc::clone(&s), Arc::clone(&dead));
                std::thread::spawn(move || s.admit(1, &dead) as usize)
            },
            {
                let (s, dead) = (Arc::clone(&s), Arc::clone(&dead));
                std::thread::spawn(move || s.take_acks(true, &dead).len())
            },
        ]
        .into();
        std::thread::sleep(Duration::from_millis(20));
        dead.store(true, Ordering::Release);
        for h in handles {
            assert_eq!(h.join().unwrap(), 0, "death must refuse, not execute");
        }
    }

    /// `(threads asleep, inbox empty, admitted)`, read under the lock.
    fn sleep_state(s: &Session) -> (usize, bool, usize) {
        let st = s.state.lock().unwrap();
        (st.waiters, st.inbox.is_empty(), st.inflight)
    }

    /// Run `rounds` deliveries, each only once `asleep` holds for the
    /// session, against `other` running on its own thread, in under 2 s.
    /// The waits are timed at 10 ms, so a lost wake shows as time, not as
    /// a hang: 200 lost wakes alone take 2 s.
    fn ping_pong(
        rounds: u64,
        asleep: (usize, bool, usize),
        other: impl FnOnce(Arc<Session>) + Send + 'static,
        s: Arc<Session>,
    ) {
        let start = std::time::Instant::now();
        let other = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || other(s))
        };
        for seq in 1..=rounds {
            while sleep_state(&s) != asleep {
                std::thread::yield_now();
            }
            s.deliver_new(reply(seq, Status::Done));
        }
        other.join().unwrap();
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{rounds} round trips: {took:?}"
        );
    }

    #[test]
    fn a_delivery_always_wakes_a_sleeping_reaper() {
        const ROUNDS: u64 = 1_000;
        ping_pong(
            ROUNDS,
            (1, true, 0),
            |s| {
                let dead = AtomicBool::new(false);
                for seq in 1..=ROUNDS {
                    assert_eq!(s.take_acks(true, &dead), [reply(seq, Status::Done)]);
                }
            },
            Arc::new(session(4)),
        );
    }

    #[test]
    fn a_delivery_always_wakes_a_parked_admission() {
        const ROUNDS: u64 = 1_000;
        let s = Arc::new(session(4));
        assert!(s.admit(1, &AtomicBool::new(false)));
        ping_pong(
            ROUNDS,
            (1, true, 1),
            |s| {
                let dead = AtomicBool::new(false);
                for _ in 0..ROUNDS {
                    assert!(s.admit(1, &dead));
                    s.take_acks(false, &dead);
                }
            },
            s,
        );
    }

    #[test]
    fn table_persists_sessions_across_lookups() {
        let t = SessionTable::new(4);
        let a = t.session(7);
        a.dispatch(1);
        a.deliver_new(reply(1, Status::Done));
        // "Reconnecting" with the same client_id sees the same history.
        let b = t.session(7);
        assert_eq!(b.last_applied(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
        t.session(8);
        assert_eq!(t.len(), 2);
    }
}
