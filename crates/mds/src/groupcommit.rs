//! Group commit for the data-path WAL (§"make thread scaling real").
//!
//! The PR-5 concurrent front-end journals one record per metadata-bearing
//! operation, and every record paid its own flush: under 8 client threads
//! the journal lock was the hottest serialization point in the stack. This
//! module replaces that with the classic jbd-style *group commit*:
//!
//! 1. **Lock-free staging.** Appending threads reserve a slot in a fixed
//!    circular slab with one `compare_exchange` on the head counter, write
//!    their 128-byte record into the slot, and publish it with a release
//!    store of a per-slot ready marker. No lock, no waiting on other
//!    appenders.
//! 2. **One flusher.** Whoever needs durability (a `commit`, or an
//!    appender that found the slab full) takes the single flush mutex —
//!    rank [`LockClass::WalFlush`], outermost, held with no other lock —
//!    and coalesces *every* staged record into one contiguous buffer,
//!    persisted as a single journal flush. Threads queued behind the
//!    leader usually find their record already durable when they get the
//!    lock and return without flushing at all.
//! 3. **Ack after durable.** [`GroupCommitWal::commit`] returns only once
//!    the merged flush covering the record hit the media image, so a crash
//!    can only lose writes whose commit was never acknowledged.
//!
//! Backpressure is explicit: a thread that cannot reserve a slot (slab
//! full, `head - durable == capacity`) **blocks and retries** — it takes
//! the flush lock, drains the slab itself if nobody beat it to it, and
//! re-attempts the reservation. Records are never dropped and a thread's
//! own records are never reordered (each `append` returns before the
//! next begins).
//!
//! Slot-reuse safety: the flusher clears each slot's ready marker *before*
//! advancing `durable`, and a reservation succeeds only while
//! `head - durable < capacity` — so by the time a slot index comes around
//! again, its previous occupant has provably been cleared.
//!
//! Crash injection for the consistency tests mirrors `WalWriter`:
//! a [`FlushFaultPlan`] cuts one merged flush after a byte prefix and
//! freezes the media image, while the in-memory protocol keeps running —
//! the frozen image is exactly what a recovery sees after power-off at
//! that instant.

use crate::wal::WAL_RECORD_BYTES;
use mif_alloc::lockorder::{self, LockClass};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One staging slot: a ready marker (0 = empty, `seqno + 1` = published)
/// and the record bytes.
struct SlabSlot {
    ready: AtomicU64,
    buf: UnsafeCell<[u8; WAL_RECORD_BYTES]>,
}

// Safety: `buf` is written only by the thread that CAS-reserved the slot's
// seqno and read only by the flush leader after observing the matching
// ready marker (release/acquire pair); the slot is not re-reserved until
// `durable` passes it, which the leader advances only after clearing
// `ready` — so accesses never overlap.
unsafe impl Sync for SlabSlot {}

/// Deterministic crash injection: cut merged flush number `cut_at_flush`
/// (0-based) after `persist_bytes` bytes, then freeze the media image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushFaultPlan {
    /// Which merged flush to tear (0 = the first flush after arming).
    pub cut_at_flush: u64,
    /// How many bytes of that flush's merged buffer reach the media.
    pub persist_bytes: usize,
    /// Pad the torn flush with zeroes to its full length — models a torn
    /// write over pre-zeroed sectors (recovery sees `BadMagic`) instead of
    /// a short tail (recovery sees `TornTail`).
    pub zero_fill: bool,
}

/// Counters snapshot for the contention report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Records appended (== reservations that succeeded).
    pub records: u64,
    /// Merged flushes issued.
    pub flushes: u64,
    /// Largest number of records coalesced into one flush.
    pub max_batch: u64,
    /// Times an appender found the slab full and had to park/drain.
    pub backpressure_parks: u64,
    /// Records acknowledged durable.
    pub durable: u64,
}

/// State guarded by the flush mutex (rank [`LockClass::WalFlush`]).
struct FlushState {
    /// The journal's media image: every durable byte, in flush order.
    image: Vec<u8>,
    /// Merged flushes persisted so far (fault-plan cursor).
    flushes_done: u64,
    /// Armed crash plan, if any.
    fault: Option<FlushFaultPlan>,
    /// Once a fault fired the image is frozen: later flushes still advance
    /// the in-memory protocol but never reach the "media" again.
    frozen: bool,
    max_batch: u64,
}

/// The group-commit write-ahead log. See the module docs for the protocol.
pub struct GroupCommitWal {
    slots: Box<[SlabSlot]>,
    /// Next seqno to reserve. `head - durable` slots are staged.
    head: AtomicU64,
    /// All seqnos `< durable` are on the media image (or were flushed
    /// after it froze — the protocol doesn't know the media died).
    durable: AtomicU64,
    flush: Mutex<FlushState>,
    records: AtomicU64,
    flushes: AtomicU64,
    parks: AtomicU64,
}

impl GroupCommitWal {
    /// A WAL whose staging slab holds `capacity` records (>= 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "slab needs at least one slot");
        let slots = (0..capacity)
            .map(|_| SlabSlot {
                ready: AtomicU64::new(0),
                buf: UnsafeCell::new([0u8; WAL_RECORD_BYTES]),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        GroupCommitWal {
            slots,
            head: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            flush: Mutex::new(FlushState {
                image: Vec::new(),
                flushes_done: 0,
                fault: None,
                frozen: false,
                max_batch: 0,
            }),
            records: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Slab capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stage one record. `encode` receives the record's seqno and must
    /// produce the full framed 128-byte record ([`crate::wal`] framing).
    /// Returns the seqno; the record is durable only after a
    /// [`Self::commit`] covering it returns. Blocks (parks and drains the
    /// slab) under backpressure — never drops, never reorders.
    ///
    /// Must be called with no other lock held: backpressure may take the
    /// flush lock, whose rank is outermost.
    pub fn append(&self, encode: impl FnOnce(u64) -> [u8; WAL_RECORD_BYTES]) -> u64 {
        let cap = self.slots.len() as u64;
        let mut encode = Some(encode);
        loop {
            // Load `durable` before `head`: both only advance, so a
            // durable snapshot taken first can never exceed the later
            // head read — the subtraction below cannot underflow even
            // when appends and flushes race between the two loads.
            let durable = self.durable.load(Ordering::Acquire);
            let head = self.head.load(Ordering::Acquire);
            if head - durable >= cap {
                // Slab full: park. Drain it ourselves if nobody else is —
                // taking the flush lock either makes us the leader or
                // queues us behind one, and by the time the lock is ours
                // `durable` has advanced (the slab was non-empty).
                self.parks.fetch_add(1, Ordering::Relaxed);
                let mut state = self.flush.lock().unwrap();
                let _token = lockorder::acquire(LockClass::WalFlush);
                let durable = self.durable.load(Ordering::Acquire);
                if self.head.load(Ordering::Acquire) - durable >= cap {
                    self.flush_locked(&mut state);
                }
                continue;
            }
            match self.head.compare_exchange_weak(
                head,
                head + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let slot = &self.slots[(head % cap) as usize];
                    debug_assert_eq!(
                        slot.ready.load(Ordering::Acquire),
                        0,
                        "reserved slot must be empty"
                    );
                    let rec = (encode.take().expect("encode used once"))(head);
                    // Safety: the CAS gave this thread exclusive ownership
                    // of the slot until the flusher consumes it.
                    unsafe { *slot.buf.get() = rec };
                    slot.ready.store(head + 1, Ordering::Release);
                    self.records.fetch_add(1, Ordering::Relaxed);
                    return head;
                }
                Err(_) => continue,
            }
        }
    }

    /// Block until the record `seqno` is durable, flushing (and thereby
    /// coalescing every record staged so far) if this thread gets there
    /// first. Must be called with no other lock held.
    pub fn commit(&self, seqno: u64) {
        while self.durable.load(Ordering::Acquire) <= seqno {
            let mut state = self.flush.lock().unwrap();
            let _token = lockorder::acquire(LockClass::WalFlush);
            // The leader we queued behind may have covered us already.
            if self.durable.load(Ordering::Acquire) > seqno {
                return;
            }
            self.flush_locked(&mut state);
        }
    }

    /// Make every record appended so far durable.
    pub fn commit_all(&self) {
        let target = self.head.load(Ordering::Acquire);
        if target > 0 {
            self.commit(target - 1);
        }
    }

    /// Coalesce all staged records into one merged buffer and persist it
    /// as a single flush. Caller holds the flush mutex.
    fn flush_locked(&self, state: &mut FlushState) {
        let cap = self.slots.len() as u64;
        let start = self.durable.load(Ordering::Acquire);
        let end = self.head.load(Ordering::Acquire);
        if end == start {
            return;
        }
        let mut merged = Vec::with_capacity(((end - start) as usize) * WAL_RECORD_BYTES);
        for seq in start..end {
            let slot = &self.slots[(seq % cap) as usize];
            // A reserver may still be between its CAS and its publish;
            // the gap is one memcpy wide, so spin briefly.
            while slot.ready.load(Ordering::Acquire) != seq + 1 {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            // Safety: the ready marker's release store happens-before this
            // acquire load; the reserver is done with the slot.
            merged.extend_from_slice(unsafe { &*slot.buf.get() });
            // Clear BEFORE advancing durable: reservation requires
            // head - durable < capacity, so the slot cannot be re-reserved
            // until durable passes it — at which point it is already 0.
            slot.ready.store(0, Ordering::Release);
        }
        self.persist(state, &merged);
        self.durable.store(end, Ordering::Release);
        let batch = end - start;
        state.max_batch = state.max_batch.max(batch);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// One merged flush reaching (or failing to reach) the media.
    fn persist(&self, state: &mut FlushState, merged: &[u8]) {
        let n = state.flushes_done;
        state.flushes_done += 1;
        if state.frozen {
            return;
        }
        match state.fault {
            Some(plan) if plan.cut_at_flush == n => {
                let keep = plan.persist_bytes.min(merged.len());
                state.image.extend_from_slice(&merged[..keep]);
                if plan.zero_fill {
                    state
                        .image
                        .extend(std::iter::repeat_n(0u8, merged.len() - keep));
                }
                state.frozen = true;
            }
            _ => state.image.extend_from_slice(merged),
        }
    }

    /// Arm a crash plan (before the targeted flush happens).
    pub fn set_fault(&self, plan: FlushFaultPlan) {
        let mut state = self.flush.lock().unwrap();
        let _token = lockorder::acquire(LockClass::WalFlush);
        state.fault = Some(plan);
    }

    /// The journal's media image — what a recovery scan reads. If a fault
    /// froze the image, this is the media at the crash instant regardless
    /// of how far the in-memory protocol ran on.
    pub fn image(&self) -> Vec<u8> {
        let state = self.flush.lock().unwrap();
        let _token = lockorder::acquire(LockClass::WalFlush);
        state.image.clone()
    }

    /// Has an armed fault fired (media frozen)?
    pub fn frozen(&self) -> bool {
        let state = self.flush.lock().unwrap();
        let _token = lockorder::acquire(LockClass::WalFlush);
        state.frozen
    }

    /// The durable watermark: every record whose seqno is strictly below
    /// this value has been covered by a merged flush. This is the ack
    /// gate of the `mif-server` front-end — a mutating request may be
    /// acknowledged only once the watermark passes its record — so it is
    /// a single lock-free load, cheap enough for every ack decision.
    pub fn durable_watermark(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> GroupCommitStats {
        let max_batch = {
            let state = self.flush.lock().unwrap();
            let _token = lockorder::acquire(LockClass::WalFlush);
            state.max_batch
        };
        GroupCommitStats {
            records: self.records.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            max_batch,
            backpressure_parks: self.parks.load(Ordering::Relaxed),
            durable: self.durable.load(Ordering::Acquire),
        }
    }
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitWal")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("durable", &self.durable.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_write_record, recover_writes, RecoveryStop, WriteCommit};
    use std::sync::atomic::AtomicU64;

    fn wc(stream: u64, counter: u64) -> WriteCommit {
        WriteCommit {
            file: 1,
            stream,
            offset: counter * 4,
            len: 4,
        }
    }

    #[test]
    fn single_thread_round_trip() {
        let wal = GroupCommitWal::new(64);
        let ops: Vec<WriteCommit> = (0..10).map(|i| wc(0, i)).collect();
        for op in &ops {
            wal.append(|seq| encode_write_record(seq, op));
        }
        wal.commit_all();
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.stop, RecoveryStop::CleanEnd);
        assert_eq!(rec.ops, ops);
    }

    #[test]
    fn commit_all_coalesces_into_one_flush() {
        let wal = GroupCommitWal::new(64);
        for i in 0..32 {
            wal.append(|seq| encode_write_record(seq, &wc(0, i)));
        }
        wal.commit_all();
        let stats = wal.stats();
        assert_eq!(stats.records, 32);
        assert_eq!(stats.flushes, 1, "32 records, one merged flush");
        assert_eq!(stats.max_batch, 32);
        assert_eq!(stats.durable, 32);
    }

    #[test]
    fn commit_ack_means_durable() {
        let wal = GroupCommitWal::new(8);
        let seq = wal.append(|seq| encode_write_record(seq, &wc(0, 0)));
        assert_eq!(wal.stats().durable, 0, "append alone is not durable");
        assert_eq!(wal.durable_watermark(), 0);
        wal.commit(seq);
        assert!(wal.stats().durable > seq);
        assert!(
            wal.durable_watermark() > seq,
            "the ack gate must cover a committed record"
        );
        assert_eq!(recover_writes(&wal.image(), 0).ops.len(), 1);
    }

    #[test]
    fn slab_wraparound_reuses_slots_cleanly() {
        let wal = GroupCommitWal::new(4);
        let ops: Vec<WriteCommit> = (0..19).map(|i| wc(0, i)).collect();
        for op in &ops {
            wal.append(|seq| encode_write_record(seq, op));
        }
        wal.commit_all();
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.stop, RecoveryStop::CleanEnd);
        assert_eq!(rec.ops, ops);
        assert!(
            wal.stats().backpressure_parks > 0,
            "19 appends through a 4-slot slab must park"
        );
    }

    #[test]
    fn torn_merged_flush_recovers_record_prefix() {
        let wal = GroupCommitWal::new(64);
        // Cut the first flush mid-way through its 3rd record.
        wal.set_fault(FlushFaultPlan {
            cut_at_flush: 0,
            persist_bytes: 2 * WAL_RECORD_BYTES + 17,
            zero_fill: false,
        });
        for i in 0..8 {
            wal.append(|seq| encode_write_record(seq, &wc(0, i)));
        }
        wal.commit_all();
        assert!(wal.frozen());
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.ops, vec![wc(0, 0), wc(0, 1)], "whole records only");
        assert_eq!(rec.stop, RecoveryStop::TornTail { at: 2 });
        // The in-memory protocol ran on; the media did not.
        assert_eq!(wal.stats().durable, 8);
    }

    #[test]
    fn zero_filled_tear_stops_at_bad_magic() {
        let wal = GroupCommitWal::new(64);
        wal.set_fault(FlushFaultPlan {
            cut_at_flush: 0,
            persist_bytes: WAL_RECORD_BYTES + 40,
            zero_fill: true,
        });
        for i in 0..4 {
            wal.append(|seq| encode_write_record(seq, &wc(0, i)));
        }
        wal.commit_all();
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.ops, vec![wc(0, 0)]);
        // Record 1's prefix survived but its tail is zeroes → checksum
        // fails (magic itself survived the cut).
        assert_eq!(rec.stop, RecoveryStop::BadChecksum { at: 1 });
    }

    #[test]
    fn later_flushes_never_touch_a_frozen_image() {
        let wal = GroupCommitWal::new(8);
        wal.set_fault(FlushFaultPlan {
            cut_at_flush: 0,
            persist_bytes: 0,
            zero_fill: false,
        });
        wal.append(|seq| encode_write_record(seq, &wc(0, 0)));
        wal.commit_all();
        wal.append(|seq| encode_write_record(seq, &wc(0, 1)));
        wal.commit_all();
        assert!(wal.image().is_empty(), "media died at the first flush");
        assert_eq!(wal.stats().durable, 2, "protocol kept running");
    }

    /// The missing-backpressure regression (ISSUE 6 satellite 4): eight
    /// threads saturate a tiny slab; every record must survive, in
    /// per-stream order — blocked appenders park and retry, never drop.
    #[test]
    fn saturated_slab_drops_nothing_and_keeps_stream_order() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let wal = GroupCommitWal::new(16); // far smaller than the load
        let committed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let wal = &wal;
                let committed = &committed;
                s.spawn(move || {
                    let mut last = 0;
                    for i in 0..PER_THREAD {
                        last = wal.append(|seq| encode_write_record(seq, &wc(t, i)));
                        if i % 32 == 31 {
                            wal.commit(last);
                        }
                    }
                    wal.commit(last);
                    committed.fetch_add(PER_THREAD, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(committed.load(Ordering::Relaxed), THREADS * PER_THREAD);
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.stop, RecoveryStop::CleanEnd);
        assert_eq!(
            rec.ops.len() as u64,
            THREADS * PER_THREAD,
            "exact record count: backpressure blocks, never drops"
        );
        // Per-stream order: each thread's counters appear strictly
        // ascending in the recovered log.
        for t in 0..THREADS {
            let counters: Vec<u64> = rec
                .ops
                .iter()
                .filter(|op| op.stream == t)
                .map(|op| op.offset / 4)
                .collect();
            assert_eq!(counters.len() as u64, PER_THREAD);
            assert!(
                counters.windows(2).all(|w| w[0] < w[1]),
                "stream {t} reordered"
            );
        }
        let stats = wal.stats();
        assert_eq!(stats.records, THREADS * PER_THREAD);
        assert!(
            stats.flushes < stats.records,
            "group commit must coalesce: {} flushes for {} records",
            stats.flushes,
            stats.records
        );
        assert!(stats.backpressure_parks > 0, "the slab was saturated");
        assert!(stats.max_batch > 1);
    }

    #[test]
    fn concurrent_appends_with_one_final_commit() {
        let wal = GroupCommitWal::new(1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..100 {
                        wal.append(|seq| encode_write_record(seq, &wc(t, i)));
                    }
                });
            }
        });
        wal.commit_all();
        let stats = wal.stats();
        assert_eq!(stats.records, 400);
        assert_eq!(stats.flushes, 1, "slab big enough: exactly one flush");
        let rec = recover_writes(&wal.image(), 0);
        assert_eq!(rec.stop, RecoveryStop::CleanEnd);
        assert_eq!(rec.ops.len(), 400);
    }
}
