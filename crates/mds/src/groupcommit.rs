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
//!    and persists *every* staged record as a single journal flush,
//!    walking the ready slots straight into the media image. Threads
//!    queued behind the leader usually find their record already durable
//!    when they get the lock and return without flushing at all.
//!
//!    The image is kept compact: a record is stored as
//!    `[n][rec[..n]][rec[120..128]]`, where `n` is the length of its
//!    framed body before the trailing zero run (a write record keeps 49
//!    bytes, not 128). This is exact for any 128 bytes, so
//!    [`GroupCommitWal::image`] rebuilds the very bytes a flat log held.
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
//! that instant. The torn flush keeps its whole records compact and the
//! cut remainder (plus any zero fill) verbatim.

use crate::wal::WAL_RECORD_BYTES;
use mif_alloc::lockorder::{self, LockClass};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A record's framed body; the 8 bytes after it (the checksum) are kept
/// verbatim in a compact entry.
const BODY_BYTES: usize = WAL_RECORD_BYTES - 8;

/// Length of `rec[..BODY_BYTES]` before its trailing zero run, scanned a
/// word at a time from the end.
fn body_len(rec: &[u8; WAL_RECORD_BYTES]) -> usize {
    for w in (0..BODY_BYTES / 8).rev() {
        let word = u64::from_le_bytes(rec[w * 8..w * 8 + 8].try_into().expect("an 8-byte word"));
        if word != 0 {
            return w * 8 + 8 - word.leading_zeros() as usize / 8;
        }
    }
    0
}

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
/// (0-based, counted from arming) after `persist_bytes` bytes, then
/// freeze the media image.
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
    /// The journal's media image, one compact entry per whole record in
    /// flush order (module docs, step 2).
    store: Vec<u8>,
    /// Entries in `store`.
    entries: usize,
    /// The torn flush's bytes past its last whole record, verbatim.
    tail: Vec<u8>,
    /// Merged flushes persisted so far (fault-plan cursor).
    flushes_done: u64,
    /// Armed crash plan, if any; its `cut_at_flush` is rebased onto
    /// `flushes_done` when armed.
    fault: Option<FlushFaultPlan>,
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
    /// Once a fault fired the image is frozen: later flushes still advance
    /// the in-memory protocol but never reach the "media" again. Stored
    /// (Release) before `durable` passes the torn flush.
    frozen: AtomicBool,
    records: AtomicU64,
    flushes: AtomicU64,
    max_batch: AtomicU64,
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
                store: Vec::new(),
                entries: 0,
                tail: Vec::new(),
                flushes_done: 0,
                fault: None,
            }),
            frozen: AtomicBool::new(false),
            records: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
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
    ///
    /// # Panics
    /// If `seqno` was never appended: no flush could ever cover it.
    pub fn commit(&self, seqno: u64) {
        while self.durable.load(Ordering::Acquire) <= seqno {
            let head = self.head.load(Ordering::Acquire);
            assert!(
                seqno < head,
                "commit({seqno}) of a record never appended (head {head})"
            );
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

    /// Persist every staged record as one merged flush, walking the ready
    /// slots straight into the compact media image. Caller holds the
    /// flush mutex.
    fn flush_locked(&self, state: &mut FlushState) {
        let cap = self.slots.len() as u64;
        let start = self.durable.load(Ordering::Acquire);
        let end = self.head.load(Ordering::Acquire);
        if end == start {
            return;
        }
        let n = state.flushes_done;
        state.flushes_done += 1;
        // Written only under the flush mutex, which we hold.
        let media = !self.frozen.load(Ordering::Relaxed);
        let tear = state.fault.filter(|plan| media && plan.cut_at_flush == n);
        let len = (end - start) as usize * WAL_RECORD_BYTES;
        // Bytes of this flush that reach the media.
        let keep = tear.map_or(len, |plan| plan.persist_bytes.min(len));
        for (seq, at) in (start..end).zip((0..).step_by(WAL_RECORD_BYTES)) {
            let slot = &self.slots[(seq % cap) as usize];
            // A reserver may still be between its CAS and its publish;
            // the gap is one memcpy wide, so spin briefly.
            while slot.ready.load(Ordering::Acquire) != seq + 1 {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            // Safety: the ready marker's release store happens-before this
            // acquire load; the reserver is done with the slot.
            let rec = unsafe { &*slot.buf.get() };
            if media && at + WAL_RECORD_BYTES <= keep {
                let body = body_len(rec);
                state.store.push(body as u8);
                state.store.extend_from_slice(&rec[..body]);
                state.store.extend_from_slice(&rec[BODY_BYTES..]);
                state.entries += 1;
            } else if media && at < keep {
                state.tail.extend_from_slice(&rec[..keep - at]);
            }
            // Clear BEFORE advancing durable: reservation requires
            // head - durable < capacity, so the slot cannot be re-reserved
            // until durable passes it — at which point it is already 0.
            slot.ready.store(0, Ordering::Release);
        }
        if let Some(plan) = tear {
            if plan.zero_fill {
                state.tail.resize(state.tail.len() + len - keep, 0);
            }
            // Before `durable` moves: a commit that sees its record
            // durable also sees the tear.
            self.frozen.store(true, Ordering::Release);
        }
        self.durable.store(end, Ordering::Release);
        self.max_batch.fetch_max(end - start, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Arm a crash plan; its `cut_at_flush` counts the flushes from now.
    pub fn set_fault(&self, plan: FlushFaultPlan) {
        let mut state = self.flush.lock().unwrap();
        let _token = lockorder::acquire(LockClass::WalFlush);
        let cut_at_flush = state.flushes_done + plan.cut_at_flush;
        state.fault = Some(FlushFaultPlan {
            cut_at_flush,
            ..plan
        });
    }

    /// The journal's media image — what a recovery scan reads. If a fault
    /// froze the image, this is the media at the crash instant regardless
    /// of how far the in-memory protocol ran on.
    pub fn image(&self) -> Vec<u8> {
        let state = self.flush.lock().unwrap();
        let _token = lockorder::acquire(LockClass::WalFlush);
        let mut image = Vec::with_capacity(state.entries * WAL_RECORD_BYTES + state.tail.len());
        let mut entry = &state.store[..];
        while let Some((&body, rest)) = entry.split_first() {
            let (head, rest) = rest.split_at(body as usize);
            let (sum, rest) = rest.split_at(WAL_RECORD_BYTES - BODY_BYTES);
            image.extend_from_slice(head);
            image.resize(image.len() + BODY_BYTES - head.len(), 0);
            image.extend_from_slice(sum);
            entry = rest;
        }
        image.extend_from_slice(&state.tail);
        image
    }

    /// Has an armed fault fired (media frozen)? One lock-free load.
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
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
        GroupCommitStats {
            records: self.records.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
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

    #[test]
    fn a_plan_armed_late_counts_its_cut_from_arming() {
        let wal = GroupCommitWal::new(8);
        for i in 0..3 {
            let seq = wal.append(|seq| encode_write_record(seq, &wc(0, i)));
            wal.commit(seq);
        }
        let before = wal.image();
        wal.set_fault(FlushFaultPlan {
            cut_at_flush: 0,
            persist_bytes: 17,
            zero_fill: false,
        });
        let seq = wal.append(|seq| encode_write_record(seq, &wc(0, 3)));
        wal.commit(seq);
        assert!(wal.frozen(), "the first flush after arming tears");
        let image = wal.image();
        assert_eq!(image.len(), before.len() + 17);
        assert_eq!(image[..before.len()], before[..]);
    }

    #[test]
    #[should_panic(expected = "never appended")]
    fn committing_a_record_never_appended_panics() {
        let wal = GroupCommitWal::new(8);
        let seq = wal.append(|seq| encode_write_record(seq, &wc(0, 0)));
        wal.commit(seq + 1);
    }

    /// The flat media image as the WAL kept it before the image went
    /// compact: every flush appended verbatim, the torn one cut (and
    /// maybe zero-filled), then frozen. The compact store must rebuild
    /// these bytes exactly.
    struct FlatMedia {
        image: Vec<u8>,
        flushes_done: u64,
        /// `cut_at_flush` counts from the WAL's creation here.
        fault: Option<FlushFaultPlan>,
        frozen: bool,
    }

    impl FlatMedia {
        fn persist(&mut self, merged: &[u8]) {
            let n = self.flushes_done;
            self.flushes_done += 1;
            if self.frozen {
                return;
            }
            match self.fault {
                Some(plan) if plan.cut_at_flush == n => {
                    let keep = plan.persist_bytes.min(merged.len());
                    self.image.extend_from_slice(&merged[..keep]);
                    if plan.zero_fill {
                        self.image
                            .extend(std::iter::repeat_n(0u8, merged.len() - keep));
                    }
                    self.frozen = true;
                }
                _ => self.image.extend_from_slice(merged),
            }
        }
    }

    /// Any 128 bytes: all-zero body, full body, a write record with
    /// non-zero padding, a real write record, or a random body length.
    fn storm_record(rng: &mut mif_rng::SmallRng, seq: u64) -> [u8; WAL_RECORD_BYTES] {
        let mut rec = [0u8; WAL_RECORD_BYTES];
        rec.iter_mut().for_each(|b| *b = rng.gen());
        match rng.gen_range(0..5u32) {
            0 => rec[..BODY_BYTES].fill(0),
            1 => rec[BODY_BYTES - 1] |= 1,
            2 => {
                let at = rng.gen_range(47..BODY_BYTES);
                rec = encode_write_record(seq, &wc(1, seq));
                rec[at] = rng.gen_range(1..=255u8);
            }
            3 => rec = encode_write_record(seq, &wc(rng.gen_range(0..64u64), seq)),
            _ => {
                let body = rng.gen_range(0..=BODY_BYTES);
                rec[body..BODY_BYTES].fill(0);
                if body > 0 {
                    rec[body - 1] |= 0x80;
                }
                assert_eq!(body_len(&rec), body);
            }
        }
        rec
    }

    /// A cut at a record edge, mid-header, mid-payload, one byte short of
    /// an edge, or past the flush's end.
    fn storm_cut(rng: &mut mif_rng::SmallRng, cap: usize) -> usize {
        let edge = rng.gen_range(0..=cap) * WAL_RECORD_BYTES;
        match rng.gen_range(0..5u32) {
            0 => edge,
            1 => edge + rng.gen_range(1..15usize),
            2 => edge + rng.gen_range(15..BODY_BYTES),
            3 => edge + WAL_RECORD_BYTES - 1,
            _ => usize::MAX,
        }
    }

    #[test]
    fn compact_image_equals_the_flat_image_under_a_seeded_storm() {
        let mut rng = mif_rng::SmallRng::seed_from_u64(0xC0_4AC7);
        let mut froze = 0;
        for _ in 0..400 {
            let cap = rng.gen_range(1..=16usize);
            let wal = GroupCommitWal::new(cap);
            let mut flat = FlatMedia {
                image: Vec::new(),
                flushes_done: 0,
                fault: None,
                frozen: false,
            };
            // Staged records, and how many were flushed.
            let mut staged: Vec<u8> = Vec::new();
            let mut durable = 0u64;
            let arm_at = rng.gen_range(0..60u64);
            for i in 0..rng.gen_range(1..60u64) {
                if i == arm_at {
                    let plan = FlushFaultPlan {
                        cut_at_flush: rng.gen_range(0..3u64),
                        persist_bytes: storm_cut(&mut rng, cap),
                        zero_fill: rng.gen_bool(0.5),
                    };
                    wal.set_fault(plan);
                    flat.fault = Some(FlushFaultPlan {
                        cut_at_flush: flat.flushes_done + plan.cut_at_flush,
                        ..plan
                    });
                }
                if staged.len() == cap * WAL_RECORD_BYTES {
                    flat.persist(&staged);
                    durable += cap as u64;
                    staged.clear();
                }
                let rec = storm_record(&mut rng, i);
                assert_eq!(wal.append(|_| rec), i);
                staged.extend_from_slice(&rec);
                if rng.gen_bool(0.3) {
                    let seq = rng.gen_range(0..=i);
                    wal.commit(seq);
                    if seq >= durable {
                        flat.persist(&staged);
                        durable = i + 1;
                        staged.clear();
                    }
                    assert_eq!(wal.image(), flat.image);
                    assert_eq!(wal.frozen(), flat.frozen);
                }
            }
            wal.commit_all();
            if !staged.is_empty() {
                flat.persist(&staged);
            }
            assert_eq!(wal.image(), flat.image);
            assert_eq!(wal.frozen(), flat.frozen);
            assert_eq!(wal.stats().flushes, flat.flushes_done);
            froze += flat.frozen as u32;
        }
        assert!(froze > 50, "the storm must tear flushes ({froze} froze)");
    }

    /// The engine's pattern: write records through a 1 024-slot slab. Each
    /// keeps at most 56 bytes resident (the 128-byte record less its zero
    /// padding), and the image still rebuilds to 128 bytes a record.
    #[test]
    fn a_write_record_keeps_at_most_56_bytes_resident() {
        const RECORDS: u64 = 262_144;
        let wal = GroupCommitWal::new(1024);
        for i in 0..RECORDS {
            wal.append(|seq| {
                encode_write_record(
                    seq,
                    &WriteCommit {
                        file: 1 + i % 8,
                        stream: i % 512,
                        offset: i * 16,
                        len: 16,
                    },
                )
            });
        }
        wal.commit_all();
        let resident = wal.flush.lock().unwrap().store.len() as u64;
        assert!(
            resident <= 56 * RECORDS,
            "{resident} bytes resident for {RECORDS} records"
        );
        assert_eq!(wal.image().len() as u64, RECORDS * WAL_RECORD_BYTES as u64);
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
