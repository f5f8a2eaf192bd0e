//! Bounded MPSC frame queue with parking backpressure, stored as a byte
//! ring.
//!
//! Each worker shard owns one [`BoundedQueue`]. Submitters push encoded
//! request frames; the shard's worker drains them in arrival order. The
//! queue is the *backpressure* point of the service: when it is full the
//! submitter **parks** on a condvar until the worker frees space — frames
//! are never dropped and never reordered, so a client's program order is
//! exactly the queue order of its frames (each client maps to one shard).
//!
//! Frames are *copied* into the queue, back to back in one `Vec<u8>`, each
//! behind a `u32` length the queue writes itself (so the queue trusts
//! nothing inside a frame, and the worker's strict decode stays an
//! independent check). The worker drains into a [`FrameBatch`] it owns and
//! reuses. Nothing is allocated per frame, and — the reason for the shape —
//! nothing a submitter allocated is ever freed by the worker: with a `Vec`
//! per frame every worker-side `free` contends for the submitter's malloc
//! arena, on the worker's critical path.
//!
//! A wake costs a `FUTEX_WAKE` syscall even when nobody sleeps, so the
//! queue counts its sleeping worker and its parked submitters and signals a
//! condvar only when its count is non-zero (docs/SERVER.md, "Who wakes
//! whom").
//!
//! Lock discipline: the internal mutex is rank
//! [`LockClass::ServerQueue`] — above every engine lock (a worker always
//! releases the queue before touching `ConcurrentFs`), below
//! `ServerSession` (a submitter may hold its session while enqueueing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use mif_alloc::lockorder::{self, LockClass};

/// Push failed because the queue was closed (server shut down or died
/// mid-flush). The caller still has its frame: pushes copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

/// Bytes of the length the queue writes before each frame.
const LEN_BYTES: usize = 4;

/// Split the first length-prefixed frame off `bytes`: the frame, the rest.
fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<LEN_BYTES>()?;
    Some(rest.split_at(u32::from_le_bytes(*len) as usize))
}

/// One drained batch: the worker's own buffer, refilled by every
/// [`BoundedQueue::pop_batch`] and never freed between batches.
#[derive(Default)]
pub struct FrameBatch {
    /// `frames` length-prefixed frames, back to back.
    bytes: Vec<u8>,
    frames: usize,
}

impl FrameBatch {
    /// Frames in the batch.
    pub fn len(&self) -> usize {
        self.frames
    }

    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// The frames, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.bytes.as_slice();
        std::iter::from_fn(move || {
            let (frame, tail) = split_frame(rest)?;
            rest = tail;
            Some(frame)
        })
    }
}

struct Inner {
    /// Dead bytes of already-drained frames up to `head`, then the queued
    /// frames, oldest first, each behind its length.
    bytes: Vec<u8>,
    head: usize,
    /// Queued frames: what `capacity` bounds.
    frames: usize,
    closed: bool,
    /// Threads waiting on `not_empty` / `not_full` right now. A waiter
    /// counts itself in under the lock before it waits, and a notifier
    /// reads the count under the same lock: no waiter, no wake syscall.
    sleeping_workers: usize,
    parked_pushers: usize,
}

/// A bounded, closeable, park-don't-drop frame queue.
pub struct BoundedQueue {
    inner: Mutex<Inner>,
    /// Signalled when frames arrive (or on close): wakes the worker.
    not_empty: Condvar,
    /// Signalled when space frees (or on close): wakes parked submitters.
    not_full: Condvar,
    capacity: usize,
    /// Times a push had to park because the queue was full.
    parks: AtomicU64,
    /// High-water mark of the queue depth.
    max_depth: AtomicU64,
}

impl BoundedQueue {
    /// A queue that parks pushes while `capacity` frames are queued.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never accept");
        BoundedQueue {
            inner: Mutex::new(Inner {
                bytes: Vec::new(),
                head: 0,
                frames: 0,
                closed: false,
                sleeping_workers: 0,
                parked_pushers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            parks: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    /// Enqueue a copy of one frame, parking while the queue is full.
    /// Frames from one submitter thread enter in call order. Fails if the
    /// queue is (or becomes, while parked) closed.
    pub fn push(&self, frame: &[u8]) -> Result<(), QueueClosed> {
        let len = u32::try_from(frame.len()).expect("a frame's length fits its u32 prefix");
        let token = lockorder::acquire(LockClass::ServerQueue);
        let mut inner = self.inner.lock().unwrap();
        if inner.frames >= self.capacity && !inner.closed {
            self.parks.fetch_add(1, Ordering::Relaxed);
            while inner.frames >= self.capacity && !inner.closed {
                inner.parked_pushers += 1;
                inner = self.not_full.wait(inner).unwrap();
                inner.parked_pushers -= 1;
            }
        }
        if inner.closed {
            drop(inner);
            drop(token);
            return Err(QueueClosed);
        }
        inner.bytes.extend_from_slice(&len.to_le_bytes());
        inner.bytes.extend_from_slice(frame);
        inner.frames += 1;
        self.max_depth
            .fetch_max(inner.frames as u64, Ordering::Relaxed);
        let wake = inner.sleeping_workers > 0;
        drop(inner);
        drop(token);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Refill `batch` with up to `max` frames in arrival order, blocking
    /// while the queue is empty and open. Leaves it empty only when the
    /// queue is closed *and* fully drained — the worker's exit signal.
    pub fn pop_batch(&self, max: usize, batch: &mut FrameBatch) {
        batch.bytes.clear();
        let token = lockorder::acquire(LockClass::ServerQueue);
        let mut guard = self.inner.lock().unwrap();
        while guard.frames == 0 && !guard.closed {
            guard.sleeping_workers += 1;
            guard = self.not_empty.wait(guard).unwrap();
            guard.sleeping_workers -= 1;
        }
        let inner = &mut *guard;
        batch.frames = inner.frames.min(max);
        if batch.frames == inner.frames && inner.head == 0 {
            // Everything: trade buffers. The worker's emptied one becomes
            // the ring, so both keep their capacity and neither is freed.
            std::mem::swap(&mut inner.bytes, &mut batch.bytes);
        } else {
            let queued = &inner.bytes[inner.head..];
            let mut rest = queued;
            for _ in 0..batch.frames {
                (_, rest) = split_frame(rest).expect("`frames` whole frames are queued");
            }
            let taken = queued.len() - rest.len();
            batch.bytes.extend_from_slice(&queued[..taken]);
            inner.head += taken;
            // Reclaim the dead prefix once it is at least as long as what
            // is left to move: each queued byte is moved at most once more.
            if inner.head >= inner.bytes.len() - inner.head {
                inner.bytes.drain(..inner.head);
                inner.head = 0;
            }
        }
        inner.frames -= batch.frames;
        let wake = inner.parked_pushers > 0;
        drop(guard);
        drop(token);
        if wake {
            // Space freed: wake every parked submitter (they re-check).
            self.not_full.notify_all();
        }
    }

    /// Close the queue: parked submitters fail their push, the worker
    /// drains what remains and then sees the empty-and-closed exit signal.
    pub fn close(&self) {
        let token = lockorder::acquire(LockClass::ServerQueue);
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        drop(token);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Times a push parked on a full queue.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue depth.
    pub fn max_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, Op, Request};
    use mif_rng::SmallRng;
    use std::sync::Arc;

    fn pop(q: &BoundedQueue, max: usize) -> Vec<Vec<u8>> {
        let mut batch = FrameBatch::default();
        q.pop_batch(max, &mut batch);
        assert_eq!(batch.iter().count(), batch.len());
        batch.iter().map(<[u8]>::to_vec).collect()
    }

    /// Spin (no sleeping) until a submitter is parked on the full queue.
    fn await_park(q: &BoundedQueue) {
        while q.parks() == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_within_a_submitter() {
        let q = BoundedQueue::new(8);
        for i in 0u8..5 {
            q.push(&[i]).unwrap();
        }
        assert_eq!(pop(&q, 3), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(pop(&q, 10), vec![vec![3], vec![4]]);
        assert_eq!(q.max_depth(), 5);
        assert_eq!(q.parks(), 0);
    }

    #[test]
    fn full_queue_parks_then_resumes_without_loss() {
        let q = Arc::new(BoundedQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0u8..10 {
                    q.push(&[i]).unwrap();
                }
            })
        };
        await_park(&q);
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(pop(&q, 4));
        }
        producer.join().unwrap();
        let want: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i]).collect();
        assert_eq!(got, want, "parking must not drop or reorder");
        assert!(q.max_depth() <= 2, "capacity counts frames");
    }

    #[test]
    fn close_wakes_parked_submitter() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(&[0]).unwrap();
        let parked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(&[1]))
        };
        await_park(&q);
        q.close();
        assert_eq!(parked.join().unwrap(), Err(QueueClosed));
        assert_eq!(q.push(&[2]), Err(QueueClosed));
        // The worker still drains what made it in, then gets the exit
        // signal.
        assert_eq!(pop(&q, 8), vec![vec![0]]);
        assert!(pop(&q, 8).is_empty());
    }

    #[test]
    fn pop_waits_for_a_frame() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop(&q, 1))
        };
        q.push(&[7]).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![vec![7]]);
    }

    /// `(worker asleep, submitters parked, frames queued)`, read under the
    /// queue's lock.
    fn sleep_state(q: &BoundedQueue) -> (usize, usize, usize) {
        let inner = q.inner.lock().unwrap();
        (inner.sleeping_workers, inner.parked_pushers, inner.frames)
    }

    #[test]
    fn a_push_always_wakes_a_sleeping_worker() {
        // Every frame is pushed only once the worker has taken the last
        // one and gone back to sleep. `pop_batch` waits without a
        // timeout, so a single lost wake hangs this test.
        const FRAMES: u32 = 20_000;
        let q = Arc::new(BoundedQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..FRAMES {
                    assert_eq!(pop(&q, 4), vec![i.to_le_bytes().to_vec()]);
                }
            })
        };
        for i in 0..FRAMES {
            while sleep_state(&q) != (1, 0, 0) {
                std::thread::yield_now();
            }
            q.push(&i.to_le_bytes()).unwrap();
        }
        worker.join().unwrap();
    }

    #[test]
    fn a_pop_always_wakes_a_parked_push() {
        // Every pop happens only once the submitter is parked behind a
        // full queue. `push` parks without a timeout, so a single lost
        // wake hangs this test.
        const ROUNDS: u32 = 2_000;
        let q = Arc::new(BoundedQueue::new(1));
        let submitter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..=ROUNDS {
                    q.push(&i.to_le_bytes()).unwrap();
                }
            })
        };
        for i in 0..ROUNDS {
            while sleep_state(&q) != (0, 1, 1) {
                std::thread::yield_now();
            }
            assert_eq!(pop(&q, 1), vec![i.to_le_bytes().to_vec()]);
        }
        submitter.join().unwrap();
        assert_eq!(pop(&q, 1), vec![ROUNDS.to_le_bytes().to_vec()]);
        assert_eq!(q.parks(), ROUNDS as u64);
    }

    #[test]
    fn frames_of_any_size_keep_their_bytes_and_boundaries() {
        let frame = |seq_no, op| {
            encode_request(&Request {
                client_id: 3,
                seq_no,
                sent_at_ns: 0,
                op,
            })
        };
        let frames = vec![
            frame(1, Op::Sync),
            frame(
                2,
                Op::Create {
                    name: "n".repeat(u16::MAX as usize),
                    size_hint_blocks: None,
                },
            ),
            Vec::new(),
            frame(
                3,
                Op::Write {
                    handle: 1,
                    stream: 2,
                    offset: 3,
                    len: 4,
                },
            ),
            frame(4, Op::Open { name: "o".into() }),
        ];
        let q = BoundedQueue::new(8);
        for max in [1, 2, 8] {
            for f in &frames {
                q.push(f).unwrap();
            }
            let mut got = Vec::new();
            while got.len() < frames.len() {
                got.extend(pop(&q, max));
            }
            assert_eq!(got, frames, "batches of {max}");
        }
    }

    #[test]
    fn a_deep_queue_drains_in_order_over_many_pops() {
        let mut rng = SmallRng::seed_from_u64(13);
        let frames: Vec<Vec<u8>> = (0..200u32)
            .map(|i| {
                let mut f = i.to_le_bytes().to_vec();
                f.resize(4 + rng.gen_range(0..300usize), i as u8);
                f
            })
            .collect();
        let q = BoundedQueue::new(64);
        let mut batch = FrameBatch::default();
        let (mut pushed, mut popped) = (0, 0);
        while popped < frames.len() {
            // Refill to capacity, so every pop but the last leaves a
            // remainder behind, past dead bytes that get reclaimed.
            while pushed < frames.len() && pushed - popped < 64 {
                q.push(&frames[pushed]).unwrap();
                pushed += 1;
            }
            q.pop_batch(5, &mut batch);
            assert_eq!(batch.len(), 5.min(pushed - popped));
            for got in batch.iter() {
                assert_eq!(got, frames[popped], "frame {popped}");
                popped += 1;
            }
        }
        assert_eq!(q.parks(), 0);
        assert_eq!(q.max_depth(), 64);
    }

    /// Submitter `s`'s `i`th frame: tagged, of a seeded length, filled
    /// from the same generator.
    fn storm_frame(s: u8, i: u32, rng: &mut SmallRng) -> Vec<u8> {
        let mut f = vec![s];
        f.extend_from_slice(&i.to_le_bytes());
        for _ in 0..rng.gen_range(0..160usize) {
            f.push(rng.next_u32() as u8);
        }
        f
    }

    #[test]
    fn submitter_storm_keeps_every_byte_and_each_submitters_order() {
        const SUBMITTERS: u8 = 4;
        const FRAMES: u32 = 10_000;
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x51AB + s as u64);
                    for i in 0..FRAMES {
                        q.push(&storm_frame(s, i, &mut rng)).unwrap();
                    }
                })
            })
            .collect();
        // The consumer replays each submitter's generator to know what
        // that submitter's next frame must be, byte for byte.
        let mut expect: Vec<(u32, SmallRng)> = (0..SUBMITTERS)
            .map(|s| (0, SmallRng::seed_from_u64(0x51AB + s as u64)))
            .collect();
        let mut batch = FrameBatch::default();
        let mut seen = 0;
        while seen < SUBMITTERS as u32 * FRAMES {
            q.pop_batch(3, &mut batch);
            for got in batch.iter() {
                let (next, rng) = &mut expect[got[0] as usize];
                assert_eq!(got, storm_frame(got[0], *next, rng), "frame {seen}");
                *next += 1;
                seen += 1;
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(expect.iter().all(|(next, _)| *next == FRAMES));
        assert!(q.max_depth() <= 4, "capacity counts frames");
        assert!(q.parks() > 0, "4 submitters through 4 slots must park");
    }
}
