//! A bounded block cache with exact LRU eviction, stored as runs.
//!
//! Caches whole blocks brought in by reads and readahead; a read fully
//! covered by cached blocks is a memory hit and costs no disk time. Writes
//! update the cache (the MDS in the paper runs synchronous writes, so dirty
//! data still goes to the platter — the cache only short-circuits reads).
//!
//! The unit of bookkeeping is the contiguous run, not the block: cached
//! blocks live as disjoint runs threaded on one LRU list. The LRU order of
//! the *blocks* is list position first, ascending block number inside a
//! run second. Every caller touches a range in ascending block order, so
//! "touch a range" is exactly "cut the range out of whatever runs hold
//! parts of it, leaving the remainders where they are, and append it at the
//! newest end" — the victim of every eviction is the one a per-block LRU
//! would pick.
//!
//! The index is a hash map of 64-block buckets. No run crosses a bucket
//! boundary: an appended range is cut at each boundary into ascending runs,
//! adjacent in the list, which is the same block order as one run. So the
//! run holding block `b` starts in bucket `b / 64`, and each bucket chains
//! the (at most 64) runs starting in it. A lookup is one hash probe and a
//! scan of one chain; eviction trims a run's low end, which stays in its
//! bucket, so it never re-keys; a carve spanning more buckets than there
//! are runs walks the runs instead of probing empty buckets. The map is
//! probed, never iterated, so its hash order cannot reach a result.

use crate::BlockNo;
use mif_rng::IdMap;

/// Blocks per index bucket, and so the most runs one chain can hold.
/// Smaller buckets cut streaming runs too often; larger ones lengthen the
/// chain every lookup scans.
const BUCKET_BLOCKS: u64 = 64;

/// Slab slot of "no run": list and chain ends, empty-list head/tail.
const NIL: u32 = u32::MAX;

fn bucket(b: BlockNo) -> u64 {
    b / BUCKET_BLOCKS
}

/// One cached run `start..start + len`, linked into the LRU list and into
/// its bucket's chain.
#[derive(Debug)]
struct Run {
    start: BlockNo,
    len: u64,
    /// Neighbour towards the oldest run.
    prev: u32,
    /// Neighbour towards the newest run.
    next: u32,
    /// Next run starting in the same bucket (chains are unordered).
    chain: u32,
}

impl Run {
    fn end(&self) -> BlockNo {
        self.start + self.len
    }
}

/// Fixed-capacity LRU block cache.
#[derive(Debug)]
pub struct BlockCache {
    capacity: u64,
    /// Bucket -> first slot of the chain of runs starting in it. A bucket
    /// without runs has no entry.
    index: IdMap<u64, u32>,
    /// Run slab; slots not on a chain are on `free`.
    runs: Vec<Run>,
    free: Vec<u32>,
    /// Oldest run; eviction trims its low end.
    head: u32,
    /// Newest run; touched ranges are appended here.
    tail: u32,
    /// Blocks currently cached (sum of run lengths).
    cached: u64,
}

impl BlockCache {
    /// `capacity` is in blocks; 0 disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity as u64,
            index: IdMap::default(),
            runs: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cached: 0,
        }
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.cached as usize
    }

    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    /// True if every block of `start..start+len` is cached. Touches the
    /// blocks (LRU refresh) when they all hit.
    pub fn contains_range(&mut self, start: BlockNo, len: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if len == 0 {
            return true;
        }
        if self.cached_run_len(start, len) < len {
            return false;
        }
        self.touch_range(start, len);
        true
    }

    /// Length of the contiguously-cached run starting at `start`, capped at
    /// `max` (the readahead pipeline's "runway").
    pub fn cached_run_len(&self, start: BlockNo, max: u64) -> u64 {
        let Some(slot) = self.find(start) else {
            return 0;
        };
        let mut end = self.runs[slot as usize].end();
        // Block-adjacent runs continue the coverage; the run holding `end`
        // can only start there.
        while end - start < max {
            match self.find(end) {
                Some(next) => end = self.runs[next as usize].end(),
                None => break,
            }
        }
        (end - start).min(max)
    }

    /// Insert a run of blocks, evicting least-recently-used blocks beyond
    /// capacity.
    pub fn insert_range(&mut self, start: BlockNo, len: u64) {
        if self.capacity == 0 || len == 0 {
            return;
        }
        self.touch_range(start, len);
        self.evict();
    }

    /// Drop a run of blocks (e.g. after they are freed on disk).
    pub fn invalidate_range(&mut self, start: BlockNo, len: u64) {
        if len > 0 {
            self.carve(start, start + len);
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.index.clear();
        self.runs.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.cached = 0;
    }

    /// The slot of the run holding block `b`, if one does.
    fn find(&self, b: BlockNo) -> Option<u32> {
        let mut slot = *self.index.get(&bucket(b))?;
        while slot != NIL {
            let run = &self.runs[slot as usize];
            if run.start <= b && b < run.end() {
                return Some(slot);
            }
            slot = run.chain;
        }
        None
    }

    fn live_runs(&self) -> usize {
        self.runs.len() - self.free.len()
    }

    /// Make `start..start+len` (`len > 0`) the newest blocks, in ascending
    /// order, caching whichever of them were not.
    fn touch_range(&mut self, start: BlockNo, len: u64) {
        let end = start + len;
        // A suffix of the newest run already is the newest, in order.
        if self.tail != NIL {
            let t = &self.runs[self.tail as usize];
            if t.start <= start && t.end() == end {
                return;
            }
        }
        // Exactly one whole run: move it, no index change. (It is not the
        // tail — that was a suffix of the tail.)
        if let Some(slot) = self.find(start) {
            let run = &self.runs[slot as usize];
            if run.start == start && run.len == len {
                self.unlink(slot);
                self.push_newest(slot);
                return;
            }
        }
        self.carve(start, end);
        // Blocks before the last `capacity` would be evicted at once.
        let mut at = start.max(end.saturating_sub(self.capacity));
        self.cached += end - at;
        // One run per bucket, oldest (lowest) first — except that the
        // newest run grows when block-adjacent inside its bucket (streaming;
        // still ascending = older first).
        while at < end {
            let len = (end - at).min(BUCKET_BLOCKS - at % BUCKET_BLOCKS);
            let tail = self.tail as usize;
            if self.tail != NIL && self.runs[tail].end() == at && !at.is_multiple_of(BUCKET_BLOCKS)
            {
                self.runs[tail].len += len;
            } else {
                let slot = self.alloc(at, len);
                self.push_newest(slot);
                self.runs[slot as usize].chain = self.index.insert(bucket(at), slot).unwrap_or(NIL);
            }
            at += len;
        }
    }

    /// Remove every cached block of `start..end` (`start < end`). A run cut
    /// in the middle leaves its left and right remainders adjacent, in
    /// place, in the LRU list, so the survivors keep their relative order.
    fn carve(&mut self, start: BlockNo, end: BlockNo) {
        let (first, last) = (bucket(start), bucket(end - 1));
        if last - first < self.live_runs() as u64 {
            for k in first..=last {
                self.carve_bucket(k, start, end);
            }
            return;
        }
        // More buckets than runs: walk the runs and carve each one's overlap
        // alone, which drops or trims that run only, so `next` stays valid.
        let mut slot = self.head;
        while slot != NIL {
            let run = &self.runs[slot as usize];
            let (run_start, run_end, next) = (run.start, run.end(), run.next);
            if run_start < end && run_end > start {
                self.carve_bucket(bucket(run_start), run_start.max(start), run_end.min(end));
            }
            slot = next;
        }
    }

    /// [`Self::carve`] for the runs starting in bucket `k`.
    fn carve_bucket(&mut self, k: u64, start: BlockNo, end: BlockNo) {
        let Some(&old_first) = self.index.get(&k) else {
            return;
        };
        // `kept`: the last run left on the chain, whose link skips drops.
        let (mut first, mut kept, mut slot) = (old_first, NIL, old_first);
        while slot != NIL {
            let run = &mut self.runs[slot as usize];
            let (run_start, run_end, next) = (run.start, run.end(), run.chain);
            if run_end <= start || run_start >= end {
                kept = slot;
            } else if start <= run_start && run_end <= end {
                self.cached -= run.len;
                match kept {
                    NIL => first = next,
                    p => self.runs[p as usize].chain = next,
                }
                self.unlink(slot);
                self.free.push(slot);
            } else {
                // Trimmed in place; a middle cut adds the right remainder
                // after it, in the list and on the chain.
                self.cached -= run_end.min(end) - run_start.max(start);
                if run_start < start {
                    run.len = start - run_start;
                    if run_end > end {
                        let right = self.alloc(end, run_end - end);
                        self.link_after(right, slot);
                        self.runs[right as usize].chain = next;
                        self.runs[slot as usize].chain = right;
                    }
                } else {
                    run.start = end;
                    run.len = run_end - end;
                }
                kept = slot;
            }
            slot = next;
        }
        if first == NIL {
            self.index.remove(&k);
        } else if first != old_first {
            self.index.insert(k, first);
        }
    }

    /// Trim the oldest blocks — the low end of the oldest run — until the
    /// cache fits. A trimmed run's new start stays in its bucket.
    fn evict(&mut self) {
        while self.cached > self.capacity {
            let excess = self.cached - self.capacity;
            let run = &mut self.runs[self.head as usize];
            if run.len <= excess {
                let (start, end) = (run.start, run.end());
                self.carve(start, end);
            } else {
                run.start += excess;
                run.len -= excess;
                self.cached -= excess;
            }
        }
    }

    /// A slab slot holding the (unlinked, unchained) run `start..start+len`.
    fn alloc(&mut self, start: BlockNo, len: u64) -> u32 {
        let run = Run {
            start,
            len,
            prev: NIL,
            next: NIL,
            chain: NIL,
        };
        match self.free.pop() {
            Some(slot) => {
                self.runs[slot as usize] = run;
                slot
            }
            None => {
                assert!(self.runs.len() < NIL as usize, "run slab outgrew u32 slots");
                self.runs.push(run);
                (self.runs.len() - 1) as u32
            }
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Run { prev, next, .. } = self.runs[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.runs[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.runs[n as usize].prev = prev,
        }
    }

    /// Link the unlinked `slot` right after (newer than) `after`.
    fn link_after(&mut self, slot: u32, after: u32) {
        let next = self.runs[after as usize].next;
        self.runs[slot as usize].prev = after;
        self.runs[slot as usize].next = next;
        self.runs[after as usize].next = slot;
        match next {
            NIL => self.tail = slot,
            n => self.runs[n as usize].prev = slot,
        }
    }

    /// Link the unlinked `slot` at the newest end.
    fn push_newest(&mut self, slot: u32) {
        if self.tail == NIL {
            self.runs[slot as usize].prev = NIL;
            self.runs[slot as usize].next = NIL;
            self.head = slot;
            self.tail = slot;
        } else {
            self.link_after(slot, self.tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_rng::SmallRng;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn hit_after_insert() {
        let mut c = BlockCache::new(16);
        c.insert_range(10, 4);
        assert!(c.contains_range(10, 4));
        assert!(c.contains_range(11, 2));
    }

    #[test]
    fn partial_coverage_is_a_miss() {
        let mut c = BlockCache::new(16);
        c.insert_range(10, 4);
        assert!(!c.contains_range(12, 4));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = BlockCache::new(0);
        c.insert_range(0, 4);
        assert!(!c.contains_range(0, 1));
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_is_lru() {
        let mut c = BlockCache::new(4);
        c.insert_range(0, 4); // blocks 0..4
        assert!(c.contains_range(0, 2)); // refresh 0,1
        c.insert_range(100, 2); // evicts 2,3 (least recently used)
        assert!(c.contains_range(0, 2));
        assert!(!c.contains_range(2, 1));
        assert!(c.contains_range(100, 2));
    }

    #[test]
    fn invalidate_removes_blocks() {
        let mut c = BlockCache::new(16);
        c.insert_range(0, 8);
        c.invalidate_range(2, 2);
        assert!(!c.contains_range(0, 8));
        assert!(c.contains_range(0, 2));
        assert!(c.contains_range(4, 4));
    }

    #[test]
    fn capacity_bound_holds() {
        let mut c = BlockCache::new(8);
        for i in 0..10 {
            c.insert_range(i * 10, 3);
        }
        assert!(c.len() <= 8);
    }

    /// The per-block LRU this cache replaced, kept verbatim as the oracle:
    /// one tick per touched block, eviction pops the smallest tick.
    struct PerBlockLru {
        capacity: usize,
        blocks: HashMap<BlockNo, u64>,
        order: BTreeMap<u64, BlockNo>,
        tick: u64,
    }

    impl PerBlockLru {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                blocks: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }
        }

        fn contains_range(&mut self, start: BlockNo, len: u64) -> bool {
            if self.capacity == 0 {
                return false;
            }
            if !(start..start + len).all(|b| self.blocks.contains_key(&b)) {
                return false;
            }
            for b in start..start + len {
                self.touch(b);
            }
            true
        }

        fn cached_run_len(&self, start: BlockNo, max: u64) -> u64 {
            let mut n = 0;
            while n < max && self.blocks.contains_key(&(start + n)) {
                n += 1;
            }
            n
        }

        fn insert_range(&mut self, start: BlockNo, len: u64) {
            if self.capacity == 0 {
                return;
            }
            for b in start..start + len {
                self.touch(b);
            }
            while self.blocks.len() > self.capacity {
                let Some((_, victim)) = self.order.pop_first() else {
                    break;
                };
                self.blocks.remove(&victim);
            }
        }

        fn invalidate_range(&mut self, start: BlockNo, len: u64) {
            for b in start..start + len {
                if let Some(t) = self.blocks.remove(&b) {
                    self.order.remove(&t);
                }
            }
        }

        fn touch(&mut self, b: BlockNo) {
            self.tick += 1;
            if let Some(old) = self.blocks.insert(b, self.tick) {
                self.order.remove(&old);
            }
            self.order.insert(self.tick, b);
        }
    }

    impl BlockCache {
        /// `(start, len)` of every run, oldest first, after checking the
        /// structure: list links both ways; no run crosses a bucket; each
        /// chain holds exactly the runs starting in its bucket and no empty
        /// chain is kept; slab and block accounting.
        fn run_list(&self) -> Vec<(BlockNo, u64)> {
            let mut out = Vec::new();
            let mut by_bucket: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let (mut prev, mut slot) = (NIL, self.head);
            while slot != NIL {
                let run = &self.runs[slot as usize];
                assert_eq!(run.prev, prev);
                assert!(run.len > 0);
                assert_eq!(bucket(run.start), bucket(run.end() - 1), "{run:?} crosses");
                by_bucket.entry(bucket(run.start)).or_default().push(slot);
                out.push((run.start, run.len));
                (prev, slot) = (slot, run.next);
            }
            assert_eq!(self.tail, prev);
            assert_eq!(self.index.len(), by_bucket.len());
            for (k, mut want) in by_bucket {
                let mut chain = Vec::new();
                let mut at = self.index[&k];
                while at != NIL {
                    chain.push(at);
                    at = self.runs[at as usize].chain;
                }
                chain.sort_unstable();
                want.sort_unstable();
                assert_eq!(chain, want, "chain of bucket {k}");
            }
            assert_eq!(out.len(), self.live_runs());
            assert_eq!(out.iter().map(|r| r.1).sum::<u64>(), self.cached);
            out
        }

        /// Every cached block, oldest first.
        fn lru_order(&self) -> Vec<BlockNo> {
            let runs = self.run_list();
            runs.iter().flat_map(|&(s, len)| s..s + len).collect()
        }
    }

    /// Apply one random call to both caches and check they agree on its
    /// answer, their size and the LRU order of every block.
    fn step(
        cache: &mut BlockCache,
        oracle: &mut PerBlockLru,
        rng: &mut SmallRng,
        at: (u64, u64),
        ctx: &str,
    ) {
        let (start, len) = at;
        match rng.gen_range(0u32..10) {
            0..=3 => {
                cache.insert_range(start, len);
                oracle.insert_range(start, len);
            }
            4..=6 => assert_eq!(
                cache.contains_range(start, len),
                oracle.contains_range(start, len),
                "{ctx} contains_range"
            ),
            7..=8 => assert_eq!(
                cache.cached_run_len(start, len),
                oracle.cached_run_len(start, len),
                "{ctx} cached_run_len"
            ),
            _ => {
                cache.invalidate_range(start, len);
                oracle.invalidate_range(start, len);
            }
        }
        assert_eq!(cache.len(), oracle.blocks.len(), "{ctx} len");
        assert_eq!(cache.is_empty(), oracle.blocks.is_empty(), "{ctx}");
        let want: Vec<BlockNo> = oracle.order.values().copied().collect();
        assert_eq!(cache.lru_order(), want, "{ctx} LRU order");
    }

    #[test]
    fn matches_per_block_lru_on_every_op() {
        for capacity in [1usize, 4, 16, 64, 257] {
            let seed = 0xCAC4_E000 + capacity as u64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cache = BlockCache::new(capacity);
            let mut oracle = PerBlockLru::new(capacity);
            let mut recent = [(0u64, 0u64); 4];
            for op in 0..20_000 {
                // One op in four revisits a recent range exactly, so the
                // suffix-of-tail and whole-run fast paths see real traffic.
                let (start, len) = if rng.gen_range(0u32..4) == 0 {
                    recent[rng.gen_range(0usize..recent.len())]
                } else {
                    (rng.gen_range(0u64..400), rng.gen_range(0u64..40))
                };
                recent[op % recent.len()] = (start, len);
                let ctx = format!("seed {seed:#x} op {op}: {start}+{len}");
                step(&mut cache, &mut oracle, &mut rng, (start, len), &ctx);
            }
        }
    }

    #[test]
    fn matches_per_block_lru_across_buckets() {
        for capacity in [64usize, 1_000, 4_096] {
            let seed = 0xB0C4_E000 + capacity as u64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cache = BlockCache::new(capacity);
            let mut oracle = PerBlockLru::new(capacity);
            let mut stream = 0u64;
            for op in 0..5_000 {
                // One op in three continues a sequential stream, half of
                // them by exactly the rest of its bucket, so the newest run
                // keeps ending on a bucket edge.
                let (start, len) = if rng.gen_range(0u32..3) == 0 {
                    let len = match rng.gen::<bool>() {
                        true => BUCKET_BLOCKS - stream % BUCKET_BLOCKS,
                        false => rng.gen_range(1u64..300),
                    };
                    let at = stream;
                    stream = if at + len < 4_000 {
                        at + len
                    } else {
                        rng.gen_range(0u64..4_000)
                    };
                    (at, len)
                } else {
                    (rng.gen_range(0u64..4_000), rng.gen_range(0u64..300))
                };
                let ctx = format!("seed {seed:#x} op {op}: {start}+{len}");
                step(&mut cache, &mut oracle, &mut rng, (start, len), &ctx);
            }
        }
    }

    #[test]
    fn zero_length_and_zero_capacity_edges() {
        let mut c = BlockCache::new(8);
        assert!(c.contains_range(5, 0));
        assert_eq!(c.cached_run_len(5, 0), 0);
        c.insert_range(5, 0);
        c.invalidate_range(5, 0);
        assert!(c.is_empty());
        c.insert_range(0, 4);
        assert!(c.contains_range(2, 0));
        assert_eq!(c.cached_run_len(2, 0), 0);
        assert_eq!(c.run_list(), [(0, 4)]);
        c.invalidate_range(10, 5); // over nothing
        assert_eq!(c.run_list(), [(0, 4)]);
        c.clear();
        assert!(c.is_empty() && c.runs.is_empty() && c.index.is_empty());
        assert_eq!((c.head, c.tail), (NIL, NIL));
        assert!(c.lru_order().is_empty());

        let mut z = BlockCache::new(0);
        assert!(!z.contains_range(0, 0));
        assert_eq!(z.cached_run_len(0, 4), 0);
        z.invalidate_range(0, 4);
        assert_eq!(z.len(), 0);
    }

    #[test]
    fn insert_longer_than_capacity_keeps_its_last_blocks() {
        let mut c = BlockCache::new(8);
        c.insert_range(500, 3);
        c.insert_range(100, 20);
        assert_eq!(c.run_list(), [(112, 8)]);
        assert_eq!(c.lru_order(), (112..120).collect::<Vec<_>>());
    }

    #[test]
    fn suffix_of_tail_touch_changes_nothing() {
        let mut c = BlockCache::new(64);
        c.insert_range(0, 4);
        c.insert_range(10, 10);
        let (runs, index) = (c.run_list(), c.index.clone());
        assert!(c.contains_range(15, 5));
        assert!(c.contains_range(10, 10));
        c.insert_range(19, 1);
        assert_eq!(c.run_list(), runs);
        assert_eq!(c.index, index);
        assert_eq!(c.runs.len(), 2);
    }

    #[test]
    fn whole_run_touch_moves_without_rekeying() {
        let mut c = BlockCache::new(64);
        c.insert_range(0, 4);
        c.insert_range(10, 1);
        c.insert_range(20, 4);
        let index = c.index.clone();
        assert!(c.contains_range(10, 1));
        assert_eq!(c.run_list(), [(0, 4), (20, 4), (10, 1)]);
        c.insert_range(0, 4);
        assert_eq!(c.run_list(), [(20, 4), (10, 1), (0, 4)]);
        assert_eq!(c.index, index, "same keys, same slots");
        assert_eq!(c.runs.len(), 3);
    }

    #[test]
    fn middle_split_keeps_left_before_right() {
        let mut c = BlockCache::new(64);
        c.insert_range(0, 10);
        c.insert_range(100, 5);
        assert!(c.contains_range(3, 3));
        assert_eq!(c.run_list(), [(0, 3), (6, 4), (100, 5), (3, 3)]);
        // Eviction takes all of the left remainder before any of the right.
        c.insert_range(200, 64 - 15);
        c.insert_range(300, 4);
        assert_eq!(c.run_list()[..2], [(7, 3), (100, 5)]);
    }

    #[test]
    fn invalidate_spanning_three_runs_and_two_gaps() {
        let mut c = BlockCache::new(64);
        c.insert_range(0, 10);
        c.insert_range(20, 5);
        c.insert_range(30, 10);
        c.invalidate_range(5, 30); // 5..35: tail of run 1, all of 2, head of 3
        assert_eq!(c.run_list(), [(0, 5), (35, 5)]);
        assert_eq!(c.len(), 10);
        assert_eq!(c.free.len(), 1);
        assert_eq!(c.cached_run_len(0, 100), 5);
        assert_eq!(c.cached_run_len(35, 3), 3);
        assert!(!c.contains_range(4, 2));
    }

    #[test]
    fn invalidate_over_more_buckets_than_runs_walks_the_runs() {
        let mut c = BlockCache::new(4_096);
        c.insert_range(0, 10);
        c.insert_range(640, 20);
        c.insert_range(99_000, 6);
        c.insert_range(200_000, 8);
        // 5..99_003 spans 1 547 buckets and the cache holds 4 runs.
        c.invalidate_range(5, 99_003 - 5);
        assert_eq!(c.run_list(), [(0, 5), (99_003, 3), (200_000, 8)]);
        assert_eq!(c.free.len(), 1);
        assert_eq!(c.cached_run_len(99_000, 10), 0);
        assert_eq!(c.cached_run_len(99_003, 10), 3);
    }

    #[test]
    fn coverage_walks_block_adjacent_runs() {
        let mut c = BlockCache::new(64);
        c.insert_range(4, 4);
        c.insert_range(0, 4); // abuts the first run but is a separate, newer one
        assert_eq!(c.run_list(), [(4, 4), (0, 4)]);
        assert_eq!(c.cached_run_len(1, 100), 7);
        assert!(c.contains_range(2, 5));
        assert_eq!(c.lru_order(), [7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = BlockCache::new(64);
        let mut peak_runs = 0;
        for i in 0..100_000u64 {
            c.insert_range(i * 4, 2); // never block-adjacent to the tail, nor cut
            peak_runs = peak_runs.max(c.live_runs());
        }
        assert_eq!(peak_runs, 32);
        // One slot beyond the peak: a run is allocated before the eviction
        // it triggers frees the oldest.
        assert!(
            c.runs.len() <= peak_runs + 1,
            "slab grew to {}",
            c.runs.len()
        );
        c.lru_order();
    }
}
