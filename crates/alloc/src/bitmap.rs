//! Word-packed block bitmap with contiguous-run search.

/// Histogram of free runs by power-of-two size class: class `i` counts the
/// free runs whose length falls in `[2^i, 2^(i+1))` blocks. This is the
/// free-*space* fragmentation metric (Sears & van Ingen): a disk can have
/// plenty of free blocks yet no run large enough to place a file
/// contiguously, and every allocation made from such free space is born
/// fragmented. The defrag scanner scores allocation groups with it and
/// `mif-fsck` summarizes it per run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreeRunHistogram {
    /// counts[i] = free runs with len in [2^i, 2^(i+1)).
    counts: [u64; 32],
    runs: u64,
    free_blocks: u64,
    largest_run: u64,
}

impl FreeRunHistogram {
    /// The power-of-two size class of a run length (floor(log2)).
    pub fn class_of(len: u64) -> usize {
        debug_assert!(len > 0);
        (63 - len.leading_zeros() as usize).min(31)
    }

    /// Account one free run.
    pub fn record(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        self.counts[Self::class_of(len)] += 1;
        self.runs += 1;
        self.free_blocks += len;
        self.largest_run = self.largest_run.max(len);
    }

    /// Merge another histogram (aggregation across groups/OSTs).
    pub fn absorb(&mut self, other: &FreeRunHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.runs += other.runs;
        self.free_blocks += other.free_blocks;
        self.largest_run = self.largest_run.max(other.largest_run);
    }

    /// Runs counted.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total free blocks over all runs.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Length of the largest free run.
    pub fn largest_run(&self) -> u64 {
        self.largest_run
    }

    /// Runs in class `i` (len in `[2^i, 2^(i+1))`).
    pub fn count_in_class(&self, class: usize) -> u64 {
        self.counts[class.min(31)]
    }

    /// Runs of at least `len` blocks — can a request of `len` be placed
    /// contiguously? (Conservative: only counts whole classes ≥ len's, so
    /// the true answer is at least this.)
    pub fn runs_at_least(&self, len: u64) -> u64 {
        if len == 0 {
            return self.runs;
        }
        let mut n = 0;
        let first_whole = if len.is_power_of_two() {
            Self::class_of(len)
        } else {
            Self::class_of(len) + 1
        };
        for c in first_whole..32 {
            n += self.counts[c.min(31)];
        }
        if self.largest_run >= len {
            n = n.max(1);
        }
        n
    }

    /// Mean free-run length (0 for an empty histogram).
    pub fn mean_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.free_blocks as f64 / self.runs as f64
        }
    }
}

impl std::fmt::Display for FreeRunHistogram {
    /// One-line summary: `17 free runs, largest 4096, mean 812.3 blk;
    /// classes 2^5:3 2^12:14` (empty classes omitted).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} free runs, largest {}, mean {:.1} blk;",
            self.runs,
            self.largest_run,
            self.mean_run()
        )?;
        if self.runs == 0 {
            return write!(f, " none");
        }
        for (c, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                write!(f, " 2^{c}:{n}")?;
            }
        }
        Ok(())
    }
}

/// A bitmap over a range of blocks: bit set = allocated.
///
/// Search is word-at-a-time with a rolling next-free hint, so allocation
/// stays cheap even for multi-gigabyte groups.
#[derive(Debug, Clone)]
pub struct BlockBitmap {
    words: Vec<u64>,
    blocks: u64,
    free: u64,
    /// Rolling hint: no free block exists below this unless freed later.
    hint: u64,
}

impl BlockBitmap {
    pub fn new(blocks: u64) -> Self {
        assert!(blocks > 0);
        Self {
            words: vec![0u64; blocks.div_ceil(64) as usize],
            blocks,
            free: blocks,
            hint: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.blocks
    }

    pub fn free_count(&self) -> u64 {
        self.free
    }

    /// Is `block` allocated?
    pub fn is_allocated(&self, block: u64) -> bool {
        debug_assert!(block < self.blocks);
        self.words[(block / 64) as usize] & (1u64 << (block % 64)) != 0
    }

    /// True when every block of `start..start+len` is free.
    pub fn is_range_free(&self, start: u64, len: u64) -> bool {
        if start + len > self.blocks {
            return false;
        }
        (start..start + len).all(|b| !self.is_allocated(b))
    }

    /// Mark `start..start+len` allocated. Panics if any block already is.
    pub fn set_range(&mut self, start: u64, len: u64) {
        assert!(start + len <= self.blocks, "set past end of bitmap");
        for b in start..start + len {
            let (w, m) = ((b / 64) as usize, 1u64 << (b % 64));
            assert!(self.words[w] & m == 0, "double allocation of block {b}");
            self.words[w] |= m;
        }
        self.free -= len;
    }

    /// Mark `start..start+len` free. Panics if any block already is.
    pub fn free_range(&mut self, start: u64, len: u64) {
        assert!(start + len <= self.blocks, "free past end of bitmap");
        for b in start..start + len {
            let (w, m) = ((b / 64) as usize, 1u64 << (b % 64));
            assert!(self.words[w] & m != 0, "double free of block {b}");
            self.words[w] &= !m;
        }
        self.free += len;
        self.hint = self.hint.min(start);
    }

    /// Allocate exactly `len` contiguous blocks, searching forward from
    /// `goal` (then wrapping to the lowest free region). Returns the start.
    pub fn alloc_run(&mut self, goal: u64, len: u64) -> Option<u64> {
        if len == 0 || len > self.free {
            return None;
        }
        let goal = goal.min(self.blocks.saturating_sub(1));
        if let Some(s) = self.find_run(goal, len) {
            self.set_range(s, len);
            return Some(s);
        }
        if goal > self.hint {
            if let Some(s) = self.find_run(self.hint, len) {
                self.set_range(s, len);
                return Some(s);
            }
        }
        None
    }

    /// Allocate exactly `start..start+len` if that range is entirely free.
    pub fn alloc_at(&mut self, start: u64, len: u64) -> bool {
        if self.is_range_free(start, len) {
            self.set_range(start, len);
            true
        } else {
            false
        }
    }

    /// Allocate up to `len` blocks as few runs as possible, searching from
    /// `goal`. Returns the runs; total may be short if the bitmap runs out.
    pub fn alloc_chunks(&mut self, goal: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut need = len.min(self.free);
        let mut goal = goal;
        while need > 0 {
            // Largest run available starting at/after goal, capped at need.
            match self.find_any_run(goal, need) {
                Some((s, l)) => {
                    self.set_range(s, l);
                    out.push((s, l));
                    need -= l;
                    goal = s + l;
                }
                None => {
                    if goal == 0 {
                        break;
                    }
                    goal = 0; // wrap once
                }
            }
        }
        out
    }

    /// Find (but do not allocate) a free run of exactly `len` blocks,
    /// searching forward from `goal` then wrapping once — the same order
    /// [`Self::alloc_run`] uses, so a successful probe predicts where
    /// `alloc_run` would land if the bitmap is not mutated in between.
    /// Read-only: the defrag relocation engine probes a destination first
    /// so the WAL intent record can name it *before* any state changes.
    pub fn probe_run(&self, goal: u64, len: u64) -> Option<u64> {
        if len == 0 || len > self.free {
            return None;
        }
        let goal = goal.min(self.blocks.saturating_sub(1));
        if let Some(s) = self.find_run(goal, len) {
            return Some(s);
        }
        if goal > self.hint {
            return self.find_run(self.hint, len);
        }
        None
    }

    /// Histogram of all free runs (see [`FreeRunHistogram`]). One linear
    /// word-wise scan over the bitmap.
    pub fn free_run_histogram(&self) -> FreeRunHistogram {
        let mut h = FreeRunHistogram::default();
        let mut pos = 0;
        while let Some(s) = self.next_free(pos) {
            let l = self.run_len_at(s, self.blocks);
            h.record(l);
            pos = s + l + 1;
        }
        h
    }

    /// The packed words backing the bitmap (bit set = allocated). The last
    /// word's bits at and above `capacity() % 64` are always zero. Checkers
    /// use this for word-at-a-time comparison against an independently
    /// reconstructed ownership bitmap.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Force `block` to the allocated state regardless of its current
    /// state, keeping the free count consistent. Returns `true` if the bit
    /// changed. This bypasses the double-allocation guard: it exists for
    /// corruption injection and fsck repair, not for allocators.
    pub fn force_set(&mut self, block: u64) -> bool {
        assert!(block < self.blocks, "force_set past end of bitmap");
        let (w, m) = ((block / 64) as usize, 1u64 << (block % 64));
        if self.words[w] & m != 0 {
            return false;
        }
        self.words[w] |= m;
        self.free -= 1;
        true
    }

    /// Force `block` to the free state regardless of its current state,
    /// keeping the free count and the next-free hint consistent. Returns
    /// `true` if the bit changed. Counterpart of [`Self::force_set`].
    pub fn force_clear(&mut self, block: u64) -> bool {
        assert!(block < self.blocks, "force_clear past end of bitmap");
        let (w, m) = ((block / 64) as usize, 1u64 << (block % 64));
        if self.words[w] & m == 0 {
            return false;
        }
        self.words[w] &= !m;
        self.free += 1;
        self.hint = self.hint.min(block);
        true
    }

    /// First free block at/after `from`, scanning word-wise.
    fn next_free(&self, from: u64) -> Option<u64> {
        if from >= self.blocks {
            return None;
        }
        let mut w = (from / 64) as usize;
        // Mask off bits below `from` in the first word.
        let mut inverted = !self.words[w] & (!0u64 << (from % 64));
        loop {
            if inverted != 0 {
                let bit = inverted.trailing_zeros() as u64;
                let b = w as u64 * 64 + bit;
                return (b < self.blocks).then_some(b);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            inverted = !self.words[w];
        }
    }

    /// Length of the free run starting exactly at `start`, capped at `cap`.
    /// Word-at-a-time: whole free `u64` words are skipped in one step and
    /// the terminating allocated bit is found with `trailing_zeros`, so the
    /// scan costs O(run/64) instead of O(run). The bit-at-a-time reference
    /// ([`Self::free_run_len_bitwise`]) stays as the oracle the property
    /// suite compares against.
    pub fn free_run_len(&self, start: u64, cap: u64) -> u64 {
        if start >= self.blocks {
            return 0;
        }
        let limit = self.blocks.min(start.saturating_add(cap));
        let mut b = start;
        while b < limit {
            // Allocated bits of the current word, shifted so bit 0 is `b`.
            let masked = self.words[(b / 64) as usize] >> (b % 64);
            if masked != 0 {
                // The run ends at the first allocated bit.
                let z = masked.trailing_zeros() as u64;
                return (b - start + z).min(cap);
            }
            b += 64 - b % 64; // whole remaining word free: skip it
        }
        limit - start
    }

    /// Bit-at-a-time reference for [`Self::free_run_len`] — deliberately
    /// naive, kept public as the oracle for the equivalence property test.
    pub fn free_run_len_bitwise(&self, start: u64, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap && start + n < self.blocks && !self.is_allocated(start + n) {
            n += 1;
        }
        n
    }

    fn run_len_at(&self, start: u64, cap: u64) -> u64 {
        self.free_run_len(start, cap)
    }

    /// Find a free run of exactly `len` blocks at/after `goal`.
    fn find_run(&self, goal: u64, len: u64) -> Option<u64> {
        let mut pos = goal;
        while let Some(s) = self.next_free(pos) {
            let l = self.run_len_at(s, len);
            if l >= len {
                return Some(s);
            }
            pos = s + l + 1;
        }
        None
    }

    /// Find the first free run at/after `goal` (any length, capped at
    /// `cap`); returns (start, len).
    fn find_any_run(&self, goal: u64, cap: u64) -> Option<(u64, u64)> {
        let s = self.next_free(goal)?;
        Some((s, self.run_len_at(s, cap)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_run_from_goal() {
        let mut b = BlockBitmap::new(256);
        assert_eq!(b.alloc_run(100, 10), Some(100));
        assert_eq!(b.free_count(), 246);
        assert!(b.is_allocated(100));
        assert!(b.is_allocated(109));
        assert!(!b.is_allocated(110));
    }

    #[test]
    fn alloc_run_skips_allocated_region() {
        let mut b = BlockBitmap::new(256);
        b.set_range(100, 10);
        assert_eq!(b.alloc_run(100, 5), Some(110));
    }

    #[test]
    fn alloc_run_wraps_to_start() {
        let mut b = BlockBitmap::new(128);
        b.set_range(64, 64);
        assert_eq!(b.alloc_run(100, 10), Some(0));
    }

    #[test]
    fn alloc_run_fails_when_no_contiguous_space() {
        let mut b = BlockBitmap::new(64);
        // Allocate every other block: no run of 2 exists.
        for i in (0..64).step_by(2) {
            b.set_range(i, 1);
        }
        assert_eq!(b.alloc_run(0, 2), None);
        assert_eq!(b.alloc_run(0, 1), Some(1));
    }

    #[test]
    fn free_then_realloc() {
        let mut b = BlockBitmap::new(64);
        b.set_range(0, 64);
        b.free_range(10, 10);
        assert_eq!(b.free_count(), 10);
        assert_eq!(b.alloc_run(0, 10), Some(10));
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_alloc_panics() {
        let mut b = BlockBitmap::new(64);
        b.set_range(0, 4);
        b.set_range(2, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BlockBitmap::new(64);
        b.free_range(0, 4);
    }

    #[test]
    fn alloc_at_exact() {
        let mut b = BlockBitmap::new(64);
        assert!(b.alloc_at(10, 5));
        assert!(!b.alloc_at(12, 5));
        assert!(b.alloc_at(15, 5));
    }

    #[test]
    fn alloc_chunks_gathers_fragmented_space() {
        let mut b = BlockBitmap::new(64);
        // Free space: [0..8), [16..24), [32..64)
        b.set_range(8, 8);
        b.set_range(24, 8);
        let runs = b.alloc_chunks(0, 20);
        let total: u64 = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 20);
        assert_eq!(runs[0], (0, 8));
        assert_eq!(runs[1], (16, 8));
        assert_eq!(runs[2], (32, 4));
    }

    #[test]
    fn alloc_chunks_wraps_from_goal() {
        let mut b = BlockBitmap::new(64);
        b.set_range(32, 32);
        let runs = b.alloc_chunks(40, 8);
        assert_eq!(runs, vec![(0, 8)]);
    }

    #[test]
    fn alloc_chunks_returns_short_when_full() {
        let mut b = BlockBitmap::new(16);
        b.set_range(0, 12);
        let runs = b.alloc_chunks(0, 10);
        let total: u64 = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn force_ops_keep_free_count_and_hint() {
        let mut b = BlockBitmap::new(128);
        b.set_range(0, 64);
        assert!(b.force_clear(10));
        assert!(!b.force_clear(10), "already clear");
        assert_eq!(b.free_count(), 65);
        // The cleared bit is findable again (hint moved back).
        assert_eq!(b.alloc_run(0, 1), Some(10));
        assert!(b.force_set(100));
        assert!(!b.force_set(100), "already set");
        assert_eq!(b.free_count(), 63);
        assert!(b.is_allocated(100));
    }

    #[test]
    fn as_words_matches_bit_queries() {
        let mut b = BlockBitmap::new(130);
        b.set_range(63, 3);
        let words = b.as_words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], 1u64 << 63);
        assert_eq!(words[1], 0b11);
        assert_eq!(words[2], 0);
    }

    #[test]
    fn probe_run_matches_alloc_run_without_mutating() {
        let mut b = BlockBitmap::new(256);
        b.set_range(100, 10);
        let probed = b.probe_run(100, 5);
        assert_eq!(probed, Some(110));
        assert_eq!(b.free_count(), 246, "probe must not allocate");
        assert_eq!(b.alloc_run(100, 5), probed);
        // Wrap case: goal region exhausted, run found from the hint.
        let mut w = BlockBitmap::new(128);
        w.set_range(64, 64);
        assert_eq!(w.probe_run(100, 10), Some(0));
        assert_eq!(w.probe_run(0, 65), None);
    }

    #[test]
    fn free_run_histogram_counts_runs_by_class() {
        let mut b = BlockBitmap::new(128);
        // Free runs: [0..8) len 8 (class 3), [16..17) len 1 (class 0),
        // [20..128) len 108 (class 6).
        b.set_range(8, 8);
        b.set_range(17, 3);
        let h = b.free_run_histogram();
        assert_eq!(h.runs(), 3);
        assert_eq!(h.free_blocks(), b.free_count());
        assert_eq!(h.largest_run(), 108);
        assert_eq!(h.count_in_class(3), 1);
        assert_eq!(h.count_in_class(0), 1);
        assert_eq!(h.count_in_class(6), 1);
        assert_eq!(h.runs_at_least(9), 1);
        assert_eq!(h.runs_at_least(8), 2);
        assert_eq!(h.runs_at_least(200), 0);
        let full = BlockBitmap::new(64);
        let hf = full.free_run_histogram();
        assert_eq!(hf.runs(), 1);
        assert_eq!(hf.largest_run(), 64);
        let mut empty = BlockBitmap::new(64);
        empty.set_range(0, 64);
        assert_eq!(empty.free_run_histogram(), FreeRunHistogram::default());
    }

    #[test]
    fn histogram_absorb_aggregates() {
        let mut a = FreeRunHistogram::default();
        a.record(4);
        a.record(100);
        let mut b = FreeRunHistogram::default();
        b.record(7);
        a.absorb(&b);
        assert_eq!(a.runs(), 3);
        assert_eq!(a.free_blocks(), 111);
        assert_eq!(a.largest_run(), 100);
        let line = a.to_string();
        assert!(line.contains("3 free runs"), "{line}");
        assert!(line.contains("2^2:2"), "{line}");
    }

    #[test]
    fn word_boundary_runs() {
        let mut b = BlockBitmap::new(256);
        assert_eq!(b.alloc_run(60, 10), Some(60)); // spans word 0/1 boundary
        assert!(b.is_allocated(63));
        assert!(b.is_allocated(64));
    }
}
