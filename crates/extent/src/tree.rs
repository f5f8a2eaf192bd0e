//! Ordered, coalescing extent map for one file (per disk).

use crate::extent::Extent;
use std::collections::BTreeMap;

/// A file's extent tree: logical block → extent, coalescing on insert.
///
/// Inserting an extent that continues the previous one both logically and
/// physically merges the two — so the extent *count* of a tree is exactly
/// the number of discontiguous runs, the quantity the paper's Table I
/// reports and the embedded directory's fragmentation degree is built from.
#[derive(Debug, Clone, Default)]
pub struct ExtentTree {
    /// Keyed by logical start block.
    map: BTreeMap<u64, Extent>,
}

impl ExtentTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of extents (fragmentation segments).
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total mapped blocks.
    pub fn mapped_blocks(&self) -> u64 {
        self.map.values().map(|e| e.len).sum()
    }

    /// Highest mapped logical block + 1 (0 for an empty tree).
    pub fn logical_size(&self) -> u64 {
        self.map
            .iter()
            .next_back()
            .map(|(_, e)| e.logical_end())
            .unwrap_or(0)
    }

    /// Insert a new mapping. Panics if it overlaps an existing extent
    /// (file systems never remap live blocks without deleting first).
    pub fn insert(&mut self, ext: Extent) {
        debug_assert!(ext.len > 0);
        // Tail-extend: the extent continues its predecessor (so cannot
        // overlap it) and stops short of its successor, so the predecessor
        // grows in place — one descent. A successor it runs into, or one
        // it would also merge with, takes the general path below.
        let mut upto = self.map.range_mut(..=ext.logical_end()).rev();
        let mut near = upto.next();
        let mut merges_next = false;
        if let Some((_, next)) = near
            .as_ref()
            .filter(|(_, n)| n.logical == ext.logical_end())
        {
            merges_next = ext.abuts(next);
            near = upto.next();
        }
        if let Some((_, prev)) = near.filter(|(_, p)| p.abuts(&ext) && !merges_next) {
            prev.len += ext.len;
            return;
        }
        // Overlap check against neighbours.
        if let Some((_, prev)) = self.map.range(..=ext.logical).next_back() {
            assert!(
                !prev.overlaps_logical(&ext),
                "extent overlap: {prev:?} vs {ext:?}"
            );
        }
        if let Some((_, next)) = self.map.range(ext.logical..).next() {
            assert!(
                !next.overlaps_logical(&ext),
                "extent overlap: {next:?} vs {ext:?}"
            );
        }

        // Coalesce with the logical predecessor when physically contiguous.
        let mut ext = ext;
        if let Some((&pk, prev)) = self.map.range(..ext.logical).next_back() {
            if prev.abuts(&ext) {
                ext = Extent::new(prev.logical, prev.physical, prev.len + ext.len);
                self.map.remove(&pk);
            }
        }
        // Coalesce with the logical successor.
        if let Some((&nk, next)) = self.map.range(ext.logical..).next() {
            if ext.abuts(next) {
                ext = Extent::new(ext.logical, ext.physical, ext.len + next.len);
                self.map.remove(&nk);
            }
        }
        self.map.insert(ext.logical, ext);
    }

    /// Translate one logical block to its physical block.
    pub fn translate(&self, logical: u64) -> Option<u64> {
        self.map
            .range(..=logical)
            .next_back()
            .and_then(|(_, e)| e.translate(logical))
    }

    /// Resolve a logical range into the physical runs backing it, in
    /// logical order. Unmapped gaps (holes) are skipped.
    pub fn resolve(&self, logical: u64, len: u64) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        self.resolve_with(logical, len, |phys, l| runs.push((phys, l)));
        runs
    }

    /// [`Self::resolve`] without the `Vec`: `f(physical, len)` is called
    /// once per physically contiguous run, in logical order.
    pub fn resolve_with(&self, logical: u64, len: u64, mut f: impl FnMut(u64, u64)) {
        let end = logical + len;
        // Start from the extent that may cover `logical`. When it covers
        // the whole range — a read inside a run, a write that has just
        // extended one — there is nothing to walk.
        let first = self.map.range(..=logical).next_back().map(|(_, e)| *e);
        if let Some(e) = first.filter(|e| e.logical_end() >= end) {
            return f(e.physical + (logical - e.logical), len);
        }
        let start_key = first.map_or(logical, |e| e.logical);
        // The run being grown; emitted when the next one is not adjacent.
        let (mut run_phys, mut run_len) = (0u64, 0u64);
        for (_, e) in self.map.range(start_key..end) {
            let lo = e.logical.max(logical);
            let hi = e.logical_end().min(end);
            if lo >= hi {
                continue;
            }
            let phys = e.physical + (lo - e.logical);
            if run_len > 0 && run_phys + run_len == phys {
                run_len += hi - lo;
            } else {
                if run_len > 0 {
                    f(run_phys, run_len);
                }
                (run_phys, run_len) = (phys, hi - lo);
            }
        }
        if run_len > 0 {
            f(run_phys, run_len);
        }
    }

    /// Unmapped sub-ranges (holes) of `[logical, logical+len)`, in order.
    /// An extending write allocates exactly these.
    pub fn gaps(&self, logical: u64, len: u64) -> Vec<(u64, u64)> {
        let end = logical + len;
        let mut pos = logical;
        std::iter::from_fn(|| {
            let gap = self.next_gap(pos, end)?;
            pos = gap.0 + gap.1;
            Some(gap)
        })
        .collect()
    }

    /// The first hole of `[pos, end)` as `(start, len)`. Restartable: a
    /// caller that maps the hole asks again from its end, so it may insert
    /// between calls.
    pub fn next_gap(&self, mut pos: u64, end: u64) -> Option<(u64, u64)> {
        if pos >= end {
            return None;
        }
        // Only extents starting before `end` matter, and when the last of
        // them starts at or before `pos` — an append, an overwrite inside
        // a run — it alone decides: nothing else reaches past `pos`.
        let Some((_, last)) = self.map.range(..end).next_back() else {
            return Some((pos, end - pos));
        };
        if last.logical <= pos {
            pos = pos.max(last.logical_end());
            return (pos < end).then(|| (pos, end - pos));
        }
        if let Some((_, e)) = self.map.range(..=pos).next_back() {
            pos = pos.max(e.logical_end());
        }
        // Extents are disjoint: each later one either continues the mapped
        // stretch from `pos` or bounds the hole that starts there.
        for (_, e) in self.map.range(pos..end) {
            if e.logical > pos {
                return Some((pos, e.logical - pos));
            }
            pos = e.logical_end();
        }
        (pos < end).then(|| (pos, end - pos))
    }

    /// Iterate extents in logical order.
    pub fn extents(&self) -> impl Iterator<Item = &Extent> {
        self.map.values()
    }

    /// Remove every mapping, returning the physical runs that were backing
    /// the file (for the allocator to free).
    pub fn clear(&mut self) -> Vec<(u64, u64)> {
        let runs = self.map.values().map(|e| (e.physical, e.len)).collect();
        self.map.clear();
        runs
    }

    /// Corruption hook: rewrite the physical start of the extent covering
    /// `logical` to `new_phys`, bypassing every overlap guard. Returns the
    /// old physical start, or `None` if `logical` is unmapped. This models
    /// bit-rot in an on-disk extent record; only fault injectors should
    /// call it — the checker in `mif-fsck` exists to find what it breaks.
    pub fn corrupt_set_physical(&mut self, logical: u64, new_phys: u64) -> Option<u64> {
        let key = self
            .map
            .range(..=logical)
            .next_back()
            .filter(|(_, e)| e.translate(logical).is_some())
            .map(|(&k, _)| k)?;
        let e = self.map.get_mut(&key).unwrap();
        let old = e.physical;
        *e = Extent::new(e.logical, new_phys, e.len);
        Some(old)
    }

    /// Unmap `[logical, logical+len)` (truncate / hole punch), returning
    /// the physical runs that backed it so the allocator can free them.
    /// Extents straddling the boundary are split.
    pub fn remove(&mut self, logical: u64, len: u64) -> Vec<(u64, u64)> {
        let end = logical + len;
        let mut freed = Vec::new();
        // Collect affected extents first (can't mutate while ranging).
        let start_key = self
            .map
            .range(..=logical)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(logical);
        let affected: Vec<Extent> = self
            .map
            .range(start_key..end)
            .map(|(_, &e)| e)
            .filter(|e| e.logical_end() > logical && e.logical < end)
            .collect();
        for e in affected {
            self.map.remove(&e.logical);
            // Left remainder survives.
            if e.logical < logical {
                let keep = logical - e.logical;
                self.map
                    .insert(e.logical, Extent::new(e.logical, e.physical, keep));
            }
            // Right remainder survives.
            if e.logical_end() > end {
                let skip = end - e.logical;
                self.map.insert(
                    end,
                    Extent::new(end, e.physical + skip, e.logical_end() - end),
                );
            }
            // Freed middle.
            let lo = e.logical.max(logical);
            let hi = e.logical_end().min(end);
            freed.push((e.physical + (lo - e.logical), hi - lo));
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_inserts_coalesce_to_one_extent() {
        let mut t = ExtentTree::new();
        for i in 0..10 {
            t.insert(Extent::new(i * 4, 1000 + i * 4, 4));
        }
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.mapped_blocks(), 40);
    }

    #[test]
    fn interleaved_streams_fragment_the_tree() {
        // Two streams writing alternating logical blocks placed in arrival
        // order: the classic Figure 1(a) pattern.
        let mut t = ExtentTree::new();
        for i in 0..8u64 {
            let logical = if i % 2 == 0 { i / 2 } else { 100 + i / 2 };
            t.insert(Extent::new(logical, 1000 + i, 1));
        }
        assert_eq!(t.extent_count(), 8);
    }

    #[test]
    fn out_of_order_inserts_still_coalesce() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(4, 104, 4));
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(8, 108, 4));
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.translate(11), Some(111));
    }

    #[test]
    fn translate_miss_on_hole() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 2));
        t.insert(Extent::new(10, 200, 2));
        assert_eq!(t.translate(5), None);
        assert_eq!(t.translate(10), Some(200));
    }

    #[test]
    fn resolve_spanning_extents() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(4, 500, 4)); // physical jump
        let runs = t.resolve(2, 4);
        assert_eq!(runs, vec![(102, 2), (500, 2)]);
    }

    #[test]
    fn resolve_merges_physically_adjacent_runs() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(8, 104, 4)); // logical hole, physical adjacency
        let runs = t.resolve(0, 12);
        assert_eq!(runs, vec![(100, 8)]);
    }

    #[test]
    fn resolve_skips_holes() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 2));
        t.insert(Extent::new(10, 300, 2));
        let runs = t.resolve(0, 12);
        assert_eq!(runs, vec![(100, 2), (300, 2)]);
    }

    #[test]
    #[should_panic(expected = "extent overlap")]
    fn overlapping_insert_panics() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(2, 500, 4));
    }

    #[test]
    fn clear_returns_physical_runs() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(4, 500, 4));
        let runs = t.clear();
        assert_eq!(runs, vec![(100, 4), (500, 4)]);
        assert!(t.is_empty());
    }

    #[test]
    fn gaps_of_empty_tree_is_whole_range() {
        let t = ExtentTree::new();
        assert_eq!(t.gaps(5, 10), vec![(5, 10)]);
    }

    #[test]
    fn gaps_between_extents() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 2));
        t.insert(Extent::new(6, 200, 2));
        assert_eq!(t.gaps(0, 10), vec![(2, 4), (8, 2)]);
    }

    #[test]
    fn gaps_fully_mapped_is_empty() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 10));
        assert!(t.gaps(2, 5).is_empty());
    }

    #[test]
    fn gaps_partial_overlap_at_edges() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(4, 100, 4));
        assert_eq!(t.gaps(2, 8), vec![(2, 2), (8, 2)]);
    }

    #[test]
    fn remove_middle_splits_extent() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 10));
        let freed = t.remove(3, 4);
        assert_eq!(freed, vec![(103, 4)]);
        assert_eq!(t.translate(2), Some(102));
        assert_eq!(t.translate(3), None);
        assert_eq!(t.translate(6), None);
        assert_eq!(t.translate(7), Some(107));
        assert_eq!(t.extent_count(), 2);
        assert_eq!(t.mapped_blocks(), 6);
    }

    #[test]
    fn remove_spanning_multiple_extents() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 4));
        t.insert(Extent::new(4, 500, 4));
        t.insert(Extent::new(8, 900, 4));
        let freed = t.remove(2, 8);
        assert_eq!(freed, vec![(102, 2), (500, 4), (900, 2)]);
        assert_eq!(t.mapped_blocks(), 4);
        assert_eq!(t.translate(1), Some(101));
        assert_eq!(t.translate(11), Some(903));
    }

    #[test]
    fn remove_unmapped_range_is_noop() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(10, 100, 4));
        assert!(t.remove(0, 10).is_empty());
        assert!(t.remove(20, 10).is_empty());
        assert_eq!(t.mapped_blocks(), 4);
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut t = ExtentTree::new();
        t.insert(Extent::new(0, 100, 16));
        let freed = t.remove(4, 8);
        assert_eq!(freed.iter().map(|r| r.1).sum::<u64>(), 8);
        t.insert(Extent::new(4, 104, 8)); // same placement: coalesces back
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.mapped_blocks(), 16);
    }

    #[test]
    fn logical_size_tracks_highest_block() {
        let mut t = ExtentTree::new();
        assert_eq!(t.logical_size(), 0);
        t.insert(Extent::new(10, 0, 5));
        assert_eq!(t.logical_size(), 15);
    }
}
