//! Traditional (ext3-style) directory placement — the baseline.
//!
//! Inodes live in static per-group inode tables; directory entries live in
//! data blocks "often separated from the file inode blocks" (§I), so
//! metadata operations bounce the disk head between the dirent area, the
//! inode table and the bitmaps — Figure 1(b)'s fragmented-directory
//! picture. With `htree = true` each directory carries a real
//! [`HtreeIndex`] (ext4/Lustre behaviour): a lookup reads the index block
//! and exactly one hashed bucket instead of scanning linearly, at the cost
//! of bucket-split writes as the directory grows.

use crate::htree::HtreeIndex;
use crate::ids::{InodeNo, ROOT_INO};
use crate::layout::{MdsLayout, DIRENTS_PER_BLOCK, EXTENTS_PER_MAP_BLOCK, INLINE_EXTENTS};
use crate::store::{DataArea, OpEffect, ReadSet};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Inode {
    group: u64,
    index: u64,
    /// Indirect/extent-index blocks for mappings beyond the inode body.
    map_blocks: Vec<u64>,
}

#[derive(Debug)]
struct Dir {
    group: u64,
    /// Absolute dirent block numbers, in growth order.
    blocks: Vec<u64>,
    /// name -> (child ino, absolute block holding the entry).
    entries: HashMap<String, (InodeNo, u64)>,
    /// Entries stored in the last block (linear placement only).
    last_fill: u64,
    /// The hashed index (htree mode): bucket blocks double as dirent
    /// blocks, entries are placed by name hash.
    htree: Option<HtreeIndex>,
}

/// Per-group inode allocation state.
#[derive(Debug, Default)]
struct GroupInodes {
    next: u64,
    free_list: Vec<u64>,
}

/// The normal (traditional) metadata store.
#[derive(Debug)]
pub struct NormalStore {
    /// Hashed directory index (Lustre/ext4): lookups read one dirent block.
    pub htree: bool,
    layout: MdsLayout,
    dirs: HashMap<InodeNo, Dir>,
    inodes: HashMap<InodeNo, Inode>,
    groups: Vec<GroupInodes>,
    next_ino: u64,
    next_dir_group: u64,
}

impl NormalStore {
    pub fn new(layout: &MdsLayout, htree: bool, data: &mut DataArea) -> Self {
        let mut s = Self {
            htree,
            layout: layout.clone(),
            dirs: HashMap::new(),
            inodes: HashMap::new(),
            groups: (0..layout.groups).map(|_| GroupInodes::default()).collect(),
            next_ino: 2,
            next_dir_group: 0,
        };
        // Root directory in group 0.
        let first = data.alloc_block(0, None);
        let root_htree = if htree {
            let bucket = data.alloc_block(0, Some(first + 1));
            Some(HtreeIndex::new(first, bucket))
        } else {
            None
        };
        let root_blocks = match &root_htree {
            Some(h) => h.all_blocks(),
            None => vec![first],
        };
        s.dirs.insert(
            ROOT_INO,
            Dir {
                group: 0,
                blocks: root_blocks,
                entries: HashMap::new(),
                last_fill: 0,
                htree: root_htree,
            },
        );
        let root_index = s.alloc_index(0);
        s.inodes.insert(
            ROOT_INO,
            Inode {
                group: 0,
                index: root_index,
                map_blocks: Vec::new(),
            },
        );
        s
    }

    fn alloc_index(&mut self, group: u64) -> u64 {
        let g = &mut self.groups[group as usize];
        if let Some(i) = g.free_list.pop() {
            return i;
        }
        let i = g.next;
        assert!(
            i < self.layout.inodes_per_group(),
            "group {group} inode table full"
        );
        g.next += 1;
        i
    }

    fn alloc_ino(&mut self) -> InodeNo {
        let ino = InodeNo(self.next_ino);
        self.next_ino += 1;
        ino
    }

    /// Reads needed to look `name` up in `dir` — the heart of the
    /// linear-vs-Htree difference. Linear scan reads dirent blocks one at a
    /// time until the entry's block; Htree reads the index block plus the
    /// one hashed bucket.
    fn lookup_reads(&self, dir: &Dir, name: &str) -> Vec<ReadSet> {
        if let Some(h) = &dir.htree {
            return h
                .lookup_blocks(name)
                .iter()
                .map(|&b| ReadSet::raw(b))
                .collect();
        }
        let upto = match dir.entries.get(name) {
            Some(&(_, blk)) => dir
                .blocks
                .iter()
                .position(|&b| b == blk)
                .unwrap_or(dir.blocks.len() - 1),
            // Nonexistent name: a full scan.
            None => dir.blocks.len().saturating_sub(1),
        };
        dir.blocks[..=upto.min(dir.blocks.len() - 1)]
            .iter()
            .map(|&b| ReadSet::raw(b))
            .collect()
    }

    /// Place a dirent in `dir`, growing it if needed. Returns the effect.
    fn append_entry(
        &mut self,
        data: &mut DataArea,
        dir_ino: InodeNo,
        name: &str,
        child: InodeNo,
    ) -> OpEffect {
        let mut eff = OpEffect::default();
        let layout = self.layout.clone();
        let dir = self.dirs.get_mut(&dir_ino).expect("parent exists");

        if let Some(h) = &mut dir.htree {
            // Hash placement: the index decides the bucket; split-off
            // buckets allocate near the directory's existing blocks (like
            // any dirent block) — on an aged disk that goal degrades and
            // the buckets scatter.
            let group = dir.group;
            let goal = dir.blocks.last().map(|&b| b + 1);
            let mut allocated = Vec::new();
            let dirty = h.insert(name, || {
                let b = data
                    .alloc_run(group, goal, 1)
                    .expect("metadata area out of space");
                allocated.push(b);
                b
            });
            let entry_block = h.bucket_block(name);
            dir.entries.insert(name.to_string(), (child, entry_block));
            if !allocated.is_empty() {
                dir.blocks.extend(allocated);
                eff.dirty.push(layout.block_bitmap(group));
            }
            eff.dirty.extend(dirty);
            return eff;
        }

        if dir.last_fill >= DIRENTS_PER_BLOCK {
            let last = *dir.blocks.last().expect("dir has a block");
            let b = data.alloc_block(dir.group, Some(last + 1));
            dir.blocks.push(b);
            dir.last_fill = 0;
            eff.dirty.push(layout.block_bitmap(dir.group));
        }
        let blk = *dir.blocks.last().expect("dir has a block");
        dir.last_fill += 1;
        dir.entries.insert(name.to_string(), (child, blk));
        eff.dirty.push(blk);
        eff
    }

    /// Create a regular file. `extents` sizes the file's layout mapping;
    /// mappings beyond the inode body go to indirect blocks in the data
    /// area (ext3's indirection, the analogue of MiF's extra map blocks).
    pub fn create(
        &mut self,
        data: &mut DataArea,
        parent: InodeNo,
        name: &str,
        extents: u32,
    ) -> (InodeNo, OpEffect) {
        let mut eff = OpEffect::mutation();
        let group = {
            let dir = self.dirs.get(&parent).expect("parent exists");
            eff.reads = self.lookup_reads(dir, name);
            dir.group
        };
        let ino = self.alloc_ino();
        let index = self.alloc_index(group);
        eff.dirty.push(self.layout.inode_bitmap(group));
        eff.dirty.push(self.layout.itable_block(group, index));

        let mut map_blocks = Vec::new();
        if extents > INLINE_EXTENTS {
            let need = (extents - INLINE_EXTENTS).div_ceil(EXTENTS_PER_MAP_BLOCK) as u64;
            let goal = self
                .dirs
                .get(&parent)
                .and_then(|d| d.blocks.last().map(|&b| b + 1));
            for run in data.alloc_chunks(group, goal, need) {
                for b in run.0..run.0 + run.1 {
                    map_blocks.push(b);
                    eff.dirty.push(b);
                }
            }
            eff.dirty.push(self.layout.block_bitmap(group));
        }

        eff.merge(self.append_entry(data, parent, name, ino));
        self.inodes.insert(
            ino,
            Inode {
                group,
                index,
                map_blocks,
            },
        );
        (ino, eff)
    }

    /// Create a sub-directory; directories spread round-robin over groups
    /// (the Orlov/'rlov' distribution §V-A keeps for subdirectories).
    pub fn mkdir(
        &mut self,
        data: &mut DataArea,
        parent: InodeNo,
        name: &str,
    ) -> (InodeNo, OpEffect) {
        let mut eff = OpEffect::mutation();
        {
            let dir = self.dirs.get(&parent).expect("parent exists");
            eff.reads = self.lookup_reads(dir, name);
        }
        let group = self.next_dir_group % self.layout.groups;
        self.next_dir_group += 1;

        let ino = self.alloc_ino();
        let index = self.alloc_index(group);
        eff.dirty.push(self.layout.inode_bitmap(group));
        eff.dirty.push(self.layout.itable_block(group, index));

        let first = data.alloc_block(group, None);
        let htree = if self.htree {
            let bucket = data.alloc_block(group, Some(first + 1));
            Some(HtreeIndex::new(first, bucket))
        } else {
            None
        };
        let blocks = match &htree {
            Some(h) => h.all_blocks(),
            None => vec![first],
        };
        eff.dirty.push(self.layout.block_bitmap(group));
        eff.merge(self.append_entry(data, parent, name, ino));

        self.dirs.insert(
            ino,
            Dir {
                group,
                blocks,
                entries: HashMap::new(),
                last_fill: 0,
                htree,
            },
        );
        self.inodes.insert(
            ino,
            Inode {
                group,
                index,
                map_blocks: Vec::new(),
            },
        );
        (ino, eff)
    }

    /// Look a name up and return its ino (lookup reads only).
    pub fn lookup(&self, parent: InodeNo, name: &str) -> (Option<InodeNo>, OpEffect) {
        let dir = self.dirs.get(&parent).expect("parent exists");
        let mut eff = OpEffect::read_only();
        eff.reads = self.lookup_reads(dir, name);
        (dir.entries.get(name).map(|&(ino, _)| ino), eff)
    }

    /// `stat`: lookup + read the inode's table block.
    pub fn stat(&self, parent: InodeNo, name: &str) -> OpEffect {
        let (ino, mut eff) = self.lookup(parent, name);
        if let Some(ino) = ino {
            let i = &self.inodes[&ino];
            eff.reads
                .push(ReadSet::raw(self.layout.itable_block(i.group, i.index)));
        }
        eff
    }

    /// `utime`/setattr: lookup + read-modify-write of the inode block.
    pub fn utime(&mut self, parent: InodeNo, name: &str) -> OpEffect {
        let (ino, mut eff) = self.lookup(parent, name);
        eff.journal_blocks = 1;
        if let Some(ino) = ino {
            let i = &self.inodes[&ino];
            let blk = self.layout.itable_block(i.group, i.index);
            eff.reads.push(ReadSet::raw(blk));
            eff.dirty.push(blk);
        }
        eff
    }

    /// `getlayout`: lookup + inode read + indirect mapping block reads.
    pub fn getlayout(&self, parent: InodeNo, name: &str) -> OpEffect {
        let (ino, mut eff) = self.lookup(parent, name);
        if let Some(ino) = ino {
            let i = &self.inodes[&ino];
            eff.reads
                .push(ReadSet::raw(self.layout.itable_block(i.group, i.index)));
            for &b in &i.map_blocks {
                eff.reads.push(ReadSet::raw(b));
            }
        }
        eff
    }

    /// Unlink a file: clear the dirent and the inode bitmap bit.
    ///
    /// Deliberately does *not* write the inode-table block: like several
    /// production file systems, deletion is just the bitmap bit plus the
    /// entry — which is what makes delete the operation where embedding
    /// "only eliminates the disk access of the updates on the inode bitmap
    /// blocks" (§V-D.1).
    pub fn unlink(&mut self, data: &mut DataArea, parent: InodeNo, name: &str) -> OpEffect {
        let (ino, mut eff) = self.lookup(parent, name);
        eff.journal_blocks = 1;
        let Some(ino) = ino else { return eff };
        let dir = self.dirs.get_mut(&parent).expect("parent exists");
        let (_, blk) = dir.entries.remove(name).expect("entry exists");
        if let Some(h) = &mut dir.htree {
            h.remove(name);
        }
        eff.dirty.push(blk);

        let inode = self.inodes.remove(&ino).expect("inode exists");
        eff.dirty.push(self.layout.inode_bitmap(inode.group));
        self.groups[inode.group as usize]
            .free_list
            .push(inode.index);
        // Indirect mapping blocks are freed with the file.
        let mut i = 0;
        while i < inode.map_blocks.len() {
            let start = inode.map_blocks[i];
            let mut len = 1;
            while i + 1 < inode.map_blocks.len() && inode.map_blocks[i + 1] == start + len {
                len += 1;
                i += 1;
            }
            data.free(start, len);
            eff.freed.push((start, len));
            i += 1;
        }
        if !inode.map_blocks.is_empty() {
            eff.dirty.push(self.layout.block_bitmap(inode.group));
        }
        eff
    }

    /// Read all directory entries (block-at-a-time buffer-cache reads).
    pub fn readdir(&self, dir_ino: InodeNo) -> OpEffect {
        let dir = self.dirs.get(&dir_ino).expect("dir exists");
        let mut eff = OpEffect::read_only();
        for &b in &dir.blocks {
            eff.reads.push(ReadSet::raw(b));
        }
        eff
    }

    /// `readdir` + `stat` of every entry (`ls -l` / readdirplus). Entries
    /// are processed in dirent-block order; each block's entries pull their
    /// inode-table blocks in, one buffer-cache read each (deduplicated
    /// consecutively — 32 inodes share a block).
    pub fn readdir_stat(&self, dir_ino: InodeNo) -> OpEffect {
        let dir = self.dirs.get(&dir_ino).expect("dir exists");
        let mut eff = OpEffect::read_only();
        // Entries grouped by the dirent block holding them, in block order.
        let mut by_block: HashMap<u64, Vec<&str>> = HashMap::new();
        for (name, &(_, blk)) in &dir.entries {
            by_block.entry(blk).or_default().push(name);
        }
        for &blk in &dir.blocks {
            eff.reads.push(ReadSet::raw(blk));
            let Some(names) = by_block.get(&blk) else {
                continue;
            };
            let mut itable: Vec<u64> = names
                .iter()
                .map(|n| {
                    let (ino, _) = dir.entries[*n];
                    let i = &self.inodes[&ino];
                    self.layout.itable_block(i.group, i.index)
                })
                .collect();
            itable.sort_unstable();
            itable.dedup();
            for b in itable {
                eff.reads.push(ReadSet::raw(b));
            }
        }
        eff
    }

    /// Rename within the store: the inode number is stable; only the two
    /// dirent blocks change.
    pub fn rename(
        &mut self,
        data: &mut DataArea,
        src: InodeNo,
        name: &str,
        dst: InodeNo,
        new_name: &str,
    ) -> OpEffect {
        let (ino, mut eff) = self.lookup(src, name);
        eff.journal_blocks = 1;
        let Some(ino) = ino else { return eff };
        {
            let sdir = self.dirs.get_mut(&src).expect("src exists");
            let (_, blk) = sdir.entries.remove(name).expect("entry exists");
            if let Some(h) = &mut sdir.htree {
                h.remove(name);
            }
            eff.dirty.push(blk);
        }
        eff.merge(self.append_entry(data, dst, new_name, ino));
        eff
    }

    /// Every inode's (ino, group, table index) — checker introspection.
    pub fn inode_locations(&self) -> Vec<(InodeNo, u64, u64)> {
        self.inodes
            .iter()
            .map(|(&ino, i)| (ino, i.group, i.index))
            .collect()
    }

    /// Every directory's dirent-block list — checker introspection.
    pub fn dir_block_lists(&self) -> Vec<(InodeNo, Vec<u64>)> {
        self.dirs
            .iter()
            .map(|(&ino, d)| (ino, d.blocks.clone()))
            .collect()
    }

    /// Names of all entries in a directory (in-memory; used to drive the
    /// unaggregated readdir-then-stat pattern).
    pub fn entry_names(&self, dir: InodeNo) -> Vec<String> {
        self.dirs
            .get(&dir)
            .map(|d| d.entries.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of entries in a directory (test/diagnostic).
    pub fn dir_len(&self, dir: InodeNo) -> usize {
        self.dirs.get(&dir).map(|d| d.entries.len()).unwrap_or(0)
    }

    /// Dirent blocks of a directory (test/diagnostic).
    pub fn dir_blocks(&self, dir: InodeNo) -> usize {
        self.dirs.get(&dir).map(|d| d.blocks.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(htree: bool) -> (NormalStore, DataArea, MdsLayout) {
        let layout = MdsLayout::default();
        let mut data = DataArea::new(&layout);
        let store = NormalStore::new(&layout, htree, &mut data);
        (store, data, layout)
    }

    #[test]
    fn create_dirties_dirent_itable_and_ibitmap() {
        let (mut s, mut d, l) = setup(false);
        let (_, eff) = s.create(&mut d, ROOT_INO, "a", 1);
        assert!(eff.dirty.contains(&l.inode_bitmap(0)));
        assert!(eff
            .dirty
            .iter()
            .any(|&b| b >= l.itable_block(0, 0) && b < l.itable_block(0, 0) + l.itable_blocks));
        assert!(eff.dirty.iter().any(|&b| b >= l.data_base(0)));
        assert_eq!(eff.journal_blocks, 1);
    }

    #[test]
    fn linear_lookup_scans_blocks_up_to_entry() {
        let (mut s, mut d, _) = setup(false);
        // Fill more than one dirent block.
        for i in 0..300 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        assert_eq!(s.dir_blocks(ROOT_INO), 2);
        // f299 sits in block 1: the linear scan reads blocks 0 and 1.
        let (ino, eff) = s.lookup(ROOT_INO, "f299");
        assert!(ino.is_some());
        assert_eq!(eff.reads.len(), 2);
    }

    #[test]
    fn htree_lookup_reads_index_plus_one_bucket() {
        let (mut s, mut d, _) = setup(true);
        for i in 0..300 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        // Index block + exactly one hashed bucket, independent of size.
        let (ino, eff) = s.lookup(ROOT_INO, "f299");
        assert!(ino.is_some());
        assert_eq!(eff.reads.len(), 2);
        // ... while the 300-entry linear directory scans ~2 blocks only
        // because it is still small; at 3000 entries the gap is real.
        for i in 300..3000 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        let (_, eff) = s.lookup(ROOT_INO, "f2999");
        assert_eq!(eff.reads.len(), 2, "htree stays at 2 reads");
    }

    #[test]
    fn htree_buckets_split_and_entries_survive() {
        let (mut s, mut d, _) = setup(true);
        for i in 0..1000 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        // Splits happened (capacity 240/bucket) and every entry resolves.
        assert!(s.dir_blocks(ROOT_INO) >= 5);
        for i in (0..1000).step_by(97) {
            let (ino, _) = s.lookup(ROOT_INO, &format!("f{i}"));
            assert!(ino.is_some(), "f{i} lost after splits");
        }
    }

    #[test]
    fn dirs_spread_over_groups() {
        let (mut s, mut d, _) = setup(false);
        let (a, _) = s.mkdir(&mut d, ROOT_INO, "d0");
        let (b, _) = s.mkdir(&mut d, ROOT_INO, "d1");
        let ga = s.dirs[&a].group;
        let gb = s.dirs[&b].group;
        assert_ne!(ga, gb, "rlov round-robin places dirs apart");
    }

    #[test]
    fn files_follow_parent_group() {
        let (mut s, mut d, _) = setup(false);
        let (dir, _) = s.mkdir(&mut d, ROOT_INO, "d0");
        let (f, _) = s.create(&mut d, dir, "x", 1);
        assert_eq!(s.inodes[&f].group, s.dirs[&dir].group);
    }

    #[test]
    fn unlink_does_not_touch_itable() {
        let (mut s, mut d, l) = setup(false);
        s.create(&mut d, ROOT_INO, "a", 1);
        let eff = s.unlink(&mut d, ROOT_INO, "a");
        assert!(eff.dirty.contains(&l.inode_bitmap(0)));
        let itable_range = l.itable_block(0, 0)..l.data_base(0);
        assert!(
            !eff.dirty.iter().any(|b| itable_range.contains(b)),
            "unlink must not rewrite the inode table: {:?}",
            eff.dirty
        );
    }

    #[test]
    fn unlink_frees_and_reuses_inode_slot() {
        let (mut s, mut d, _) = setup(false);
        let (a, _) = s.create(&mut d, ROOT_INO, "a", 1);
        let idx = s.inodes[&a].index;
        s.unlink(&mut d, ROOT_INO, "a");
        let (b, _) = s.create(&mut d, ROOT_INO, "b", 1);
        assert_eq!(s.inodes[&b].index, idx, "freed index is reused");
    }

    #[test]
    fn large_mapping_allocates_indirect_blocks() {
        let (mut s, mut d, _) = setup(false);
        let (ino, eff) = s.create(&mut d, ROOT_INO, "big", 300);
        // (300 - 4) / 128 -> 3 indirect blocks.
        assert_eq!(s.inodes[&ino].map_blocks.len(), 3);
        assert!(eff.dirty.len() >= 5);
        let eff2 = s.getlayout(ROOT_INO, "big");
        assert!(eff2.reads.len() >= 4, "inode + 3 map blocks");
    }

    #[test]
    fn unlink_frees_indirect_blocks() {
        let (mut s, mut d, _) = setup(false);
        s.create(&mut d, ROOT_INO, "big", 300);
        let free_before = d.free_blocks();
        let eff = s.unlink(&mut d, ROOT_INO, "big");
        assert_eq!(d.free_blocks(), free_before + 3);
        assert_eq!(eff.freed.iter().map(|(_, l)| l).sum::<u64>(), 3);
    }

    #[test]
    fn readdir_stat_reads_dirents_and_itable() {
        let (mut s, mut d, _) = setup(false);
        for i in 0..64 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        let eff = s.readdir_stat(ROOT_INO);
        // 1 dirent block + 3 itable blocks (the 64 files' indexes start at
        // 1 — index 0 is the root inode — so they straddle blocks 0..=2).
        assert_eq!(eff.reads.len(), 4);
    }

    #[test]
    fn rename_keeps_ino_and_dirties_both_dirs() {
        let (mut s, mut d, _) = setup(false);
        let (dst, _) = s.mkdir(&mut d, ROOT_INO, "dst");
        let (ino, _) = s.create(&mut d, ROOT_INO, "a", 1);
        let eff = s.rename(&mut d, ROOT_INO, "a", dst, "b");
        assert!(eff.dirty.len() >= 2);
        let (found, _) = s.lookup(dst, "b");
        assert_eq!(found, Some(ino), "inode number is stable across rename");
        let (gone, _) = s.lookup(ROOT_INO, "a");
        assert_eq!(gone, None);
    }

    #[test]
    fn dirent_blocks_grow_contiguously() {
        let (mut s, mut d, _) = setup(false);
        for i in 0..600 {
            s.create(&mut d, ROOT_INO, &format!("f{i}"), 1);
        }
        let dir = &s.dirs[&ROOT_INO];
        assert_eq!(dir.blocks.len(), 3);
        assert_eq!(dir.blocks[1], dir.blocks[0] + 1);
        assert_eq!(dir.blocks[2], dir.blocks[1] + 1);
    }
}
