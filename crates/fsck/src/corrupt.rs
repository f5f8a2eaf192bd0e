//! Seeded corruption injection — the adversary the checker is tested
//! against.
//!
//! Each class plants exactly one instance of a distinct inconsistency the
//! check passes must find and the repair pass must fix. Injection is
//! deterministic in `(seed, class)`: the same call corrupts the same
//! structure, so a failing test reproduces from its printed seed. The
//! injector mutates in-memory structures directly (the simulated disks are
//! timing-only and carry no block contents), which is the structural
//! analogue of flipping bits in an on-disk bitmap, extent record or
//! directory table.

use crate::FileSystem;
use mif_mds::{DirId, InodeNo};
use mif_rng::SmallRng;

/// The corruption classes the harness can plant. The first three damage
/// the data path (OST bitmaps and extent trees); the rest damage the
/// embedded metadata path and require [`mif_mds::DirMode::Embedded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionClass {
    /// Set a free block's bitmap bit: allocated but owned by no extent.
    BitmapLeak,
    /// Clear a mapped block's bitmap bit: owned but marked free.
    BitmapHole,
    /// Remap one file's extent onto another extent's physical run: the
    /// range is claimed twice, and the victim's old blocks leak.
    ExtentOverlap,
    /// Overwrite a directory's recorded fragmentation-degree numerator.
    DegreeDrift,
    /// Re-point a directory-table entry at a garbage inode number.
    DirtableStale,
    /// Record a rename correlation whose target cannot resolve.
    CorrelationDangling,
    /// Push a live slot onto a directory's lazy-free list.
    LazyFreeAlias,
    /// Clear the data-area bitmap bit under a directory's content run.
    MetaBitmapHole,
    /// Register a valid replica whose source span no file extent maps.
    TierStaleSource,
    /// Build a healthy 4+2 stripe group, then lose one parity run.
    TierParityMissing,
}

/// Every class, in a stable order (test matrices iterate this).
pub const ALL_CLASSES: [CorruptionClass; 10] = [
    CorruptionClass::BitmapLeak,
    CorruptionClass::BitmapHole,
    CorruptionClass::ExtentOverlap,
    CorruptionClass::DegreeDrift,
    CorruptionClass::DirtableStale,
    CorruptionClass::CorrelationDangling,
    CorruptionClass::LazyFreeAlias,
    CorruptionClass::MetaBitmapHole,
    CorruptionClass::TierStaleSource,
    CorruptionClass::TierParityMissing,
];

impl std::fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorruptionClass::BitmapLeak => "bitmap-leak",
            CorruptionClass::BitmapHole => "bitmap-hole",
            CorruptionClass::ExtentOverlap => "extent-overlap",
            CorruptionClass::DegreeDrift => "degree-drift",
            CorruptionClass::DirtableStale => "dirtable-stale",
            CorruptionClass::CorrelationDangling => "correlation-dangling",
            CorruptionClass::LazyFreeAlias => "lazy-free-alias",
            CorruptionClass::MetaBitmapHole => "meta-bitmap-hole",
            CorruptionClass::TierStaleSource => "tier-stale-source",
            CorruptionClass::TierParityMissing => "tier-parity-missing",
        })
    }
}

/// A successful injection: which class and what exactly was damaged.
#[derive(Debug, Clone)]
pub struct Injected {
    pub class: CorruptionClass,
    pub detail: String,
    /// File ids whose extent layout the corruption (and therefore its
    /// repair) may legitimately change. Empty for bitmap- and
    /// metadata-only classes — tests use this to assert repair never
    /// touched any *other* file's layout.
    pub victims: Vec<u64>,
}

/// Plant one instance of `class`, choosing the victim with a RNG seeded
/// from `(seed, class)`. Returns `None` when the class is inapplicable to
/// the current system state (no mapped extents yet, metadata store not in
/// embedded mode, ...). Callers should sync the file system first so
/// delayed allocations are mapped and eligible victims exist.
pub fn inject(fs: &mut FileSystem, class: CorruptionClass, seed: u64) -> Option<Injected> {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(class as u64 + 1),
    );
    let (detail, victims) = match class {
        CorruptionClass::BitmapLeak => (inject_bitmap_leak(fs, &mut rng)?, Vec::new()),
        CorruptionClass::BitmapHole => (inject_bitmap_hole(fs, &mut rng)?, Vec::new()),
        CorruptionClass::ExtentOverlap => inject_extent_overlap(fs, &mut rng)?,
        CorruptionClass::DegreeDrift => (inject_degree_drift(fs, &mut rng)?, Vec::new()),
        CorruptionClass::DirtableStale => (inject_dirtable_stale(fs, &mut rng)?, Vec::new()),
        CorruptionClass::CorrelationDangling => {
            (inject_correlation_dangling(fs, &mut rng)?, Vec::new())
        }
        CorruptionClass::LazyFreeAlias => (inject_lazy_free_alias(fs, &mut rng)?, Vec::new()),
        CorruptionClass::MetaBitmapHole => (inject_meta_bitmap_hole(fs, &mut rng)?, Vec::new()),
        CorruptionClass::TierStaleSource => (inject_tier_stale_source(fs, &mut rng)?, Vec::new()),
        CorruptionClass::TierParityMissing => {
            (inject_tier_parity_missing(fs, &mut rng)?, Vec::new())
        }
    };
    Some(Injected {
        class,
        detail,
        victims,
    })
}

fn inject_bitmap_leak(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let ost = rng.gen_range(0..fs.config.osts as usize);
    let blocks = fs.config.geometry.blocks;
    let start = rng.gen_range(0..blocks);
    let block = (0..blocks)
        .map(|i| (start + i) % blocks)
        .find(|&b| !fs.allocator(ost).is_allocated(b))?;
    fs.corrupt_bitmap(ost, block, true);
    Some(format!("set free block {block} on ost {ost}"))
}

/// Every mapped run as `(file, column, physical ost, logical, phys, len)`,
/// deterministic. Extent trees and the tier map speak columns; bitmaps
/// and disks speak the physical bay the column's `ost_map` entry names.
fn mapped_runs(fs: &FileSystem) -> Vec<(u64, usize, usize, u64, u64, u64)> {
    let mut runs = Vec::new();
    for file in fs.file_handles() {
        for col in 0..fs.column_count(file) {
            let ost = fs
                .ost_of_column(file, col)
                .expect("column within column_count") as usize;
            for (logical, phys, len) in fs.physical_layout(file, col) {
                runs.push((file.0 .0, col, ost, logical, phys, len));
            }
        }
    }
    runs
}

fn inject_bitmap_hole(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let runs = mapped_runs(fs);
    if runs.is_empty() {
        return None;
    }
    let (owner, _, ost, _, phys, len) = runs[rng.gen_range(0..runs.len() as u64) as usize];
    let block = phys + rng.gen_range(0..len);
    fs.corrupt_bitmap(ost, block, false);
    Some(format!(
        "cleared mapped block {block} (file {owner}) on ost {ost}"
    ))
}

fn inject_extent_overlap(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<(String, Vec<u64>)> {
    let runs = mapped_runs(fs);
    // Victim pairs: same OST, distinct runs, the winner at least as long
    // as the loser (so the remapped run nests inside the winner's — the
    // repair then converges in one pass with no stray tail).
    let mut pairs = Vec::new();
    for &w in &runs {
        for &l in &runs {
            let same_run = w.0 == l.0 && w.1 == l.1 && w.3 == l.3;
            if w.2 == l.2 && !same_run && w.5 >= l.5 && w.4 != l.4 {
                pairs.push((w, l));
            }
        }
    }
    if pairs.is_empty() {
        return None;
    }
    let (winner, loser) = pairs[rng.gen_range(0..pairs.len() as u64) as usize];
    let (w_owner, _, ost, _, w_phys, _) = winner;
    let (l_owner, l_col, _, l_logical, l_phys, l_len) = loser;
    fs.corrupt_extent_remap(
        crate::OpenFile(mif_alloc::FileId(l_owner)),
        l_col,
        l_logical,
        w_phys,
    )?;
    Some((
        format!(
            "remapped file {l_owner}'s run [{l_phys}, {}) onto file {w_owner}'s run at {w_phys} (ost {ost})",
            l_phys + l_len
        ),
        vec![l_owner],
    ))
}

fn inject_degree_drift(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let delta = 1 + rng.gen_range(0..7u64);
    let (emb, _) = fs.mds().embedded_mut()?;
    let snaps = emb.dir_snapshots();
    let (dir, snap) = &snaps[rng.gen_range(0..snaps.len() as u64) as usize];
    let old = emb.corrupt_degree_total(*dir, snap.extents_total + delta);
    Some(format!(
        "degree numerator of dir {dir}: {old} -> {}",
        snap.extents_total + delta
    ))
}

fn inject_dirtable_stale(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let r = rng.next_u32();
    let (emb, _) = fs.mds().embedded_mut()?;
    let entries: Vec<_> = emb.dirtable.entries().collect();
    if entries.is_empty() {
        return None;
    }
    let (id, old) = entries[(r as u64 % entries.len() as u64) as usize];
    // A garbage inode number that cannot be the registered holder.
    let garbage = InodeNo(0x7FFF_FFFF_0000_0000 | r as u64);
    emb.dirtable.update(id, garbage);
    Some(format!("dirtable entry {id:?}: {old} -> garbage {garbage}"))
}

fn inject_correlation_dangling(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let r = rng.next_u32();
    let (emb, _) = fs.mds().embedded_mut()?;
    // Target directory id far beyond the table: structurally unresolvable.
    let old = InodeNo::compose(DirId(0x00FF_0000 + (r & 0xFFFF)), 1);
    let new = InodeNo::compose(DirId(0x00FF_8000 + (r >> 16)), 2);
    emb.correlation.record(old, new);
    Some(format!("recorded dangling alias {old} -> {new}"))
}

fn inject_lazy_free_alias(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let r = rng.next_u64();
    let (emb, _) = fs.mds().embedded_mut()?;
    let candidates: Vec<InodeNo> = emb
        .dir_snapshots()
        .iter()
        .filter(|(_, s)| !s.live_slots.is_empty())
        .map(|&(d, _)| d)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let dir = candidates[(r % candidates.len() as u64) as usize];
    let slot = emb.corrupt_alias_free_slot(dir)?;
    Some(format!(
        "aliased live slot {slot} onto dir {dir}'s free list"
    ))
}

fn inject_tier_stale_source(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let osts = fs.config.osts as usize;
    if osts < 2 {
        return None;
    }
    let runs = mapped_runs(fs);
    if runs.is_empty() {
        return None;
    }
    // A replica that claims to cover a span far past anything the file
    // maps — the state left behind when a source moved or shrank without
    // the invalidation reaching the map.
    let (file, src_col, src_phys, ..) = runs[rng.gen_range(0..runs.len() as u64) as usize];
    let dst_ost = (src_phys + 1 + rng.gen_range(0..osts as u64 - 1) as usize) % osts;
    let len = 4;
    let dst_phys = fs.allocator(dst_ost).probe_run(0, len)?;
    assert!(fs.allocator(dst_ost).alloc_at(dst_phys, len));
    let logical = (1u64 << 30) + rng.gen_range(0..1024u64);
    fs.tier_mut().add_replica(mif_core::ReplicaRun {
        file,
        src_ost: src_col as u32,
        logical,
        len,
        dst_ost: dst_ost as u32,
        dst_phys,
        valid: true,
    });
    Some(format!(
        "registered replica of file {file}'s unmapped span [{logical}, {}) on column {src_col}",
        logical + len
    ))
}

fn inject_tier_parity_missing(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let osts = fs.config.osts as usize;
    if osts < 2 {
        return None;
    }
    let runs = mapped_runs(fs);
    // Members reference mapped single blocks of one file (repetition is
    // fine: only the parity OSTs must be distinct).
    let (file, ..) = *runs.first()?;
    let file_runs: Vec<_> = runs.iter().filter(|r| r.0 == file).collect();
    let member = |r: &&(u64, usize, usize, u64, u64, u64)| (r.1 as u32, r.3);
    let members: Vec<(u32, u64)> = (0..4)
        .map(|i| member(&file_runs[i % file_runs.len()]))
        .collect();
    let unit = 1;
    let p0_ost = rng.gen_range(0..osts as u64) as usize;
    let p1_ost = (p0_ost + 1) % osts;
    let p0 = fs.allocator(p0_ost).probe_run(0, unit)?;
    assert!(fs.allocator(p0_ost).alloc_at(p0, unit));
    let p1 = fs.allocator(p1_ost).probe_run(0, unit)?;
    assert!(fs.allocator(p1_ost).alloc_at(p1, unit));
    let group = fs.tier().next_group_index(file);
    fs.tier_mut().add_group(mif_core::StripeGroup {
        file,
        group,
        unit,
        members,
        parity: vec![(p0_ost as u32, p0), (p1_ost as u32, p1)],
        valid: true,
    });
    // Lose one parity run: freed on disk and gone from the map, the way
    // a mis-directed teardown or torn registration leaves things.
    fs.tier_mut().remove_run(file, p1_ost as u32, p1);
    fs.tier_free_run(p1_ost, p1, unit);
    Some(format!(
        "built stripe group {group} of file {file}, then lost its parity run at ost {p1_ost} phys {p1}"
    ))
}

fn inject_meta_bitmap_hole(fs: &mut FileSystem, rng: &mut SmallRng) -> Option<String> {
    let r = rng.next_u64();
    let (emb, data) = fs.mds().embedded_mut()?;
    let snaps = emb.dir_snapshots();
    let mut blocks = Vec::new();
    for (dir, s) in &snaps {
        for &(start, len) in &s.runs {
            for b in start..start + len {
                blocks.push((*dir, b));
            }
        }
    }
    if blocks.is_empty() {
        return None;
    }
    let (dir, block) = blocks[(r % blocks.len() as u64) as usize];
    data.force_bit(block, false);
    Some(format!(
        "cleared data-area bit of dir {dir}'s content block {block}"
    ))
}
