//! Property-style tests for extent trees and striping — seeded random
//! scripts, replayable from the printed seed.

use mif::extent::{Extent, ExtentTree};
use mif::pfs::Striping;
use mif_rng::SmallRng;
use std::collections::{BTreeMap, HashMap};

const CASES: u64 = 128;

/// Generate disjoint logical runs by walking forward with gaps.
fn disjoint_runs(rng: &mut SmallRng) -> Vec<(u64, u64, u64)> {
    let mut runs = Vec::new();
    let mut pos = 0u64;
    for i in 0..rng.gen_range(1usize..80) {
        pos += rng.gen_range(0u64..16);
        let len = rng.gen_range(1u64..12);
        // Physical placement pseudo-random but collision-free.
        let phys = (i as u64) * 1_000 + rng.next_u64() % 500;
        runs.push((pos, phys, len));
        pos += len;
    }
    runs
}

/// The tree agrees with a naive block map on every translation.
#[test]
fn tree_matches_naive_model() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x72EE_0000 + seed);
        let runs = disjoint_runs(&mut rng);
        let mut tree = ExtentTree::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(logical, phys, len) in &runs {
            tree.insert(Extent::new(logical, phys, len));
            for i in 0..len {
                model.insert(logical + i, phys + i);
            }
        }
        assert_eq!(tree.mapped_blocks(), model.len() as u64, "seed {seed}");
        let max = runs.iter().map(|r| r.0 + r.2).max().unwrap_or(0);
        for b in 0..max + 2 {
            assert_eq!(
                tree.translate(b),
                model.get(&b).copied(),
                "seed {seed}: block {b}"
            );
        }
    }
}

/// resolve() + gaps() partition any queried range exactly.
#[test]
fn resolve_and_gaps_partition_ranges() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x6A25_0000 + seed);
        let runs = disjoint_runs(&mut rng);
        let query_start = rng.gen_range(0u64..400);
        let query_len = rng.gen_range(1u64..300);
        let mut tree = ExtentTree::new();
        for &(logical, phys, len) in &runs {
            tree.insert(Extent::new(logical, phys, len));
        }
        let mapped: u64 = tree
            .resolve(query_start, query_len)
            .iter()
            .map(|r| r.1)
            .sum();
        let holes: u64 = tree.gaps(query_start, query_len).iter().map(|g| g.1).sum();
        assert_eq!(mapped + holes, query_len, "seed {seed}: partition leak");

        // Both walks against a block-by-block reading of translate():
        // maximal unmapped stretches, maximal physically contiguous runs.
        let (mut want_gaps, mut want_runs) = (Vec::new(), Vec::new());
        let mut prev_mapped = true;
        for b in query_start..query_start + query_len {
            match tree.translate(b) {
                None if prev_mapped => want_gaps.push((b, 1)),
                None => want_gaps.last_mut().unwrap().1 += 1,
                Some(p) => match want_runs.last_mut() {
                    Some((rp, rl)) if *rp + *rl == p => *rl += 1,
                    _ => want_runs.push((p, 1)),
                },
            }
            prev_mapped = tree.translate(b).is_some();
        }
        assert_eq!(tree.gaps(query_start, query_len), want_gaps, "seed {seed}");
        assert_eq!(
            tree.resolve(query_start, query_len),
            want_runs,
            "seed {seed}"
        );
        // The Vec forms are the allocation-free forms, collected.
        let (mut pos, end) = (query_start, query_start + query_len);
        let mut stepped = Vec::new();
        while let Some((g, l)) = tree.next_gap(pos, end) {
            stepped.push((g, l));
            pos = g + l;
        }
        assert_eq!(stepped, want_gaps, "seed {seed}");
        let mut called = Vec::new();
        tree.resolve_with(query_start, query_len, |p, l| called.push((p, l)));
        assert_eq!(called, want_runs, "seed {seed}");

        // Gaps really are unmapped and in-range.
        for (g, l) in tree.gaps(query_start, query_len) {
            assert!(
                g >= query_start && g + l <= query_start + query_len,
                "seed {seed}"
            );
            for b in g..g + l {
                assert_eq!(tree.translate(b), None, "seed {seed}: mapped gap {b}");
            }
        }
    }
}

/// Coalescing never changes the mapping, only the extent count.
#[test]
fn coalescing_preserves_mapping() {
    for n in 1u64..200 {
        let mut tree = ExtentTree::new();
        // Insert in a shuffled-ish order (odd first then even) to force
        // out-of-order coalescing.
        for i in (1..n).step_by(2) {
            tree.insert(Extent::new(i * 4, 1000 + i * 4, 4));
        }
        for i in (0..n).step_by(2) {
            tree.insert(Extent::new(i * 4, 1000 + i * 4, 4));
        }
        assert_eq!(
            tree.extent_count(),
            1,
            "n={n}: fully adjacent runs coalesce"
        );
        for b in 0..n * 4 {
            assert_eq!(tree.translate(b), Some(1000 + b), "n={n}");
        }
    }
}

/// Striping: locate() is a bijection block-by-block and split() covers
/// ranges exactly, for any starting-OST shift.
#[test]
fn striping_is_a_bijection() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0057_21FE_0000 + seed);
        let osts = rng.gen_range(1u32..9);
        let stripe = rng.gen_range(1u64..64);
        let offset = rng.gen_range(0u64..5000);
        let len = rng.gen_range(1u64..500);
        let shift = rng.gen_range(0u32..9);
        let s = Striping::new(osts, stripe);
        // Injective over a window.
        let mut seen = std::collections::HashSet::new();
        for b in offset..offset + len {
            assert!(
                seen.insert(s.locate(b, shift)),
                "seed {seed}: collision at {b}"
            );
        }
        // split() is locate() block by block, a piece growing while the
        // next block continues it on the same OST (across stripe units
        // only when there is a single OST); pieces() is the same walk.
        let mut want: Vec<(u32, u64, u64, u64)> = Vec::new();
        for b in offset..offset + len {
            let (ost, local) = s.locate(b, shift);
            match want.last_mut() {
                Some((o, l, n, _)) if *o == ost && *l + *n == local => *n += 1,
                _ => want.push((ost, local, 1, b)),
            }
        }
        let pieces = s.split(offset, len, shift);
        assert_eq!(pieces, want, "seed {seed}");
        assert_eq!(
            s.pieces(offset, len, shift).collect::<Vec<_>>(),
            want,
            "seed {seed}"
        );
        if osts == 1 {
            assert_eq!(pieces.len(), 1, "seed {seed}: one OST, one piece");
        }
        // split() covers exactly [offset, offset+len).
        let total: u64 = pieces.iter().map(|p| p.2).sum();
        assert_eq!(total, len, "seed {seed}");
        // Every piece locates consistently with locate().
        for (ost, local, run, file_off) in pieces {
            for i in 0..run {
                assert_eq!(
                    s.locate(file_off + i, shift),
                    (ost, local + i),
                    "seed {seed}"
                );
            }
        }
    }
}

/// How an insert meets its neighbours — the cases `ExtentTree::insert`
/// chooses its path on.
#[derive(Default, Debug)]
struct InsertCases {
    extends_prev: u64,
    extends_prev_up_to_next: u64,
    logical_only_abut: u64,
    bridges: u64,
    other: u64,
}

/// Differential test of insert against a per-block map, with inserts
/// biased toward the tail-extend path and the cases that must leave it.
#[test]
fn biased_inserts_match_a_per_block_model() {
    const ARENA: u64 = 1024;
    let mut cases = InsertCases::default();
    for seed in 0..48 {
        let mut rng = SmallRng::seed_from_u64(0x7A11_0000 + seed);
        let mut tree = ExtentTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..200 {
            // Free blocks from `at` up to the next mapped block.
            let room = |model: &BTreeMap<u64, u64>, at: u64| {
                model
                    .range(at..)
                    .next()
                    .map_or(ARENA, |(&b, _)| b.min(ARENA))
                    - at.min(ARENA)
            };
            let far_phys = 1_000_000 + rng.gen_range(0u64..1_000_000);
            let anchor = {
                let all: Vec<Extent> = tree.extents().copied().collect();
                (!all.is_empty()).then(|| all[rng.gen_range(0..all.len())])
            };
            let (at, phys, len) = match (rng.gen_range(0u32..5), anchor) {
                // Continue an extent, logically and physically.
                (0, Some(a)) => {
                    let len = rng.gen_range(1u64..9).min(room(&model, a.logical_end()));
                    (a.logical_end(), a.physical_end(), len)
                }
                // Continue it logically only.
                (1, Some(a)) => {
                    let len = rng.gen_range(1u64..9).min(room(&model, a.logical_end()));
                    (a.logical_end(), far_phys, len)
                }
                // Fill the hole behind it exactly: ends at its successor,
                // which either abuts too (a bridge) or does not.
                (2, Some(a)) => (
                    a.logical_end(),
                    a.physical_end(),
                    room(&model, a.logical_end()),
                ),
                // Plant a successor a short hole away, placed so that
                // filling the hole later bridges (or, half the time, not).
                (3, Some(a)) => {
                    let hole = rng.gen_range(1u64..6);
                    let at = a.logical_end() + hole;
                    let phys = if rng.gen_bool(0.5) {
                        a.physical_end() + hole
                    } else {
                        far_phys
                    };
                    let len = rng.gen_range(1u64..5).min(room(&model, at));
                    if room(&model, a.logical_end()) <= hole {
                        continue;
                    }
                    (at, phys, len)
                }
                _ => {
                    let at = rng.gen_range(0..ARENA);
                    let len = rng.gen_range(1u64..9).min(room(&model, at));
                    (at, far_phys, len)
                }
            };
            if len == 0 {
                continue; // no room there
            }
            let ext = Extent::new(at, phys, len);

            let prev = tree
                .extents()
                .filter(|e| e.logical < ext.logical)
                .last()
                .copied();
            let next = tree.extents().find(|e| e.logical >= ext.logical).copied();
            let abuts_prev = prev.is_some_and(|p| p.abuts(&ext));
            match (abuts_prev, next) {
                (true, Some(n)) if ext.abuts(&n) => cases.bridges += 1,
                (true, Some(n)) if n.logical == ext.logical_end() => {
                    cases.extends_prev_up_to_next += 1
                }
                (true, _) => cases.extends_prev += 1,
                (false, _) if prev.is_some_and(|p| p.logical_end() == ext.logical) => {
                    cases.logical_only_abut += 1
                }
                _ => cases.other += 1,
            }

            tree.insert(ext);
            for i in 0..ext.len {
                assert!(
                    model.insert(ext.logical + i, ext.physical + i).is_none(),
                    "seed {seed} step {step}: the script overlapped itself"
                );
            }
            for b in 0..ARENA {
                assert_eq!(
                    tree.translate(b),
                    model.get(&b).copied(),
                    "seed {seed} step {step}: block {b} after {ext:?}"
                );
            }
            // One extent per maximal run: contiguous logically and physically.
            let mut runs = 0;
            let mut last: Option<(u64, u64)> = None;
            for (&b, &p) in &model {
                if last != Some((b.wrapping_sub(1), p.wrapping_sub(1))) {
                    runs += 1;
                }
                last = Some((b, p));
            }
            assert_eq!(
                tree.extent_count(),
                runs,
                "seed {seed} step {step}: after {ext:?}"
            );
        }
    }
    // The script reached every case it is biased toward.
    for (name, n) in [
        ("extends_prev", cases.extends_prev),
        ("extends_prev_up_to_next", cases.extends_prev_up_to_next),
        ("logical_only_abut", cases.logical_only_abut),
        ("bridges", cases.bridges),
        ("other", cases.other),
    ] {
        assert!(n >= 50, "{name} seen only {n} times: {cases:?}");
    }
}

/// An append that continues its predecessor but runs into its successor
/// is an overlap, not an extend.
#[test]
#[should_panic(expected = "extent overlap")]
fn abutting_append_into_its_successor_panics() {
    let mut t = ExtentTree::new();
    t.insert(Extent::new(0, 100, 4));
    t.insert(Extent::new(6, 500, 4));
    t.insert(Extent::new(4, 104, 4));
}

/// So is one that starts on an existing extent's first block.
#[test]
#[should_panic(expected = "extent overlap")]
fn abutting_append_onto_an_existing_key_panics() {
    let mut t = ExtentTree::new();
    t.insert(Extent::new(0, 100, 4));
    t.insert(Extent::new(4, 500, 4));
    t.insert(Extent::new(4, 104, 2));
}
