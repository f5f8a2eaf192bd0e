//! # mif-scrub — background media scrubbing for the MiF simulator
//!
//! Latent sector errors are the silent killer of long-lived disk fleets:
//! a grown media defect corrupts a block's content without any IO error,
//! and an ordinary read happily returns stale bytes. The only defense is
//! to *verify* the media before the data is needed — a scrubber that
//! walks every bay checksum-reading the platters, repairs what the
//! redundancy layer covers, and files findings for what it does not.
//!
//! One [`scrub_pass`] walks every serving bay (`Healthy`, `Draining`,
//! `Rebuilding`; failed and absent bays have no media to verify) in
//! fixed-size verify-read chunks (`CHUNK_BLOCKS`), charged
//! against the disk clock like any other IO. Each damaged block found is
//! resolved to its owner and repaired in place — a write over a damaged
//! block lays down fresh content, healing the defect:
//!
//! * a **file extent** block repairs from the tier layer's redundancy
//!   (covering replica, else 4+2 stripe reconstruction) — the repair
//!   *reads the surviving copies*, never the damaged block itself, so a
//!   repaired block is correct by construction;
//! * a **replica** block re-copies from its primary span;
//! * a **parity** block re-encodes from its group's data members;
//! * a **free** block is simply rewritten (no content to lose);
//! * anything uncovered becomes a [`ScrubFinding`] — detected, reported,
//!   deliberately left damaged so the operator (and the next pass) sees
//!   the data loss instead of a silent "repair" from the damaged bytes.
//!
//! The pass is budgeted and resumable ([`scrub_step`] + [`ScrubCursor`]):
//! at most `BUDGET_BLOCKS_PER_TICK` blocks are verified per tick, and the
//! per-dispatch service time is sampled each tick — when the foreground
//! looks saturated the budget halves, exactly the defrag scheduler's
//! throttle shape, so scrubbing bounds its own impact on foreground p99.

use mif_core::{DegradedSource, FileSystem, LifecycleStats, OpenFile, TierRun};
use mif_simdisk::Nanos;

/// Blocks per verify read (one sequential media read).
const CHUNK_BLOCKS: u64 = 2048;
/// Verify-read budget per tick.
const BUDGET_BLOCKS_PER_TICK: u64 = 16384;
/// Per-dispatch service time above which the scrubber backs off.
const LATENCY_BACKOFF_NS: Nanos = 40_000_000;

/// The budget never shrinks below this, so progress cannot stall.
const MIN_BUDGET_BLOCKS: u64 = 256;

/// Resume point of an interrupted pass: the next block to verify.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubCursor {
    /// Physical bay currently being walked.
    pub ost: usize,
    /// Next physical block on that bay.
    pub block: u64,
}

/// Who owned a damaged block the scrubber could not repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingOwner {
    /// A file extent with no covering replica or reconstructable stripe.
    File { file: u64, col: u32, logical: u64 },
    /// A replica run whose primary span is no longer mapped.
    Replica { file: u64 },
    /// A parity run whose group members are no longer fully mapped.
    Parity { file: u64, group: u64 },
}

/// One damaged block the redundancy layer does not cover: detected and
/// reported, but *not* silently papered over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Physical bay holding the block.
    pub ost: usize,
    /// The damaged physical block.
    pub block: u64,
    pub owner: FindingOwner,
}

/// What one pass (or one budgeted step) accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks checksum-verified.
    pub scanned_blocks: u64,
    /// Damaged blocks detected.
    pub corruptions_found: u64,
    /// Damaged blocks repaired from redundancy (file data, replicas,
    /// parity) — re-read from surviving copies and rewritten.
    pub repaired: u64,
    /// Damaged *free* blocks healed by a plain rewrite.
    pub free_healed: u64,
    /// Uncovered damage: detected, reported, left in place.
    pub findings: Vec<ScrubFinding>,
    /// Ticks executed.
    pub ticks: u64,
    /// Ticks that ended in a latency backoff.
    pub backoffs: u64,
    /// Bays skipped because they serve no IO (failed / absent).
    pub skipped_bays: u64,
    /// The cursor wrapped: every serving bay was verified end to end.
    pub completed: bool,
}

impl ScrubReport {
    fn absorb_into(&self, lc: &mut LifecycleStats) {
        lc.scrub_scanned_blocks += self.scanned_blocks;
        lc.scrub_corruptions_found += self.corruptions_found;
        lc.scrub_repaired += self.repaired + self.free_healed;
        lc.scrub_findings += self.findings.len() as u64;
        if self.completed {
            lc.scrub_passes += 1;
        }
    }
}

/// One full scrub pass: every serving bay, end to end. Equivalent to
/// [`scrub_step`] from a fresh cursor with an unbounded block cap.
pub fn scrub_pass(fs: &mut FileSystem) -> ScrubReport {
    let mut cursor = ScrubCursor::default();
    scrub_step(fs, &mut cursor, u64::MAX)
}

/// Verify at most `max_blocks` from `cursor`, advancing it; call again
/// with the same cursor to resume. `completed` turns true on the step
/// that walks past the last bay (the cursor then resets to the start, so
/// the next call begins a fresh pass).
pub fn scrub_step(fs: &mut FileSystem, cursor: &mut ScrubCursor, max_blocks: u64) -> ScrubReport {
    let mut report = ScrubReport::default();
    let osts = fs.total_osts();
    let bay_blocks = fs.config.geometry.blocks;
    let mut budget = BUDGET_BLOCKS_PER_TICK;

    'outer: while cursor.ost < osts {
        if !fs.ost_health(cursor.ost).serves_io() {
            if cursor.block == 0 {
                report.skipped_bays += 1;
            }
            cursor.ost += 1;
            cursor.block = 0;
            continue;
        }
        while cursor.block < bay_blocks {
            if report.scanned_blocks >= max_blocks {
                break 'outer;
            }
            report.ticks += 1;
            let tick_start = fs.data_stats();
            let mut verified_this_tick = 0u64;
            while verified_this_tick < budget && cursor.block < bay_blocks {
                let len = CHUNK_BLOCKS
                    .min(bay_blocks - cursor.block)
                    .min(max_blocks.saturating_sub(report.scanned_blocks))
                    .max(1);
                let damaged = match fs.scrub_disk_range(cursor.ost, cursor.block, len) {
                    Ok(d) => d,
                    // The bay died mid-pass: nothing left to verify here.
                    Err(_) => {
                        cursor.block = bay_blocks;
                        break;
                    }
                };
                cursor.block += len;
                report.scanned_blocks += len;
                verified_this_tick += len;
                for block in damaged {
                    report.corruptions_found += 1;
                    repair_block(fs, cursor.ost, block, &mut report);
                }
                if report.scanned_blocks >= max_blocks {
                    break;
                }
            }
            // Foreground-latency sample, the defrag scheduler's shape.
            let delta = fs.data_stats().since(&tick_start);
            let mean_ns = delta.busy_ns.checked_div(delta.dispatched).unwrap_or(0);
            if mean_ns > LATENCY_BACKOFF_NS {
                report.backoffs += 1;
                budget = (budget / 2).max(MIN_BUDGET_BLOCKS);
            } else if budget < BUDGET_BLOCKS_PER_TICK {
                budget = (budget * 2).min(BUDGET_BLOCKS_PER_TICK);
            }
        }
        if cursor.block >= bay_blocks {
            cursor.ost += 1;
            cursor.block = 0;
        }
    }
    if cursor.ost >= osts {
        report.completed = true;
        *cursor = ScrubCursor::default();
    }
    report.absorb_into(fs.lifecycle_mut());
    report
}

/// Who owns one physical block.
enum Owner {
    File {
        file: OpenFile,
        col: usize,
        logical: u64,
    },
    Tier(TierRun),
    Free,
}

fn owner_of(fs: &FileSystem, ost: usize, block: u64) -> Owner {
    // Tier artifacts first: their blocks are allocator-owned but mapped
    // by no file extent, so the extent walk below cannot claim them.
    for r in fs.tier().runs_on_ost(ost as u32) {
        if block >= r.phys && block < r.phys + r.len {
            return Owner::Tier(r);
        }
    }
    for file in fs.file_handles() {
        for col in 0..fs.column_count(file) {
            if fs.ost_of_column(file, col) != Some(ost as u32) {
                continue;
            }
            for (l, p, ln) in fs.physical_layout(file, col) {
                if block >= p && block < p + ln {
                    return Owner::File {
                        file,
                        col,
                        logical: l + (block - p),
                    };
                }
            }
        }
    }
    Owner::Free
}

/// The `(physical ost, phys, len)` reads backing `logical..logical+len`
/// of (`file`, column `col`), or `None` if the span is not fully mapped.
fn column_span_reads(
    fs: &FileSystem,
    file: OpenFile,
    col: usize,
    logical: u64,
    len: u64,
) -> Option<Vec<(usize, u64, u64)>> {
    let phys_ost = fs.ost_of_column(file, col)? as usize;
    let mut reads = Vec::new();
    let mut covered = 0;
    for (l, p, ln) in fs.physical_layout(file, col) {
        let lo = l.max(logical);
        let hi = (l + ln).min(logical + len);
        if lo < hi {
            reads.push((phys_ost, p + (lo - l), hi - lo));
            covered += hi - lo;
        }
    }
    (covered == len).then_some(reads)
}

/// Resolve one damaged block's owner and repair it if the redundancy
/// layer covers it; otherwise file a finding.
fn repair_block(fs: &mut FileSystem, ost: usize, block: u64, report: &mut ScrubReport) {
    match owner_of(fs, ost, block) {
        Owner::Free => {
            // Free space holds no content worth preserving: a plain
            // rewrite heals the defect before the block is next granted.
            if fs.tier_try_io(&[], &[(ost, block, 1)]).is_ok() {
                report.free_healed += 1;
            }
        }
        Owner::File { file, col, logical } => {
            let healths = fs.ost_healths();
            let map = fs.ost_map_of(file);
            let src = fs.tier().degraded_source(
                file.0 .0,
                col as u32,
                logical,
                1,
                |c| map[c as usize],
                |o| healths[o as usize].serves_io(),
            );
            let reads = match src {
                Some(DegradedSource::Replica {
                    ost: r_ost,
                    phys,
                    len,
                }) => Some(vec![(r_ost as usize, phys, len)]),
                Some(DegradedSource::Stripe { unit, reads, .. }) => {
                    let mut io = Vec::new();
                    let mut ok = true;
                    for (o, start, is_parity) in reads {
                        if is_parity {
                            io.push((o as usize, start, unit));
                        } else {
                            match column_span_reads(fs, file, o as usize, start, unit) {
                                Some(r) => io.extend(r),
                                None => ok = false,
                            }
                        }
                    }
                    ok.then_some(io)
                }
                None => None,
            };
            match reads {
                Some(reads) if fs.tier_try_io(&reads, &[(ost, block, 1)]).is_ok() => {
                    report.repaired += 1;
                }
                _ => report.findings.push(ScrubFinding {
                    ost,
                    block,
                    owner: FindingOwner::File {
                        file: file.0 .0,
                        col: col as u32,
                        logical,
                    },
                }),
            }
        }
        Owner::Tier(run) if !run.parity => {
            // A replica block re-copies from its primary span.
            let src = fs.tier().replicas().iter().find_map(|r| {
                (r.file == run.file
                    && r.dst_ost == run.ost
                    && block >= r.dst_phys
                    && block < r.dst_phys + r.len)
                    .then(|| (r.src_ost, r.logical + (block - r.dst_phys)))
            });
            let file = handle_of(fs, run.file);
            let reads = src.and_then(|(src_col, logical)| {
                column_span_reads(fs, file?, src_col as usize, logical, 1)
            });
            match reads {
                Some(reads) if fs.tier_try_io(&reads, &[(ost, block, 1)]).is_ok() => {
                    report.repaired += 1;
                }
                _ => report.findings.push(ScrubFinding {
                    ost,
                    block,
                    owner: FindingOwner::Replica { file: run.file },
                }),
            }
        }
        Owner::Tier(run) => {
            // A parity block re-encodes from its group's data members.
            let group = fs.tier().groups().iter().find_map(|g| {
                (g.file == run.file && g.parity.contains(&(run.ost, run.phys)))
                    .then(|| (g.group, g.unit, g.members.clone()))
            });
            let file = handle_of(fs, run.file);
            let reads = group.as_ref().and_then(|(_, unit, members)| {
                let mut io = Vec::new();
                for &(col, start) in members {
                    io.extend(column_span_reads(fs, file?, col as usize, start, *unit)?);
                }
                Some(io)
            });
            match reads {
                Some(reads) if fs.tier_try_io(&reads, &[(ost, block, 1)]).is_ok() => {
                    report.repaired += 1;
                }
                _ => report.findings.push(ScrubFinding {
                    ost,
                    block,
                    owner: FindingOwner::Parity {
                        file: run.file,
                        group: group.map(|(g, ..)| g).unwrap_or(u64::MAX),
                    },
                }),
            }
        }
    }
}

fn handle_of(fs: &FileSystem, file: u64) -> Option<OpenFile> {
    fs.file_handles().into_iter().find(|f| f.0 .0 == file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::{PolicyKind, StreamId};
    use mif_core::FsConfig;

    fn written_fs(osts: u32) -> (FileSystem, OpenFile) {
        let mut fs = FileSystem::new(FsConfig::with_policy(PolicyKind::Reservation, osts));
        let f = fs.create("scrubbed", None);
        fs.begin_round();
        fs.write(f, StreamId::new(1, 0), 0, 256);
        fs.end_round();
        fs.sync_data();
        fs.close(f);
        (fs, f)
    }

    #[test]
    fn clean_array_scrubs_clean() {
        let (mut fs, _) = written_fs(4);
        let report = scrub_pass(&mut fs);
        assert!(report.completed);
        assert_eq!(report.corruptions_found, 0);
        assert!(report.findings.is_empty());
        assert_eq!(
            report.scanned_blocks,
            4 * fs.config.geometry.blocks,
            "every block of every bay verified"
        );
        assert_eq!(fs.lifecycle().scrub_passes, 1);
    }

    #[test]
    fn free_space_damage_heals_in_place() {
        let (mut fs, _) = written_fs(3);
        let free = (0..fs.config.geometry.blocks)
            .find(|&b| !fs.allocator(2).is_allocated(b))
            .unwrap();
        fs.damage_block(2, free);
        let report = scrub_pass(&mut fs);
        assert_eq!(report.corruptions_found, 1);
        assert_eq!(report.free_healed, 1);
        assert!(report.findings.is_empty());
        assert!(fs.damaged_blocks(2).is_empty(), "the rewrite healed it");
    }

    #[test]
    fn uncovered_file_damage_is_a_finding_not_a_silent_fix() {
        let (mut fs, f) = written_fs(3);
        let col = (0..fs.column_count(f))
            .find(|&c| !fs.physical_layout(f, c).is_empty())
            .unwrap();
        let ost = fs.ost_of_column(f, col).unwrap() as usize;
        let (_, phys, _) = fs.physical_layout(f, col)[0];
        fs.damage_block(ost, phys);
        let report = scrub_pass(&mut fs);
        assert_eq!(report.corruptions_found, 1);
        assert_eq!(report.repaired, 0, "no redundancy to repair from");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].owner,
            FindingOwner::File {
                file: f.0 .0,
                col: col as u32,
                logical: 0
            }
        );
        assert_eq!(
            fs.damaged_blocks(ost),
            vec![phys],
            "uncovered damage is left visible, not papered over"
        );
    }

    #[test]
    fn budgeted_steps_resume_and_cover_the_whole_array() {
        let (mut fs, _) = written_fs(2);
        let total = 2 * fs.config.geometry.blocks;
        let mut cursor = ScrubCursor::default();
        let mut scanned = 0;
        let mut steps = 0;
        loop {
            let r = scrub_step(&mut fs, &mut cursor, total / 7 + 1);
            scanned += r.scanned_blocks;
            steps += 1;
            if r.completed {
                break;
            }
        }
        assert_eq!(scanned, total);
        assert!(steps > 1, "the cap forced multiple resumes");
        assert_eq!(cursor, ScrubCursor::default(), "cursor reset for next pass");
    }
}
