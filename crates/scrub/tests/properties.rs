//! Scrubber properties, on realistically aged systems:
//!
//! 1. every injected latent corruption is *found* within one pass;
//! 2. a clean array produces zero corruptions and zero findings;
//! 3. scrubbing never perturbs metadata consistency — fsck after a scrub
//!    agrees exactly with fsck alone;
//! 4. redundancy-covered damage is repaired from the surviving copies and
//!    the media ends verified-clean.

use mif_core::FileSystem;
use mif_fsck::{Finding, FsckOptions};
use mif_rng::SmallRng;
use mif_scrub::{scrub_pass, ScrubFinding};
use mif_tier::replicate_file;
use mif_workloads::{age_data_fs, DataAgingParams};

fn aged() -> FileSystem {
    let (fs, _) = age_data_fs(&DataAgingParams::default());
    fs
}

/// Plant `per_ost` latent defects on every bay, spread deterministically
/// over allocated and free space alike. Returns the distinct planted set.
fn plant_damage(fs: &mut FileSystem, seed: u64, per_ost: u64) -> Vec<(usize, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = fs.config.geometry.blocks;
    let mut planted = Vec::new();
    for ost in 0..fs.total_osts() {
        for _ in 0..per_ost {
            let b = rng.gen_range(0..blocks);
            fs.damage_block(ost, b);
            planted.push((ost, b));
        }
    }
    planted.sort_unstable();
    planted.dedup();
    planted
}

#[test]
fn every_injected_corruption_is_found_within_one_pass() {
    let mut fs = aged();
    let planted = plant_damage(&mut fs, 0xD15C, 16);
    let report = scrub_pass(&mut fs);
    assert!(report.completed);
    assert_eq!(
        report.corruptions_found as usize,
        planted.len(),
        "one pass must surface every defect: {report:?}"
    );
    // Every defect was either repaired/healed or filed as a finding —
    // none vanished unaccounted.
    assert_eq!(
        (report.repaired + report.free_healed + report.findings.len() as u64) as usize,
        planted.len()
    );
    // The media ends clean except exactly the uncovered findings.
    let still_damaged: Vec<(usize, u64)> = (0..fs.total_osts())
        .flat_map(|ost| fs.damaged_blocks(ost).into_iter().map(move |b| (ost, b)))
        .collect();
    let mut reported: Vec<(usize, u64)> = report
        .findings
        .iter()
        .map(|f: &ScrubFinding| (f.ost, f.block))
        .collect();
    reported.sort_unstable();
    assert_eq!(still_damaged, reported);
}

#[test]
fn clean_array_produces_zero_findings() {
    let mut fs = aged();
    let report = scrub_pass(&mut fs);
    assert!(report.completed);
    assert_eq!(report.corruptions_found, 0, "{report:?}");
    assert!(report.findings.is_empty());
    assert_eq!(report.repaired + report.free_healed, 0);
}

#[test]
fn scrub_then_fsck_agrees_with_fsck_alone() {
    // Aging is deterministic, so two builds are identical systems.
    let mut plain = aged();
    let mut scrubbed = aged();
    plant_damage(&mut plain, 7, 8);
    plant_damage(&mut scrubbed, 7, 8);

    scrub_pass(&mut scrubbed);
    let direct: Vec<Finding> = mif_fsck::run(&mut plain, &FsckOptions::default()).findings;
    let after: Vec<Finding> = mif_fsck::run(&mut scrubbed, &FsckOptions::default()).findings;
    assert_eq!(
        direct, after,
        "scrubbing must not create or mask metadata inconsistencies"
    );
}

#[test]
fn replica_covered_damage_repairs_from_the_surviving_copy() {
    let mut fs = aged();
    let mut wal = mif_mds::TierWal::new();
    // Cover one survivor's spans with replicas, then damage a primary
    // block that a replica covers.
    let file = *fs.file_handles().first().expect("aged fs has files");
    replicate_file(&mut fs, &mut wal, file).expect("replication succeeds");
    let replica = fs.tier().replicas().first().cloned().expect("placed one");
    let col = replica.src_ost as usize;
    let ost = fs.ost_of_column(file, col).unwrap() as usize;
    let (_, phys, _) = fs
        .physical_layout(file, col)
        .iter()
        .copied()
        .find(|&(l, _, ln)| l <= replica.logical && replica.logical < l + ln)
        .expect("replica source is mapped");
    fs.damage_block(ost, phys);

    let report = scrub_pass(&mut fs);
    assert_eq!(report.corruptions_found, 1, "{report:?}");
    assert_eq!(report.repaired, 1, "repaired from the replica");
    assert!(report.findings.is_empty());
    assert!(
        fs.damaged_blocks(ost).is_empty(),
        "primary verified clean after repair"
    );
    // Second pass proves the repair took: nothing left to find.
    let again = scrub_pass(&mut fs);
    assert_eq!(again.corruptions_found, 0);
    assert_eq!(fs.lifecycle().scrub_passes, 2);
    assert_eq!(fs.lifecycle().scrub_corruptions_found, 1);
    assert_eq!(fs.lifecycle().scrub_repaired, 1);
}
