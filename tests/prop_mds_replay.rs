//! Property-style tests for journal redo-replay — seeded random scripts,
//! replayable from the printed seed.

use mif::mds::{DirMode, LoggedOp, Mds, MdsConfig, OpLog, ROOT_INO};
use mif_rng::SmallRng;

const CASES: u64 = 48;

/// Apply a random op to `mds`, mirroring it into `log`.
fn step(mds: &mut Mds, log: &mut OpLog, kind: u8, n: u8, dirs: &[mif::mds::InodeNo; 2]) {
    let d = dirs[(n % 2) as usize];
    let name = format!("f{}", n % 32);
    let op = match kind {
        0 => LoggedOp::Create {
            parent: d,
            name,
            extents: (n % 9) as u32 + 1,
        },
        1 => LoggedOp::Unlink { parent: d, name },
        2 => LoggedOp::Utime { parent: d, name },
        _ => LoggedOp::Rename {
            src: d,
            name,
            dst: dirs[(n as usize + 1) % 2],
            new_name: format!("r{}", n % 32),
        },
    };
    // Creates of an existing name are invalid namespace ops; skip like an
    // application would (the MDS would return EEXIST before journaling).
    if let LoggedOp::Create { parent, name, .. } = &op {
        if mds.lookup(*parent, name).is_some() {
            return;
        }
    }
    if let LoggedOp::Rename { dst, new_name, .. } = &op {
        if mds.lookup(*dst, new_name).is_some() {
            return;
        }
    }
    mif::mds::replay::apply(mds, &op);
    log.record(op);
}

/// Replaying the recorded log reproduces the namespace, and any prefix
/// of it is checker-consistent (crash-at-any-boundary).
#[test]
fn replay_matches_original() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x2E_1A70_0000 + seed);
        let mode = [DirMode::Normal, DirMode::Htree, DirMode::Embedded][rng.gen_range(0usize..3)];
        let mut mds = Mds::new(MdsConfig::with_mode(mode));
        let mut log = OpLog::new();
        for dname in ["d1", "d2"] {
            let op = LoggedOp::Mkdir {
                parent: ROOT_INO,
                name: dname.into(),
            };
            mif::mds::replay::apply(&mut mds, &op);
            log.record(op);
        }
        let d1 = mds.lookup(ROOT_INO, "d1").expect("d1");
        let d2 = mds.lookup(ROOT_INO, "d2").expect("d2");
        let dirs = [d1, d2];

        for _ in 0..rng.gen_range(1usize..80) {
            let kind = rng.gen_range(0u8..4);
            let n = rng.gen::<u8>();
            step(&mut mds, &mut log, kind, n, &dirs);
        }

        // Full replay equivalence over every possible name.
        let mut recovered = log.replay(mode);
        let rd1 = recovered.lookup(ROOT_INO, "d1").expect("d1");
        let rd2 = recovered.lookup(ROOT_INO, "d2").expect("d2");
        assert_eq!(rd1, d1, "seed {seed} {mode}");
        assert_eq!(rd2, d2, "seed {seed} {mode}");
        for n in 0..32 {
            for (orig_d, rec_d) in [(d1, rd1), (d2, rd2)] {
                for prefix in ["f", "r"] {
                    let name = format!("{prefix}{n}");
                    assert_eq!(
                        mds.lookup(orig_d, &name),
                        recovered.lookup(rec_d, &name),
                        "seed {seed} {mode}: {name} diverged"
                    );
                }
            }
        }

        // Sampled crash points stay consistent.
        for cut in (0..=log.len()).step_by(11) {
            let m = log.replay_prefix(mode, cut);
            assert!(
                m.check().is_empty(),
                "seed {seed} {mode}: dirty state at op {cut}"
            );
        }
    }
}
