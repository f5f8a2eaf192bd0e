//! Seeded session programs for the two service workloads.
//!
//! A session is what one simulated client does between connecting and
//! closing its file. The same generator feeds the server run and the layer
//! replays, so a replay sees exactly the inputs the server saw. The program
//! under test never sees the seed, only the generated operations.

use mif_rng::SmallRng;
use mif_workloads::ZipfGen;

/// Files in the shared population.
pub const FILES: u64 = 64;
const ZIPF_THETA: f64 = 0.99;
/// Data operations per session (between `Open` and `Close`).
pub const SESSION_OPS: u64 = 32;
/// Blocks per write request.
pub const WRITE_BLOCKS: u64 = 2;
/// Blocks per read request of `svc_restart_mixed`.
pub const READ_BLOCKS: u64 = 8;
/// Every `SYNC_EVERY`th checkpoint session ends with a `Sync`.
const SYNC_EVERY: u64 = 16;
/// Blocks of each pre-populated file of `svc_restart_mixed`.
pub const RESTART_FILE_BLOCKS: u64 = 32_768;
/// Share of a restart session's operations that are reads.
const READ_SHARE: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcKind {
    /// `svc_ckpt_write`: N-1 checkpoint, extending writes only.
    CkptWrite,
    /// `svc_restart_mixed`: reads and in-place writes on populated files.
    RestartMixed,
}

/// One operation of a session, before the server handed out a handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Open,
    Write { offset: u64, len: u64 },
    Read { offset: u64, len: u64 },
    Sync,
    Close,
}

/// One session's program, generated step by step.
#[derive(Debug, Clone)]
pub struct Session {
    /// The client id; also the id of the session's write stream.
    pub id: u64,
    /// Which file of the population it opens.
    pub file: u64,
    kind: SvcKind,
    rng: SmallRng,
    /// Next block of the sequential cursor (write position of a checkpoint
    /// session, read position of a restart session).
    cursor: u64,
    issued: u64,
    steps: u64,
}

impl Session {
    /// Steps in this session's program, `Open` and `Close` included.
    pub fn len(&self) -> u64 {
        self.steps
    }

    /// First block of the region a checkpoint session writes.
    pub fn region_base(&self) -> u64 {
        self.id * SESSION_OPS * WRITE_BLOCKS
    }

    /// The next step, or `None` after `Close`.
    pub fn next_step(&mut self) -> Option<Step> {
        let i = self.issued;
        if i >= self.steps {
            return None;
        }
        self.issued += 1;
        Some(if i == 0 {
            Step::Open
        } else if i == self.steps - 1 {
            Step::Close
        } else if i > SESSION_OPS {
            Step::Sync
        } else {
            match self.kind {
                SvcKind::CkptWrite => {
                    let offset = self.cursor;
                    self.cursor += WRITE_BLOCKS;
                    Step::Write {
                        offset,
                        len: WRITE_BLOCKS,
                    }
                }
                SvcKind::RestartMixed if self.rng.gen_bool(READ_SHARE) => {
                    let offset = self.cursor;
                    self.cursor = (self.cursor + READ_BLOCKS) % RESTART_FILE_BLOCKS;
                    Step::Read {
                        offset,
                        len: READ_BLOCKS,
                    }
                }
                SvcKind::RestartMixed => Step::Write {
                    offset: self.rng.gen_range(0..RESTART_FILE_BLOCKS / WRITE_BLOCKS)
                        * WRITE_BLOCKS,
                    len: WRITE_BLOCKS,
                },
            }
        })
    }
}

/// Requests one session keeps in flight at most.
pub const WINDOW: usize = 8;

/// The seeded stream of sessions of one run.
pub struct Sessions {
    kind: SvcKind,
    seed: u64,
    zipf: ZipfGen,
    bursts: SmallRng,
    next_id: u64,
}

impl Sessions {
    pub fn new(kind: SvcKind, seed: u64) -> Self {
        Sessions {
            kind,
            seed,
            zipf: ZipfGen::new(FILES, ZIPF_THETA, seed),
            bursts: SmallRng::seed_from_u64(seed ^ 0xB0A5_7517),
            // Client ids start at 1; the harness uses none itself.
            next_id: 1,
        }
    }

    /// How many requests the session whose turn it is sends at most: 1 to
    /// [`WINDOW`]. Clients do not batch alike; with equal bursts the
    /// sessions, all of one length, would fall into lockstep and the run's
    /// simulated results would hang on how that lockstep happened to phase.
    pub fn next_burst(&mut self) -> usize {
        self.bursts.gen_range(1..=WINDOW)
    }

    pub fn next_session(&mut self) -> Session {
        let id = self.next_id;
        self.next_id += 1;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (cursor, sync) = match self.kind {
            SvcKind::CkptWrite => (
                id * SESSION_OPS * WRITE_BLOCKS,
                id.is_multiple_of(SYNC_EVERY),
            ),
            SvcKind::RestartMixed => (
                rng.gen_range(0..RESTART_FILE_BLOCKS / READ_BLOCKS) * READ_BLOCKS,
                false,
            ),
        };
        Session {
            id,
            file: self.zipf.next_key(),
            kind: self.kind,
            rng,
            cursor,
            issued: 0,
            steps: SESSION_OPS + 2 + sync as u64,
        }
    }
}

/// Name of population file `key`.
pub fn file_name(key: u64) -> String {
    format!("pop-{key:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(mut s: Session) -> Vec<Step> {
        std::iter::from_fn(|| s.next_step()).collect()
    }

    #[test]
    fn a_checkpoint_session_writes_its_private_region_in_order() {
        let mut gen = Sessions::new(SvcKind::CkptWrite, 7);
        let s = gen.next_session();
        let base = s.region_base();
        let p = program(s);
        assert_eq!(p.len(), 34);
        assert_eq!(p[0], Step::Open);
        assert_eq!(p[33], Step::Close);
        for (i, step) in p[1..33].iter().enumerate() {
            assert_eq!(
                *step,
                Step::Write {
                    offset: base + 2 * i as u64,
                    len: 2
                }
            );
        }
    }

    #[test]
    fn every_sixteenth_checkpoint_session_syncs_before_closing() {
        let mut gen = Sessions::new(SvcKind::CkptWrite, 7);
        for _ in 0..48 {
            let s = gen.next_session();
            let (id, len) = (s.id, s.len());
            let p = program(s);
            assert_eq!(p.len() as u64, len);
            let syncs = p.iter().filter(|s| **s == Step::Sync).count();
            assert_eq!(syncs, (id % 16 == 0) as usize);
            if syncs == 1 {
                assert_eq!(p[p.len() - 2], Step::Sync);
            }
        }
    }

    #[test]
    fn restart_sessions_stay_inside_the_populated_file() {
        let mut gen = Sessions::new(SvcKind::RestartMixed, 3);
        let (mut reads, mut writes) = (0, 0);
        for _ in 0..200 {
            for step in program(gen.next_session()) {
                match step {
                    Step::Read { offset, len } => {
                        reads += 1;
                        assert!(offset + len <= RESTART_FILE_BLOCKS);
                    }
                    Step::Write { offset, len } => {
                        writes += 1;
                        assert!(offset + len <= RESTART_FILE_BLOCKS);
                    }
                    Step::Sync => panic!("restart sessions do not sync"),
                    Step::Open | Step::Close => {}
                }
            }
        }
        let share = reads as f64 / (reads + writes) as f64;
        assert!((0.65..0.75).contains(&share), "read share {share}");
    }

    #[test]
    fn the_same_seed_gives_the_same_sessions_and_another_seed_does_not() {
        let run = |seed| {
            let mut gen = Sessions::new(SvcKind::RestartMixed, seed);
            (0..20)
                .map(|_| {
                    let s = gen.next_session();
                    (s.file, program(s))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
