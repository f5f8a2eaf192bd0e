//! The heat classifier: a sticky per-file hot/warm/cold belief.
//!
//! The classifier consumes the front-end's lock-free access recorder (one
//! `(file, reads, writes)` delta per tick) and maintains, per file, an
//! exponentially-weighted access-rate estimate — a belief about how
//! likely the next tick is to touch the file. Classification is a
//! two-threshold Markov estimator with **hysteresis** (the rate needed to
//! *enter* Hot is higher than the rate needed to *stay* Hot, and likewise
//! at the cold end) plus **inertia** (a state switches only after
//! `INERTIA` consecutive ticks of evidence pointing at the same other
//! state). Under a zipf workload the popular files' instantaneous rates
//! swing wildly between ticks; either mechanism alone still flaps on the
//! band edges, the two together keep the popular head pinned Hot and the
//! tail pinned Cold.
//!
//! Everything is integer arithmetic and deterministic: the same delta
//! sequence produces the same classifications every run.

use std::collections::BTreeMap;

/// Fixed-point scale of the rate estimate: an EWMA value of
/// `r * RATE_SCALE` means a steady `r` accesses per tick.
pub const RATE_SCALE: u64 = 16;

/// One file's temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Heat {
    /// Sustained traffic: worth replicating (and defragmenting first).
    Hot,
    /// Default for new or moderately-used files: left alone.
    Warm,
    /// Sustained silence: worth packing into erasure-coded groups.
    Cold,
}

// Thresholds, in EWMA units (see `RATE_SCALE`), and stickiness.

/// EWMA at or above which a non-hot file's evidence points Hot
/// (8 accesses/tick).
const HOT_ENTER: u64 = 8 * RATE_SCALE;
/// EWMA below which a Hot file's evidence points away from Hot
/// (2 accesses/tick — the hysteresis band).
const HOT_EXIT: u64 = 2 * RATE_SCALE;
/// EWMA at or below which a non-cold file's evidence points Cold
/// (1/4 access/tick).
const COLD_ENTER: u64 = RATE_SCALE / 4;
/// EWMA above which a Cold file's evidence points away from Cold
/// (1 access/tick).
const COLD_EXIT: u64 = RATE_SCALE;
/// Consecutive ticks the evidence must point at the same different state
/// before the classification moves.
const INERTIA: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct FileHeat {
    /// EWMA of accesses/tick, scaled by [`RATE_SCALE`].
    ewma: u64,
    state: Heat,
    /// The state the recent evidence points at, and for how many
    /// consecutive ticks it has pointed there.
    pending: Heat,
    streak: u32,
}

/// The classifier: per-file state keyed by raw file id.
#[derive(Debug, Clone, Default)]
pub struct HeatClassifier {
    files: BTreeMap<u64, FileHeat>,
    ticks: u64,
}

impl HeatClassifier {
    /// One tick: fold the access deltas in, decay every known file's
    /// estimate (touched or not), and advance the sticky classifications.
    /// Files never seen before enter as Warm.
    pub fn observe(&mut self, deltas: &[(u64, u64, u64)]) {
        self.ticks += 1;
        for &(file, ..) in deltas {
            self.files.entry(file).or_insert(FileHeat {
                ewma: 0,
                state: Heat::Warm,
                pending: Heat::Warm,
                streak: 0,
            });
        }
        for (&file, h) in self.files.iter_mut() {
            let accesses: u64 = deltas
                .iter()
                .filter(|&&(f, ..)| f == file)
                .map(|&(_, r, w)| r + w)
                .sum();
            // One-pole filter, α = 1/4: ewma ← 3/4·ewma + 1/4·rate.
            // A steady rate r converges to r·RATE_SCALE; an untouched
            // file decays geometrically toward zero.
            h.ewma = (3 * h.ewma + accesses * RATE_SCALE) / 4;
            let target = match h.state {
                Heat::Hot => {
                    if h.ewma >= HOT_EXIT {
                        Heat::Hot
                    } else if h.ewma <= COLD_ENTER {
                        Heat::Cold
                    } else {
                        Heat::Warm
                    }
                }
                Heat::Warm => {
                    if h.ewma >= HOT_ENTER {
                        Heat::Hot
                    } else if h.ewma <= COLD_ENTER {
                        Heat::Cold
                    } else {
                        Heat::Warm
                    }
                }
                Heat::Cold => {
                    if h.ewma >= HOT_ENTER {
                        Heat::Hot
                    } else if h.ewma > COLD_EXIT {
                        Heat::Warm
                    } else {
                        Heat::Cold
                    }
                }
            };
            if target == h.state {
                h.pending = h.state;
                h.streak = 0;
            } else if target == h.pending {
                h.streak += 1;
                if h.streak >= INERTIA {
                    h.state = target;
                    h.streak = 0;
                }
            } else {
                h.pending = target;
                h.streak = 1;
            }
        }
    }

    /// Current classification (Warm for files never observed).
    pub fn heat(&self, file: u64) -> Heat {
        self.files.get(&file).map(|h| h.state).unwrap_or(Heat::Warm)
    }

    /// The access-rate estimate, scaled by [`RATE_SCALE`].
    pub fn rate(&self, file: u64) -> u64 {
        self.files.get(&file).map(|h| h.ewma).unwrap_or(0)
    }

    /// Defrag priority weight: hot files first, cold files last.
    pub fn weight(&self, file: u64) -> u64 {
        match self.heat(file) {
            Heat::Hot => 4,
            Heat::Warm => 2,
            Heat::Cold => 1,
        }
    }

    /// Drop a file's state (unlink).
    pub fn forget(&mut self, file: u64) {
        self.files.remove(&file);
    }

    /// Ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier() -> HeatClassifier {
        HeatClassifier::default()
    }

    #[test]
    fn sustained_traffic_promotes_and_silence_demotes() {
        let mut c = classifier();
        for _ in 0..10 {
            c.observe(&[(1, 16, 4)]);
        }
        assert_eq!(c.heat(1), Heat::Hot);
        // Silence: decay walks the estimate down; inertia then Cold.
        for _ in 0..40 {
            c.observe(&[]);
        }
        assert_eq!(c.heat(1), Heat::Cold);
    }

    #[test]
    fn bursty_hot_traffic_does_not_flap() {
        let mut c = classifier();
        for _ in 0..8 {
            c.observe(&[(1, 30, 0)]);
        }
        assert_eq!(c.heat(1), Heat::Hot);
        // Alternating bursts and idle ticks (a zipf head's tick-to-tick
        // variance): the hysteresis band keeps the file Hot throughout.
        for i in 0..50 {
            if i % 2 == 0 {
                c.observe(&[(1, 30, 0)]);
            } else {
                c.observe(&[]);
            }
            assert_eq!(c.heat(1), Heat::Hot, "flapped at tick {i}");
        }
    }

    #[test]
    fn single_burst_on_a_cold_file_is_inertia_filtered() {
        let mut c = classifier();
        for _ in 0..30 {
            c.observe(&[(1, 0, 0)]);
        }
        assert_eq!(c.heat(1), Heat::Cold);
        // One burst: the evidence points Hot for a tick, decay pulls it
        // back under the enter threshold before the streak reaches the
        // inertia bar — the file never turns Hot.
        c.observe(&[(1, 40, 0)]);
        for _ in 0..6 {
            assert_ne!(c.heat(1), Heat::Hot, "one burst must not promote");
            c.observe(&[]);
        }
        // Sustained traffic, by contrast, does promote.
        for _ in 0..10 {
            c.observe(&[(1, 40, 0)]);
        }
        assert_eq!(c.heat(1), Heat::Hot);
    }

    #[test]
    fn unknown_files_are_warm_and_forget_drops_state() {
        let mut c = classifier();
        assert_eq!(c.heat(9), Heat::Warm);
        for _ in 0..10 {
            c.observe(&[(9, 20, 0)]);
        }
        assert_eq!(c.heat(9), Heat::Hot);
        c.forget(9);
        assert_eq!(c.heat(9), Heat::Warm);
    }

    #[test]
    fn weights_order_hot_over_warm_over_cold() {
        let mut c = classifier();
        for _ in 0..12 {
            c.observe(&[(1, 30, 0), (2, 2, 0), (3, 0, 0)]);
        }
        assert_eq!(c.heat(1), Heat::Hot);
        assert_eq!(c.heat(2), Heat::Warm);
        assert_eq!(c.heat(3), Heat::Cold);
        assert!(c.weight(1) > c.weight(2));
        assert!(c.weight(2) > c.weight(3));
    }

    #[test]
    fn classification_is_deterministic() {
        let feed: Vec<Vec<(u64, u64, u64)>> = (0..60)
            .map(|i| {
                vec![
                    (1, (i * 7) % 23, 0),
                    (2, if i % 3 == 0 { 12 } else { 0 }, 1),
                ]
            })
            .collect();
        let run = || {
            let mut c = classifier();
            for d in &feed {
                c.observe(d);
            }
            (c.heat(1), c.heat(2), c.rate(1), c.rate(2))
        };
        assert_eq!(run(), run());
    }
}
