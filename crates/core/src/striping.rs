//! File striping across IO servers.
//!
//! Round-robin striping, the layout used by both Lustre and Redbud: file
//! logical blocks are cut into stripe units distributed cyclically over the
//! OSTs. Each OST sees a dense local block space for the file (stripe k of
//! an OST lands at local offset `k * stripe_blocks`).

/// Striping geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Striping {
    /// Number of IO servers (disks) the file system stripes over.
    pub osts: u32,
    /// Stripe unit in blocks.
    pub stripe_blocks: u64,
}

impl Striping {
    pub fn new(osts: u32, stripe_blocks: u64) -> Self {
        assert!(osts > 0 && stripe_blocks > 0);
        Self {
            osts,
            stripe_blocks,
        }
    }

    /// Map a file logical block to `(ost, ost-local logical block)`.
    /// `shift` rotates the starting OST — parallel file systems start each
    /// file on a different server so concurrent per-process files don't
    /// convoy on one disk.
    pub fn locate(&self, logical: u64, shift: u32) -> (u32, u64) {
        let stripe = logical / self.stripe_blocks;
        let within = logical % self.stripe_blocks;
        let ost = ((stripe + shift as u64) % self.osts as u64) as u32;
        let local_stripe = stripe / self.osts as u64;
        (ost, local_stripe * self.stripe_blocks + within)
    }

    /// Inverse of [`Self::locate`]: map an `(ost, ost-local logical
    /// block)` pair back to the file logical block. The checker uses this
    /// to reconstruct file-global facts (e.g. the written extent of a
    /// file) from the per-OST extent trees alone.
    pub fn global_of(&self, ost: u32, local: u64, shift: u32) -> u64 {
        let local_stripe = local / self.stripe_blocks;
        let within = local % self.stripe_blocks;
        // locate() computed: ost = (stripe + shift) % osts and
        // local_stripe = stripe / osts, so stripe recovers as below.
        let lane =
            (ost as u64 + self.osts as u64 - shift as u64 % self.osts as u64) % self.osts as u64;
        let stripe = local_stripe * self.osts as u64 + lane;
        stripe * self.stripe_blocks + within
    }

    /// Split a logical range `[logical, logical+len)` into per-OST dense
    /// runs: `(ost, local_start, run_len, file_logical_start)`.
    pub fn split(&self, logical: u64, len: u64, shift: u32) -> Vec<(u32, u64, u64, u64)> {
        self.pieces(logical, len, shift).collect()
    }

    /// [`Self::split`] as an iterator: no allocation, and a range inside
    /// one stripe unit costs one [`Self::locate`].
    pub fn pieces(
        self,
        logical: u64,
        len: u64,
        shift: u32,
    ) -> impl Iterator<Item = (u32, u64, u64, u64)> {
        let mut pos = logical;
        let end = logical + len;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let start = pos;
            let (ost, local) = self.locate(start, shift);
            let mut run = 0;
            loop {
                // Run to the end of this stripe unit.
                let unit_end = (pos / self.stripe_blocks + 1) * self.stripe_blocks;
                run += unit_end.min(end) - pos;
                pos = start + run;
                // Go on only while the next unit continues the same
                // OST-local range (single-OST configs).
                if pos >= end || self.locate(pos, shift) != (ost, local + run) {
                    return Some((ost, local, run, start));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_over_osts() {
        let s = Striping::new(4, 16);
        assert_eq!(s.locate(0, 0), (0, 0));
        assert_eq!(s.locate(16, 0), (1, 0));
        assert_eq!(s.locate(32, 0), (2, 0));
        assert_eq!(s.locate(48, 0), (3, 0));
        assert_eq!(s.locate(64, 0), (0, 16));
    }

    #[test]
    fn shift_rotates_starting_ost() {
        let s = Striping::new(4, 16);
        assert_eq!(s.locate(0, 1), (1, 0));
        assert_eq!(s.locate(16, 1), (2, 0));
        assert_eq!(s.locate(48, 1), (0, 0));
        // Local offsets are unaffected by the shift.
        assert_eq!(s.locate(64, 1).1, 16);
    }

    #[test]
    fn within_stripe_offsets_preserved() {
        let s = Striping::new(4, 16);
        assert_eq!(s.locate(17, 0), (1, 1));
        assert_eq!(s.locate(79, 0), (0, 31));
    }

    #[test]
    fn split_respects_stripe_boundaries() {
        let s = Striping::new(2, 4);
        // Blocks 2..10: [2,3]→ost0, [4..8)→ost1, [8,9]→ost0 local 4..6.
        let runs = s.split(2, 8, 0);
        assert_eq!(runs, vec![(0, 2, 2, 2), (1, 0, 4, 4), (0, 4, 2, 8)]);
    }

    #[test]
    fn split_coalesces_on_single_ost() {
        let s = Striping::new(1, 4);
        let runs = s.split(0, 64, 0);
        assert_eq!(runs, vec![(0, 0, 64, 0)]);
    }

    #[test]
    fn split_total_len_is_preserved() {
        let s = Striping::new(5, 16);
        for shift in [0u32, 2, 4] {
            for (logical, len) in [(0u64, 1u64), (7, 100), (1000, 4096), (5, 15)] {
                let total: u64 = s.split(logical, len, shift).iter().map(|r| r.2).sum();
                assert_eq!(total, len);
            }
        }
    }

    #[test]
    fn global_of_inverts_locate() {
        for osts in [1u32, 2, 3, 5] {
            let s = Striping::new(osts, 16);
            for shift in 0..osts + 2 {
                for logical in (0u64..2000).step_by(7) {
                    let (ost, local) = s.locate(logical, shift);
                    assert_eq!(
                        s.global_of(ost, local, shift),
                        logical,
                        "osts {osts} shift {shift} logical {logical}"
                    );
                }
            }
        }
    }

    #[test]
    fn ost_local_space_is_dense() {
        // Sequential stripes on one OST land back-to-back locally.
        let s = Striping::new(4, 16);
        assert_eq!(s.locate(0, 0).1, 0);
        assert_eq!(s.locate(64, 0).1, 16);
        assert_eq!(s.locate(128, 0).1, 32);
    }
}
