//! Linux-style ramping readahead.
//!
//! §V-D.1 of the paper observes that with embedded directories "the size of
//! the prefetching window is gradually enlarged when it correctly predicts
//! the blocks to be used", which merges individual readdir-stat operations
//! into a few large reads. This module reproduces that ramp: the window
//! doubles on every sequentially-detected read and collapses to the initial
//! size whenever the pattern breaks.

use crate::BlockNo;

/// State of the per-disk readahead heuristic.
#[derive(Debug, Clone)]
pub struct Readahead {
    /// Initial (and post-reset) window, in blocks.
    pub initial_blocks: u64,
    /// Ramp ceiling, in blocks.
    pub max_blocks: u64,
    window: u64,
    /// Block just past the last sequential read, if any.
    next_expected: Option<BlockNo>,
}

impl Default for Readahead {
    fn default() -> Self {
        // Linux defaults: 16 KiB initial, 128 KiB max (4 KiB blocks);
        // generous maximum mirrors modern tunings and the paper's ext3 MDS.
        Self::new(4, 64)
    }
}

impl Readahead {
    pub fn new(initial_blocks: u64, max_blocks: u64) -> Self {
        assert!(initial_blocks > 0 && max_blocks >= initial_blocks);
        Self {
            initial_blocks,
            max_blocks,
            window: initial_blocks,
            next_expected: None,
        }
    }

    /// Record a read at `start..start+len` and return how many blocks of
    /// readahead to pull in beyond the request (0 when the access pattern is
    /// not sequential).
    pub fn on_read(&mut self, start: BlockNo, len: u64) -> u64 {
        let sequential = self.next_expected == Some(start);
        self.next_expected = Some(start + len);
        if sequential {
            self.window = (self.window * 2).min(self.max_blocks);
            self.window
        } else {
            self.window = self.initial_blocks;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_gets_no_readahead() {
        let mut ra = Readahead::new(4, 64);
        assert_eq!(ra.on_read(100, 2), 0);
    }

    #[test]
    fn sequential_reads_ramp_window() {
        let mut ra = Readahead::new(4, 64);
        ra.on_read(0, 2);
        assert_eq!(ra.on_read(2, 2), 8);
        assert_eq!(ra.on_read(4, 2), 16);
        assert_eq!(ra.on_read(6, 2), 32);
        assert_eq!(ra.on_read(8, 2), 64);
        // Ceiling.
        assert_eq!(ra.on_read(10, 2), 64);
    }

    #[test]
    fn random_read_resets_ramp() {
        let mut ra = Readahead::new(4, 64);
        ra.on_read(0, 2);
        ra.on_read(2, 2);
        assert_eq!(ra.on_read(1000, 2), 0);
        // Ramp restarts from the initial size.
        assert_eq!(ra.on_read(1002, 2), 8);
    }
}
