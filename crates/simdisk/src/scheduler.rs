//! Request merging and dispatch ordering.
//!
//! Models the behaviour the paper leans on in §V-C.1: "the scheduler
//! underlying file systems can not merge the fragmentary requests on disk".
//! Contiguously-placed data produces adjacent requests which coalesce into a
//! handful of large transfers; fragmented placement produces requests the
//! elevator cannot merge, each paying positioning cost.

use crate::request::BlockRequest;

/// Tuning knobs for the scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Whether adjacent requests are coalesced (Linux elevators do this;
    /// disabling it isolates the merging effect in ablation benches).
    pub merge: bool,
    /// Largest merged request, in blocks (Linux `max_sectors_kb` analogue).
    pub max_merged_blocks: u64,
    /// Software/RPC overhead charged per *submitted* request, in ns.
    /// Models the per-request client-RPC + server-queue cost a parallel
    /// file system pays before a request ever reaches the elevator — the
    /// reason collective I/O's few 40 MB requests beat thousands of small
    /// ones even when the elevator would merge them (§V-C.2).
    pub per_request_ns: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            merge: true,
            // 1024 blocks * 4 KiB = 4 MiB max request, a common upper bound.
            max_merged_blocks: 1024,
            per_request_ns: 0,
        }
    }
}

/// A batch scheduler: collects the requests of one submission window (a
/// "queue plug"), sorts and merges them, and yields dispatch order.
#[derive(Debug, Clone, Default)]
pub struct IoScheduler {
    pub config: SchedulerConfig,
}

impl IoScheduler {
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// Order and merge one batch of requests, returning the dispatch list.
    ///
    /// The batch is served in one ascending elevator sweep starting from
    /// `head` and wrapping to the lowest outstanding request (C-LOOK);
    /// merging then coalesces adjacent same-direction requests up to the
    /// size cap.
    pub fn schedule(&self, head: u64, mut batch: Vec<BlockRequest>) -> Vec<BlockRequest> {
        batch.sort_by_key(|r| (r.start < head, r.start));
        if self.config.merge {
            let max = self.config.max_merged_blocks;
            // `dedup_by` hands over (next, last kept): fold `next` into
            // `last` in place and drop it when the two coalesce.
            batch.dedup_by(|next, last| {
                last.can_merge(next) && last.len + next.len <= max && {
                    last.merge(next);
                    true
                }
            });
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoOp;

    fn sched() -> IoScheduler {
        IoScheduler::new(SchedulerConfig::default())
    }

    #[test]
    fn merges_contiguous_run_submitted_out_of_order() {
        let batch = vec![
            BlockRequest::write(14, 2),
            BlockRequest::write(10, 4),
            BlockRequest::write(16, 4),
        ];
        let out = sched().schedule(0, batch);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start, 10);
        assert_eq!(out[0].len, 10);
        assert_eq!(out[0].merged, 3);
    }

    #[test]
    fn does_not_merge_across_gaps() {
        let batch = vec![BlockRequest::write(10, 2), BlockRequest::write(100, 2)];
        let out = sched().schedule(0, batch);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn does_not_merge_reads_with_writes() {
        let batch = vec![BlockRequest::write(10, 2), BlockRequest::read(12, 2)];
        let out = sched().schedule(0, batch);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].op, IoOp::Write);
    }

    #[test]
    fn respects_max_merged_size() {
        let cfg = SchedulerConfig {
            max_merged_blocks: 4,
            ..SchedulerConfig::default()
        };
        let s = IoScheduler::new(cfg);
        let batch = vec![
            BlockRequest::read(0, 3),
            BlockRequest::read(3, 3),
            BlockRequest::read(6, 3),
        ];
        let out = s.schedule(0, batch);
        // 3+3 exceeds 4, so nothing merges.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn clook_sweeps_up_from_head_then_wraps() {
        let batch = vec![
            BlockRequest::read(5, 1),
            BlockRequest::read(50, 1),
            BlockRequest::read(20, 1),
        ];
        let out = sched().schedule(10, batch);
        let starts: Vec<u64> = out.iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![20, 50, 5]);
    }

    #[test]
    fn merging_disabled_preserves_requests() {
        let cfg = SchedulerConfig {
            merge: false,
            ..SchedulerConfig::default()
        };
        let s = IoScheduler::new(cfg);
        let batch = vec![BlockRequest::read(0, 2), BlockRequest::read(2, 2)];
        assert_eq!(s.schedule(0, batch).len(), 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(sched().schedule(0, vec![]).is_empty());
    }
}
