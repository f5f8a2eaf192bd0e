//! The simulated disk: head, clock, cache, readahead, statistics.

use crate::cache::BlockCache;
use crate::events::{DiskEvent, EventRecorder};
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, FaultStats, IoFault};
use crate::geometry::DiskGeometry;
use crate::readahead::Readahead;
use crate::request::{BlockRequest, IoOp};
use crate::scheduler::{IoScheduler, SchedulerConfig};
use crate::stats::DiskStats;
use crate::{BlockNo, Nanos};
use mif_rng::IdMap;
use std::collections::BTreeSet;

/// Readahead contexts a disk keeps: the most recently used this many. Every
/// service session reads under contexts of its own, so an unbounded map
/// gains entries for as long as the disk lives; a context idle while this
/// many others were used starts its ramp afresh.
const RA_CONTEXTS: usize = 4096;

/// One simulated mechanical disk.
///
/// Requests are submitted in *batches*: a batch models the requests that a
/// burst of concurrent activity places in the device queue close together in
/// time (one "queue plug"). The scheduler merges and orders the batch, then
/// each dispatched command is charged positioning + transfer time against
/// the disk clock.
///
/// Readahead state is tracked per *context* — the analogue of the kernel's
/// per-`struct file` readahead — so interleaved sequential streams (e.g.
/// ten clients each scanning their own directory) each keep their own ramp.
/// [`Disk::submit_batch`] uses context 0; callers with multiple concurrent
/// sequential streams should use [`Disk::submit_batch_ctx`].
#[derive(Debug)]
pub struct Disk {
    pub geometry: DiskGeometry,
    scheduler: IoScheduler,
    cache: BlockCache,
    /// Context -> its readahead state and the tick of its last use.
    ra_contexts: IdMap<u64, (Readahead, u64)>,
    ra_tick: u64,
    head: BlockNo,
    clock: Nanos,
    stats: DiskStats,
    recorder: EventRecorder,
    faults: Option<FaultInjector>,
    /// Whole-device death ([`Disk::fail`]): every request errors until the
    /// drive is swapped ([`Disk::replace`]). Orthogonal to the injector's
    /// power state — power can be restored, a dead drive cannot.
    failed: bool,
    /// Latent sector errors: blocks whose media content is damaged
    /// (bit rot, misdirected writes). Invisible to ordinary reads — the
    /// damage only surfaces when something *verifies* the content
    /// ([`Disk::scrub_range`]). A write over a damaged block lays down
    /// fresh content and heals it.
    damaged: BTreeSet<BlockNo>,
}

impl Disk {
    pub fn new(geometry: DiskGeometry) -> Self {
        Self::with_config(geometry, SchedulerConfig::default(), 16 * 1024)
    }

    /// Full-control constructor: scheduler config and cache capacity (in
    /// blocks; 0 disables caching and readahead hits).
    pub fn with_config(
        geometry: DiskGeometry,
        sched: SchedulerConfig,
        cache_blocks: usize,
    ) -> Self {
        Self {
            geometry,
            scheduler: IoScheduler::new(sched),
            cache: BlockCache::new(cache_blocks),
            ra_contexts: IdMap::default(),
            ra_tick: 0,
            head: 0,
            clock: 0,
            stats: DiskStats::default(),
            recorder: EventRecorder::new(0),
            faults: None,
            failed: false,
            damaged: BTreeSet::new(),
        }
    }

    /// Kill the device: a whole-disk failure (head crash, dropped drive).
    /// From now on every submission fails with [`IoFault::DiskFailed`];
    /// [`Disk::power_restore`] does *not* revive it — only [`Disk::replace`]
    /// does, and the replacement's media is empty.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Is the device dead from [`Disk::fail`]?
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Swap in a fresh drive for a failed one. The replacement spins up
    /// with empty platters: caches, readahead state and head position are
    /// reset, and whatever the old drive held is gone — the array must
    /// rebuild it from redundancy. Clock and cumulative statistics belong
    /// to the *slot* and carry over.
    pub fn replace(&mut self) {
        self.failed = false;
        self.head = 0;
        self.damaged.clear(); // fresh platters carry no latent errors
        self.drop_caches();
    }

    /// Damage one block's media content (latent sector error / silent
    /// corruption injection). Ordinary reads still "succeed" — the rot is
    /// only observable through [`Disk::scrub_range`] — and any write
    /// covering the block heals it.
    pub fn corrupt_block(&mut self, block: BlockNo) {
        self.damaged.insert(block);
    }

    /// Every currently-damaged block, ascending.
    pub fn damaged_blocks(&self) -> Vec<BlockNo> {
        self.damaged.iter().copied().collect()
    }

    /// The damaged blocks inside `[start, start + len)`, without charging
    /// any IO (bookkeeping queries; the scrubber uses
    /// [`Disk::scrub_range`], which pays for the verify read).
    pub fn damaged_in(&self, start: BlockNo, len: u64) -> Vec<BlockNo> {
        self.damaged.range(start..start + len).copied().collect()
    }

    /// Verify the media content of `[start, start + len)`: one sequential
    /// checksum-verify read straight off the platter (deliberately
    /// uncached — a scrub that "verified" the page cache would prove
    /// nothing), charged against the disk clock. Returns the damaged
    /// blocks found in the range. Errors with [`IoFault::DiskFailed`] on
    /// a dead device.
    pub fn scrub_range(&mut self, start: BlockNo, len: u64) -> Result<Vec<BlockNo>, IoFault> {
        if self.failed {
            return Err(IoFault::DiskFailed);
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let t =
            self.geometry.position_ns(self.head, start) + self.geometry.transfer_ns_at(start, len);
        self.head = start + len;
        self.clock += t;
        self.stats.busy_ns += t;
        self.stats.submitted += 1;
        self.stats.dispatched += 1;
        self.stats.bytes_read += len * self.geometry.block_size;
        Ok(self.damaged.range(start..start + len).copied().collect())
    }

    /// Install a seeded fault-injection plan. Faults only surface through
    /// the `try_submit*` entry points; the infallible wrappers panic if a
    /// fault fires, so callers that installed faults must use `try_*`.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Remove the fault injector (subsequent IO is fault-free).
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Counters for the faults injected so far (`None` when no plan is
    /// installed).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Is the disk dead from an injected power cut?
    pub fn powered_off(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.powered_off())
    }

    /// Power the disk back on after an injected power cut. The volatile
    /// cache and readahead state are gone, as on a real restart.
    pub fn power_restore(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.power_restore();
        }
        self.drop_caches();
    }

    /// Enable command recording (blktrace analogue) with a bounded ring.
    pub fn enable_recording(&mut self, capacity: usize) {
        self.recorder = EventRecorder::new(capacity);
    }

    /// The event recorder (read access for visualization/diagnostics).
    pub fn recorder(&self) -> &EventRecorder {
        &self.recorder
    }

    /// Submit one batch of requests; returns the simulated time the batch
    /// took to service (the disk clock advances by the same amount).
    /// Readahead context 0 is used.
    pub fn submit_batch(&mut self, batch: Vec<BlockRequest>) -> Nanos {
        Self::expect_no_fault(self.try_submit_batch(batch))
    }

    /// Submit one batch under an explicit readahead context (one context
    /// per open file / sequential stream).
    pub fn submit_batch_ctx(&mut self, ctx: u64, batch: Vec<BlockRequest>) -> Nanos {
        Self::expect_no_fault(self.try_submit_batch_ctx(ctx, batch))
    }

    /// Submit one batch with readahead disabled — models block-at-a-time
    /// buffer-cache metadata reads (ext3 dirent and inode-table blocks get
    /// no prefetch; this is precisely the behaviour the paper's embedded
    /// directory escapes by reading directory content as one stream).
    pub fn submit_batch_raw(&mut self, batch: Vec<BlockRequest>) -> Nanos {
        Self::expect_no_fault(self.try_submit_batch_raw(batch))
    }

    /// Fallible variant of [`Disk::submit_batch`]: on an injected fault,
    /// requests *before* the faulted one have been serviced (and persist),
    /// the faulted request is dropped — or truncated, for a torn write —
    /// and the rest of the batch is lost. The disk clock still advances by
    /// whatever was serviced.
    pub fn try_submit_batch(&mut self, batch: Vec<BlockRequest>) -> Result<Nanos, IoFault> {
        self.try_submit_batch_inner(Some(0), batch)
    }

    /// Fallible variant of [`Disk::submit_batch_ctx`].
    pub fn try_submit_batch_ctx(
        &mut self,
        ctx: u64,
        batch: Vec<BlockRequest>,
    ) -> Result<Nanos, IoFault> {
        self.try_submit_batch_inner(Some(ctx), batch)
    }

    /// Fallible variant of [`Disk::submit_batch_raw`].
    pub fn try_submit_batch_raw(&mut self, batch: Vec<BlockRequest>) -> Result<Nanos, IoFault> {
        self.try_submit_batch_inner(None, batch)
    }

    fn expect_no_fault(r: Result<Nanos, IoFault>) -> Nanos {
        r.unwrap_or_else(|f| panic!("unhandled disk fault on infallible submit path: {f}"))
    }

    /// Screen the batch through the fault injector (if any), service the
    /// surviving prefix, then report the first fault.
    fn try_submit_batch_inner(
        &mut self,
        ctx: Option<u64>,
        batch: Vec<BlockRequest>,
    ) -> Result<Nanos, IoFault> {
        if self.failed {
            return Err(IoFault::DiskFailed);
        }
        let Some(mut inj) = self.faults.take() else {
            return Ok(self.submit_batch_inner(ctx, batch));
        };
        let mut survivors = Vec::with_capacity(batch.len());
        let mut spike_ns: Nanos = 0;
        let mut fault = None;
        for req in batch {
            match inj.decide(&req) {
                FaultDecision::Allow => survivors.push(req),
                FaultDecision::Delay(ns) => {
                    spike_ns += ns;
                    survivors.push(req);
                }
                FaultDecision::Fail(f) => {
                    fault = Some(f);
                    break;
                }
                FaultDecision::Tear { persisted } => {
                    fault = Some(IoFault::TornWrite {
                        start: req.start,
                        persisted,
                        requested: req.len,
                    });
                    if persisted > 0 {
                        let mut head = req;
                        head.len = persisted;
                        survivors.push(head);
                    }
                    break;
                }
            }
        }
        self.faults = Some(inj);
        let mut elapsed = self.submit_batch_inner(ctx, survivors);
        elapsed += spike_ns;
        self.clock += spike_ns;
        self.stats.busy_ns += spike_ns;
        match fault {
            Some(f) => Err(f),
            None => Ok(elapsed),
        }
    }

    fn submit_batch_inner(&mut self, ctx: Option<u64>, mut batch: Vec<BlockRequest>) -> Nanos {
        self.stats.submitted += batch.len() as u64;
        // Per-request software/RPC overhead is paid before merging.
        let overhead = batch.len() as Nanos * self.scheduler.config.per_request_ns;

        // Cache hits never reach the scheduler, but a sequential stream's
        // readahead pipeline keeps running: the ramp advances and the next
        // window is prefetched (async readahead) so streaming reads stay
        // ahead of the consumer.
        let mut prefetch_ns: Nanos = 0;
        batch.retain(|req| {
            if req.op != IoOp::Read || !self.cache.contains_range(req.start, req.len) {
                return true;
            }
            self.stats.cache_hits += 1;
            if let Some(c) = req.ra.or(ctx) {
                let extra = self.readahead(c).on_read(req.start, req.len);
                let extra = extra.min(self.geometry.blocks.saturating_sub(req.end()));
                // Async-readahead marker: top the pipeline up only when
                // the cached runway ahead drops below half a window, and
                // read just the missing tail.
                let runway = self.cache.cached_run_len(req.end(), extra);
                if extra > 0 && runway < extra / 2 {
                    let from = req.end() + runway;
                    let fetch = extra - runway;
                    prefetch_ns += self.geometry.position_ns(self.head, from)
                        + self.geometry.transfer_ns_at(from, fetch);
                    self.cache.insert_range(from, fetch);
                    self.stats.bytes_read += fetch * self.geometry.block_size;
                    self.stats.dispatched += 1;
                    self.head = from + fetch;
                }
            }
            false
        });

        let dispatch = self.scheduler.schedule(self.head, batch);
        let mut elapsed: Nanos = overhead + prefetch_ns;
        for req in dispatch {
            let at_ns = self.clock + elapsed;
            let t = self.service(ctx, req);
            if self.recorder.enabled() {
                self.recorder.record(DiskEvent {
                    at_ns,
                    op: req.op,
                    start: req.start,
                    len: req.len,
                    service_ns: t,
                });
            }
            elapsed += t;
        }
        self.clock += elapsed;
        self.stats.busy_ns += elapsed;
        elapsed
    }

    /// Convenience: submit a single request (readahead context 0).
    pub fn submit(&mut self, req: BlockRequest) -> Nanos {
        self.submit_batch(vec![req])
    }

    /// Convenience: submit a single request under a readahead context.
    pub fn submit_ctx(&mut self, ctx: u64, req: BlockRequest) -> Nanos {
        self.submit_batch_ctx(ctx, vec![req])
    }

    /// Fallible variant of [`Disk::submit`].
    pub fn try_submit(&mut self, req: BlockRequest) -> Result<Nanos, IoFault> {
        self.try_submit_batch(vec![req])
    }

    fn service(&mut self, ctx: Option<u64>, req: BlockRequest) -> Nanos {
        self.stats.dispatched += 1;
        let position = self.geometry.position_ns(self.head, req.start);
        if position > 0 {
            self.stats.seeks += 1;
            self.stats.seek_distance_cyl += self
                .geometry
                .cylinder_of(self.head)
                .abs_diff(self.geometry.cylinder_of(req.start));
        }

        let mut transfer_blocks = req.len;
        match req.op {
            IoOp::Read => {
                // Ramping readahead: overshoot sequential reads and cache
                // the extra blocks so the next sequential read hits memory.
                // A per-request context (the request's open file) overrides
                // the batch-level context.
                let extra = match req.ra.or(ctx) {
                    Some(ctx) => self.readahead(ctx).on_read(req.start, req.len),
                    None => 0,
                };
                let extra = extra.min(self.geometry.blocks.saturating_sub(req.end()));
                transfer_blocks += extra;
                self.cache.insert_range(req.start, req.len + extra);
                self.stats.bytes_read += transfer_blocks * self.geometry.block_size;
            }
            IoOp::Write => {
                self.cache.insert_range(req.start, req.len);
                self.stats.bytes_written += transfer_blocks * self.geometry.block_size;
                // Fresh content over a latent sector error heals it.
                if !self.damaged.is_empty() {
                    let healed: Vec<BlockNo> = self
                        .damaged
                        .range(req.start..req.start + req.len)
                        .copied()
                        .collect();
                    for b in healed {
                        self.damaged.remove(&b);
                    }
                }
            }
        }

        self.head = req.start + transfer_blocks;
        position + self.geometry.transfer_ns_at(req.start, transfer_blocks)
    }

    /// Context `ctx`'s readahead state, stamped as just used. Once the map
    /// holds twice [`RA_CONTEXTS`], only the `RA_CONTEXTS` most recently
    /// used stay: amortised O(1) per use, and blind to the map's order.
    fn readahead(&mut self, ctx: u64) -> &mut Readahead {
        if self.ra_contexts.len() >= 2 * RA_CONTEXTS {
            let mut ticks: Vec<u64> = self.ra_contexts.values().map(|&(_, t)| t).collect();
            let cut = ticks.len() - RA_CONTEXTS;
            let (_, &mut oldest_kept, _) = ticks.select_nth_unstable(cut);
            self.ra_contexts.retain(|_, &mut (_, t)| t >= oldest_kept);
        }
        self.ra_tick += 1;
        let (ra, tick) = self.ra_contexts.entry(ctx).or_default();
        *tick = self.ra_tick;
        ra
    }

    /// Current disk clock (total busy time so far), in ns.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Current head position (block).
    pub fn head(&self) -> BlockNo {
        self.head
    }

    /// Drop all cached blocks (e.g. to simulate a cold start / remount).
    pub fn drop_caches(&mut self) {
        self.cache.clear();
        self.ra_contexts.clear();
    }

    /// Invalidate cached copies of a freed range.
    pub fn invalidate(&mut self, start: BlockNo, len: u64) {
        self.cache.invalidate_range(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskGeometry::default())
    }

    #[test]
    fn sequential_writes_merge_into_one_dispatch() {
        let mut d = disk();
        let reqs: Vec<_> = (0..8).map(|i| BlockRequest::write(i * 4, 4)).collect();
        d.submit_batch(reqs);
        assert_eq!(d.stats().dispatched, 1);
        assert_eq!(d.stats().submitted, 8);
    }

    #[test]
    fn scattered_writes_each_pay_positioning() {
        let mut d = disk();
        let near: Vec<_> = (0..8).map(|i| BlockRequest::write(i * 4, 4)).collect();
        let t_seq = d.submit_batch(near);

        let mut d2 = disk();
        let stride = d2.geometry.blocks_per_cylinder() * 100;
        let far: Vec<_> = (0..8)
            .map(|i| BlockRequest::write((i + 1) * stride, 4))
            .collect();
        let t_rand = d2.submit_batch(far);

        assert!(
            t_rand > t_seq * 10,
            "fragmented batch must be much slower: seq={t_seq} rand={t_rand}"
        );
        assert_eq!(d2.stats().seeks, 8);
    }

    #[test]
    fn cached_read_is_free() {
        let mut d = disk();
        d.submit(BlockRequest::read(100, 4));
        let before = d.clock();
        d.submit(BlockRequest::read(100, 4));
        assert_eq!(d.clock(), before);
        assert_eq!(d.stats().cache_hits, 1);
    }

    #[test]
    fn readahead_makes_followup_sequential_read_free() {
        let mut d = disk();
        d.submit(BlockRequest::read(0, 4));
        d.submit(BlockRequest::read(4, 4)); // sequential: ramps & overshoots
        let hits = d.stats().cache_hits;
        d.submit(BlockRequest::read(8, 4)); // inside the readahead window
        assert_eq!(d.stats().cache_hits, hits + 1);
    }

    #[test]
    fn drop_caches_forces_media_access() {
        let mut d = disk();
        d.submit(BlockRequest::read(100, 4));
        d.drop_caches();
        let before = d.clock();
        d.submit(BlockRequest::read(100, 4));
        assert!(d.clock() > before);
    }

    #[test]
    fn write_then_read_hits_cache() {
        let mut d = disk();
        d.submit(BlockRequest::write(50, 4));
        let before = d.clock();
        d.submit(BlockRequest::read(50, 4));
        assert_eq!(d.clock(), before);
    }

    #[test]
    fn invalidate_evicts_written_blocks() {
        let mut d = disk();
        d.submit(BlockRequest::write(50, 4));
        d.invalidate(50, 4);
        let before = d.clock();
        d.submit(BlockRequest::read(50, 4));
        assert!(d.clock() > before);
    }

    #[test]
    fn sequential_append_stream_runs_at_media_rate() {
        let mut d = disk();
        // Reposition once, then stream.
        let total_blocks = 25_600; // 100 MiB
        let mut t = 0;
        let mut pos = 1_000_000;
        for _ in 0..100 {
            t += d.submit(BlockRequest::write(pos, total_blocks / 100));
            pos += total_blocks / 100;
        }
        let bytes = total_blocks * d.geometry.block_size;
        let mibs = crate::mib_per_sec(bytes, t);
        assert!(
            (150.0..=175.0).contains(&mibs),
            "sequential stream should run near 170 MB/s, got {mibs:.1}"
        );
    }

    #[test]
    fn readahead_contexts_are_independent() {
        // Two interleaved sequential streams: with per-context readahead
        // both ramp; the interleave does not reset them.
        let mut d = disk();
        let far = 1_000_000;
        d.submit_ctx(1, BlockRequest::read(0, 4));
        d.submit_ctx(2, BlockRequest::read(far, 4));
        d.submit_ctx(1, BlockRequest::read(4, 4)); // seq in ctx 1: ramps
        d.submit_ctx(2, BlockRequest::read(far + 4, 4)); // seq in ctx 2
        let hits = d.stats().cache_hits;
        d.submit_ctx(1, BlockRequest::read(8, 4)); // inside ctx 1 RA window
        d.submit_ctx(2, BlockRequest::read(far + 8, 4));
        assert_eq!(
            d.stats().cache_hits,
            hits + 2,
            "both streams should hit readahead"
        );
    }

    #[test]
    fn single_context_interleave_resets_ramp() {
        // Same pattern through one context: the ramp resets each switch.
        let mut d = disk();
        let far = 1_000_000;
        d.submit(BlockRequest::read(0, 4));
        d.submit(BlockRequest::read(far, 4));
        d.submit(BlockRequest::read(4, 4));
        let before = d.clock();
        d.submit(BlockRequest::read(far + 4, 4)); // miss: no RA was issued
        assert!(d.clock() > before);
    }

    #[test]
    fn readahead_contexts_are_bounded_and_recent_ones_keep_their_ramp() {
        let mut d = disk();
        // Two streams ramp; only the first keeps reading.
        for ctx in [1, 2] {
            d.submit_ctx(ctx, BlockRequest::read(ctx * 1_000, 4));
            d.submit_ctx(ctx, BlockRequest::read(ctx * 1_000 + 4, 4));
        }
        let (mut next, mut fresh) = (1_008, 10);
        for _ in 0..4 {
            for _ in 1..RA_CONTEXTS {
                d.submit_ctx(fresh, BlockRequest::read(fresh * 64, 1));
                fresh += 1;
                assert!(d.ra_contexts.len() <= 2 * RA_CONTEXTS);
            }
            // Used within the last 4 096 contexts: still sequential, so
            // the window keeps growing.
            assert!(d.readahead(1).on_read(next, 4) > 0);
            next += 4;
        }
        assert!(fresh - 10 >= 3 * RA_CONTEXTS as u64);
        assert!(
            !d.ra_contexts.contains_key(&2),
            "the idle stream was dropped"
        );
    }

    #[test]
    fn failed_disk_rejects_all_io_until_replaced() {
        let mut d = disk();
        d.submit(BlockRequest::write(0, 8));
        d.fail();
        assert!(d.failed());
        assert_eq!(
            d.try_submit(BlockRequest::read(0, 4)),
            Err(IoFault::DiskFailed)
        );
        assert_eq!(
            d.try_submit(BlockRequest::write(64, 4)),
            Err(IoFault::DiskFailed)
        );
        // Power restore does not revive a dead drive.
        d.power_restore();
        assert!(d.failed());
        assert_eq!(
            d.try_submit(BlockRequest::read(0, 4)),
            Err(IoFault::DiskFailed)
        );
        // A replacement drive services IO again, with cold caches.
        d.replace();
        assert!(!d.failed());
        let before = d.clock();
        d.submit(BlockRequest::read(0, 4));
        assert!(d.clock() > before, "replacement platters hold nothing");
    }

    #[test]
    fn latent_damage_is_invisible_until_scrubbed_and_heals_on_write() {
        let mut d = disk();
        d.submit(BlockRequest::write(100, 16));
        d.corrupt_block(104);
        d.corrupt_block(110);
        // Ordinary reads do not notice (latent == silent).
        assert!(d.try_submit(BlockRequest::read(100, 16)).is_ok());
        // A scrub read finds exactly the damaged blocks, and costs time.
        let before = d.clock();
        assert_eq!(d.scrub_range(100, 16).unwrap(), vec![104, 110]);
        assert!(d.clock() > before, "verify read is charged");
        assert_eq!(d.damaged_in(100, 16), vec![104, 110]);
        // A rewrite over one of them heals it.
        d.submit(BlockRequest::write(104, 1));
        assert_eq!(d.scrub_range(100, 16).unwrap(), vec![110]);
        assert_eq!(d.damaged_blocks(), vec![110]);
    }

    #[test]
    fn scrub_errors_on_a_dead_disk_and_replacement_media_is_clean() {
        let mut d = disk();
        d.corrupt_block(7);
        d.fail();
        assert_eq!(d.scrub_range(0, 64), Err(IoFault::DiskFailed));
        d.replace();
        assert_eq!(d.scrub_range(0, 64).unwrap(), vec![]);
        assert!(d.damaged_blocks().is_empty());
    }

    #[test]
    fn readahead_never_runs_past_end_of_disk() {
        let mut d = Disk::new(DiskGeometry::with_blocks(100));
        d.submit(BlockRequest::read(90, 4));
        d.submit(BlockRequest::read(94, 4)); // readahead clamped at block 100
        assert!(d.stats().bytes_read <= 100 * d.geometry.block_size);
    }
}
