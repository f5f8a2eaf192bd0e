//! Layer replay below the engine.
//!
//! The harness cannot see the calls `ConcurrentFs` makes into the
//! allocator, the extent trees, the journal and the disks, so it works
//! them out: a *prepass* runs the engine's data path in its simplest
//! serial form (stripe split, hole detection, on-demand extend, extent
//! insert, write-back queues flushed at the engine's own threshold) and
//! logs the inputs each layer received. Each layer is then timed alone, on
//! a fresh instance, over its log. A layer's time is its self time: these
//! layers call nothing below them that the log does not already separate.

use std::hint::black_box;
use std::time::Instant;

use mif_alloc::{AllocPolicy, FileId, GroupedAllocator, OnDemandPolicy, OnDemandStats, StreamId};
use mif_core::{FileSystem, FsConfig, OpenFile, Striping};
use mif_extent::{Extent, ExtentTree};
use mif_mds::{encode_write_record, GroupCommitWal, WriteCommit};
use mif_simdisk::{BlockRequest, Disk, DiskStats};

use crate::engine::EngOp;
use crate::plan;

#[derive(Debug, Clone, Copy)]
enum AllocCall {
    Create {
        ost: u32,
        file: FileId,
    },
    Extend {
        ost: u32,
        file: FileId,
        stream: StreamId,
        logical: u64,
        len: u64,
    },
    /// The last close of a file: every OST's policy lets its windows go.
    Finalize {
        file: FileId,
    },
}

#[derive(Debug, Clone, Copy)]
enum TreeCall {
    Gaps { tree: u32, logical: u64, len: u64 },
    Insert { tree: u32, extent: Extent },
    Resolve { tree: u32, logical: u64, len: u64 },
}

/// Where the timed part of each log starts; what lies before is set-up
/// (creates, the populate of `svc_restart_mixed`) and is replayed untimed.
#[derive(Debug, Clone, Copy, Default)]
struct TimedFrom {
    alloc: usize,
    tree: usize,
    batch: usize,
    wal: u64,
}

/// The inputs every layer below the engine received.
pub struct Logs {
    cfg: FsConfig,
    alloc: Vec<AllocCall>,
    tree: Vec<TreeCall>,
    trees: usize,
    /// Write-back sweeps: `(ost, requests)` in submission order.
    batches: Vec<(u32, Vec<BlockRequest>)>,
    /// Journal records (one per write).
    wal_records: u64,
    timed: TimedFrom,
    /// Operations in the timed part.
    pub timed_ops: u64,
}

struct FileLayout {
    id: FileId,
    shift: u32,
    ost_map: Vec<u32>,
}

/// Ask a scratch engine where it would put the population's files, rather
/// than assume its placement rule.
fn layouts(cfg: &FsConfig, creates: &[u32]) -> Vec<Option<FileLayout>> {
    let mut probe = FileSystem::new(cfg.clone());
    let mut out: Vec<Option<FileLayout>> = (0..plan::FILES).map(|_| None).collect();
    for &key in creates {
        let f: OpenFile = probe.create(&plan::file_name(key as u64), None);
        out[key as usize] = Some(FileLayout {
            id: f.0,
            shift: probe.ost_shift_of(f).expect("just created"),
            ost_map: probe.ost_map_of(f),
        });
    }
    out
}

/// Run the serial data path over `ops` and log what each layer was asked.
/// The first [`EngOp::Mark`] starts the timed part. What follows the last
/// mark (a final flush) is still replayed: it is work the timed operations
/// left queued.
pub fn prepass(cfg: &FsConfig, ops: &[EngOp]) -> Logs {
    let creates: Vec<u32> = ops
        .iter()
        .filter_map(|op| match op {
            EngOp::Create { file } => Some(*file),
            _ => None,
        })
        .collect();
    let layouts = layouts(cfg, &creates);
    let width = cfg.osts as usize;
    let osts = cfg.total_osts();
    let allocs: Vec<GroupedAllocator> = (0..osts)
        .map(|_| GroupedAllocator::new(cfg.geometry.blocks, cfg.groups_per_ost))
        .collect();
    let mut policies: Vec<OnDemandPolicy> = (0..osts)
        .map(|_| OnDemandPolicy::new(cfg.ondemand.clone()))
        .collect();
    let mut trees: Vec<ExtentTree> = (0..plan::FILES as usize * width)
        .map(|_| ExtentTree::new())
        .collect();
    let mut open = vec![0u32; plan::FILES as usize];
    let mut pending: Vec<Vec<BlockRequest>> = vec![Vec::new(); osts];
    let mut writeback: Vec<Vec<BlockRequest>> = vec![Vec::new(); osts];
    let mut dirty = 0u64;
    let mut logs = Logs {
        cfg: cfg.clone(),
        alloc: Vec::new(),
        tree: Vec::new(),
        trees: trees.len(),
        batches: Vec::new(),
        wal_records: 0,
        timed: TimedFrom::default(),
        timed_ops: 0,
    };
    let mut marked = false;
    // Operations since the first mark; the last mark ends the timed part.
    let mut since_mark = 0u64;

    let flush = |logs: &mut Logs,
                 pending: &mut Vec<Vec<BlockRequest>>,
                 writeback: &mut Vec<Vec<BlockRequest>>,
                 dirty: &mut u64| {
        *dirty = 0;
        for ost in 0..osts {
            let mut batch = std::mem::take(&mut pending[ost]);
            batch.append(&mut writeback[ost]);
            if !batch.is_empty() {
                logs.batches.push((ost as u32, batch));
            }
        }
    };

    for op in ops {
        since_mark += (marked && op.is_op()) as u64;
        match *op {
            EngOp::Mark => {
                logs.timed_ops = since_mark;
                if !marked {
                    marked = true;
                    logs.timed = TimedFrom {
                        alloc: logs.alloc.len(),
                        tree: logs.tree.len(),
                        batch: logs.batches.len(),
                        wal: logs.wal_records,
                    };
                }
            }
            EngOp::Create { file } => {
                let l = layouts[file as usize].as_ref().expect("probed above");
                for &ost in &l.ost_map {
                    policies[ost as usize].create(&allocs[ost as usize], l.id, None);
                    logs.alloc.push(AllocCall::Create { ost, file: l.id });
                }
                open[file as usize] = 1;
            }
            EngOp::Open { file } => open[file as usize] += 1,
            EngOp::Close { file } => {
                open[file as usize] -= 1;
                if open[file as usize] == 0 {
                    let id = layouts[file as usize].as_ref().expect("created").id;
                    for (policy, alloc) in policies.iter_mut().zip(&allocs) {
                        policy.finalize(alloc, id);
                    }
                    logs.alloc.push(AllocCall::Finalize { file: id });
                }
            }
            EngOp::Write {
                file,
                stream,
                offset,
                len,
            } => {
                let l = layouts[file as usize].as_ref().expect("created");
                let striping = Striping::new(l.ost_map.len() as u32, cfg.stripe_blocks);
                for (col, local, run, _) in striping.split(offset, len, l.shift) {
                    let ost = l.ost_map[col as usize];
                    let t = file as usize * width + col as usize;
                    let tree = t as u32;
                    logs.tree.push(TreeCall::Gaps {
                        tree,
                        logical: local,
                        len: run,
                    });
                    for (gap, gap_len) in trees[t].gaps(local, run) {
                        logs.alloc.push(AllocCall::Extend {
                            ost,
                            file: l.id,
                            stream,
                            logical: gap,
                            len: gap_len,
                        });
                        let mut logical = gap;
                        for (phys, n) in policies[ost as usize].extend(
                            &allocs[ost as usize],
                            l.id,
                            stream,
                            gap,
                            gap_len,
                        ) {
                            let extent = Extent::new(logical, phys, n);
                            trees[t].insert(extent);
                            logs.tree.push(TreeCall::Insert { tree, extent });
                            logical += n;
                        }
                    }
                    logs.tree.push(TreeCall::Resolve {
                        tree,
                        logical: local,
                        len: run,
                    });
                    for (phys, n) in trees[t].resolve(local, run) {
                        writeback[ost as usize].push(BlockRequest::write(phys, n));
                        dirty += n;
                    }
                }
                logs.wal_records += 1;
                if dirty >= cfg.writeback_limit_blocks {
                    flush(&mut logs, &mut pending, &mut writeback, &mut dirty);
                }
            }
            EngOp::Read {
                file,
                stream,
                offset,
                len,
            } => {
                let l = layouts[file as usize].as_ref().expect("created");
                let ctx = stream.as_u64() ^ l.id.0.rotate_left(17);
                let striping = Striping::new(l.ost_map.len() as u32, cfg.stripe_blocks);
                for (col, local, run, _) in striping.split(offset, len, l.shift) {
                    let t = file as usize * width + col as usize;
                    logs.tree.push(TreeCall::Resolve {
                        tree: t as u32,
                        logical: local,
                        len: run,
                    });
                    for (phys, n) in trees[t].resolve(local, run) {
                        pending[l.ost_map[col as usize] as usize]
                            .push(BlockRequest::read(phys, n).with_ctx(ctx));
                    }
                }
            }
            EngOp::Sync => flush(&mut logs, &mut pending, &mut writeback, &mut dirty),
            EngOp::Commit => {}
        }
    }
    flush(&mut logs, &mut pending, &mut writeback, &mut dirty);
    logs
}

/// Times each layer is timed alone over its log.
const LEAF_REPEATS: usize = 3;

/// What timing each layer alone over its log gave.
#[derive(Debug, Clone, Default)]
pub struct LeafTimes {
    pub alloc_ns: u64,
    pub extends: u64,
    pub extend_runs: u64,
    pub ondemand: OnDemandStats,
    /// All extent-tree calls of the timed part.
    pub extent_ns: u64,
    /// The same without the resolves: the insert path alone.
    pub extent_insert_ns: u64,
    pub inserts: u64,
    pub resolves: u64,
    pub extents_total: u64,
    pub max_extents_per_tree: u64,
    pub wal_ns: u64,
    pub wal_commit_ns: u64,
    pub wal_commits: u64,
    pub wal_records: u64,
    pub disk_ns: u64,
    pub disk_requests: u64,
    pub disk: DiskStats,
}

fn ondemand_since(now: OnDemandStats, then: OnDemandStats) -> OnDemandStats {
    OnDemandStats {
        layout_misses: now.layout_misses - then.layout_misses,
        pre_alloc_hits: now.pre_alloc_hits - then.pre_alloc_hits,
        streams_turned_off: now.streams_turned_off - then.streams_turned_off,
        reclaimed_blocks: now.reclaimed_blocks - then.reclaimed_blocks,
    }
}

impl Logs {
    fn time_alloc(&self, out: &mut LeafTimes) {
        let osts = self.cfg.total_osts();
        let allocs: Vec<GroupedAllocator> = (0..osts)
            .map(|_| GroupedAllocator::new(self.cfg.geometry.blocks, self.cfg.groups_per_ost))
            .collect();
        let mut policies: Vec<OnDemandPolicy> = (0..osts)
            .map(|_| OnDemandPolicy::new(self.cfg.ondemand.clone()))
            .collect();
        let stats = |p: &[OnDemandPolicy]| {
            p.iter().fold(OnDemandStats::default(), |a, p| {
                let s = p.stats();
                OnDemandStats {
                    layout_misses: a.layout_misses + s.layout_misses,
                    pre_alloc_hits: a.pre_alloc_hits + s.pre_alloc_hits,
                    streams_turned_off: a.streams_turned_off + s.streams_turned_off,
                    reclaimed_blocks: a.reclaimed_blocks + s.reclaimed_blocks,
                }
            })
        };
        let apply = |calls: &[AllocCall], policies: &mut [OnDemandPolicy]| {
            let (mut extends, mut runs) = (0u64, 0u64);
            for call in calls {
                match *call {
                    AllocCall::Create { ost, file } => {
                        policies[ost as usize].create(&allocs[ost as usize], file, None)
                    }
                    AllocCall::Extend {
                        ost,
                        file,
                        stream,
                        logical,
                        len,
                    } => {
                        let got = policies[ost as usize].extend(
                            &allocs[ost as usize],
                            file,
                            stream,
                            logical,
                            len,
                        );
                        extends += 1;
                        runs += black_box(got).len() as u64;
                    }
                    AllocCall::Finalize { file } => {
                        for (policy, alloc) in policies.iter_mut().zip(&allocs) {
                            policy.finalize(alloc, file);
                        }
                    }
                }
            }
            (extends, runs)
        };
        apply(&self.alloc[..self.timed.alloc], &mut policies);
        let before = stats(&policies);
        let start = Instant::now();
        let (extends, runs) = apply(&self.alloc[self.timed.alloc..], &mut policies);
        out.alloc_ns = start.elapsed().as_nanos() as u64;
        out.extends = extends;
        out.extend_runs = runs;
        out.ondemand = ondemand_since(stats(&policies), before);
    }

    /// Replay the tree log on fresh trees; `resolves` chooses whether the
    /// timed part includes them. Returns the timed nanoseconds and trees.
    fn run_trees(&self, resolves: bool) -> (u64, Vec<ExtentTree>) {
        let mut trees: Vec<ExtentTree> = (0..self.trees).map(|_| ExtentTree::new()).collect();
        let mut apply = |calls: &[TreeCall], resolves: bool| {
            for call in calls {
                match *call {
                    TreeCall::Gaps { tree, logical, len } => {
                        black_box(trees[tree as usize].gaps(logical, len));
                    }
                    TreeCall::Insert { tree, extent } => trees[tree as usize].insert(extent),
                    TreeCall::Resolve { tree, logical, len } => {
                        if resolves {
                            black_box(trees[tree as usize].resolve(logical, len));
                        }
                    }
                }
            }
        };
        apply(&self.tree[..self.timed.tree], false);
        let start = Instant::now();
        apply(&self.tree[self.timed.tree..], resolves);
        (start.elapsed().as_nanos() as u64, trees)
    }

    fn time_extent(&self, out: &mut LeafTimes) {
        let (all_ns, trees) = self.run_trees(true);
        let (insert_ns, _) = self.run_trees(false);
        out.extent_ns = all_ns;
        out.extent_insert_ns = insert_ns.min(all_ns);
        for call in &self.tree[self.timed.tree..] {
            match call {
                TreeCall::Insert { .. } => out.inserts += 1,
                TreeCall::Resolve { .. } => out.resolves += 1,
                TreeCall::Gaps { .. } => {}
            }
        }
        out.extents_total = trees.iter().map(|t| t.extent_count() as u64).sum();
        out.max_extents_per_tree = trees
            .iter()
            .map(|t| t.extent_count() as u64)
            .max()
            .unwrap_or(0);
    }

    /// Stage one record per write and commit every `records_per_commit`,
    /// the batching the run's own journal counters showed.
    fn time_wal(&self, records_per_commit: u64, out: &mut LeafTimes) {
        let wal = GroupCommitWal::new(self.cfg.wal_slab_records);
        let commit = WriteCommit {
            file: 1,
            stream: 1,
            offset: 0,
            len: plan::WRITE_BLOCKS,
        };
        let every = records_per_commit.max(1);
        for _ in 0..self.timed.wal {
            wal.append(|seq| encode_write_record(seq, &commit));
        }
        wal.commit_all();
        out.wal_records = self.wal_records - self.timed.wal;
        let start = Instant::now();
        for i in 1..=out.wal_records {
            let seq = wal.append(|seq| encode_write_record(seq, &commit));
            if i % every == 0 || i == out.wal_records {
                let gate = Instant::now();
                wal.commit(seq);
                out.wal_commit_ns += gate.elapsed().as_nanos() as u64;
                out.wal_commits += 1;
            }
        }
        out.wal_ns = start.elapsed().as_nanos() as u64;
    }

    fn time_disk(&self, out: &mut LeafTimes) {
        let mut disks: Vec<Disk> = (0..self.cfg.total_osts())
            .map(|_| {
                Disk::with_config(
                    self.cfg.geometry.clone(),
                    self.cfg.scheduler.clone(),
                    self.cfg.data_cache_blocks,
                )
            })
            .collect();
        // A disk takes its batch by value, as the engine hands it over;
        // the copies are made before the clock starts.
        let mut submit = |batches: Vec<(u32, Vec<BlockRequest>)>| {
            let mut requests = 0u64;
            for (ost, batch) in batches {
                requests += batch.len() as u64;
                disks[ost as usize].submit_batch(batch);
            }
            requests
        };
        submit(self.batches[..self.timed.batch].to_vec());
        let timed = self.batches[self.timed.batch..].to_vec();
        let start = Instant::now();
        out.disk_requests = submit(timed);
        out.disk_ns = start.elapsed().as_nanos() as u64;
        for d in &disks {
            out.disk.absorb(d.stats());
        }
    }

    fn time_layers_once(&self, wal_records_per_commit: u64) -> LeafTimes {
        let mut out = LeafTimes::default();
        self.time_alloc(&mut out);
        self.time_extent(&mut out);
        self.time_wal(wal_records_per_commit, &mut out);
        self.time_disk(&mut out);
        out
    }

    /// Time every layer alone over its log, [`LEAF_REPEATS`] times, and
    /// keep each layer's fastest time: the engine above them is measured by
    /// its fast epochs too, and a self time is a difference of the two.
    pub fn time_layers(&self, wal_records_per_commit: u64) -> LeafTimes {
        let mut best = self.time_layers_once(wal_records_per_commit);
        for _ in 1..LEAF_REPEATS {
            let t = self.time_layers_once(wal_records_per_commit);
            best.alloc_ns = best.alloc_ns.min(t.alloc_ns);
            if t.extent_ns < best.extent_ns {
                (best.extent_ns, best.extent_insert_ns) = (t.extent_ns, t.extent_insert_ns);
            }
            if t.wal_ns < best.wal_ns {
                (best.wal_ns, best.wal_commit_ns) = (t.wal_ns, t.wal_commit_ns);
            }
            best.disk_ns = best.disk_ns.min(t.disk_ns);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::span::Tracer;
    use mif_alloc::PolicyKind;

    fn scenario() -> Vec<EngOp> {
        let mut ops = vec![EngOp::Create { file: 0 }, EngOp::Mark];
        // Two streams interleave extending writes, then everything is
        // read back and the file closed.
        for round in 0..64u64 {
            for s in 0..2u64 {
                ops.push(EngOp::Write {
                    file: 0,
                    stream: StreamId::new(s as u32, 0),
                    offset: s * 1024 + round * 4,
                    len: 4,
                });
            }
        }
        ops.push(EngOp::Sync);
        for s in 0..2u64 {
            ops.push(EngOp::Read {
                file: 0,
                stream: StreamId::new(9, 0),
                offset: s * 1024,
                len: 256,
            });
        }
        ops.push(EngOp::Sync);
        ops.push(EngOp::Close { file: 0 });
        ops.push(EngOp::Mark);
        ops
    }

    #[test]
    fn the_prepass_sees_what_the_engine_does() {
        let mut cfg = FsConfig::with_policy(PolicyKind::OnDemand, 2);
        cfg.stripe_blocks = 32;
        let ops = scenario();
        let logs = prepass(&cfg, &ops);
        let times = logs.time_layers(8);
        assert_eq!(logs.timed_ops, 128 + 2 + 2 + 1);
        assert_eq!(times.wal_records, 128);
        assert_eq!(times.wal_commits, 16);

        // The engine, driven with the same operations, ends with the same
        // extents and sent the same requests to its disks.
        let r = engine::pass(&cfg, &ops, 0, &mut Tracer::new(false));
        let m = r.fs.metrics();
        assert_eq!(times.extents_total, m.extents);
        let io = r.fs.stats().io;
        assert_eq!(times.disk.submitted, io.submitted);
        assert_eq!(times.disk.dispatched, io.dispatched);
        assert_eq!(times.disk.bytes_written, io.bytes_written);
        assert_eq!(times.disk.bytes_read, io.bytes_read);
        assert!(times.extends > 0 && times.inserts >= times.extends);
        assert!(times.ondemand.layout_misses > 0);
    }
}
