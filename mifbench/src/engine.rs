//! Driving `ConcurrentFs` directly from a list of operations, one thread.
//!
//! This is the whole of `eng_shared_file`, and the first layer replay of
//! the service workloads: the operations the sessions sent through the
//! server, applied to the engine without the server.

use std::time::Instant;

use mif_alloc::StreamId;
use mif_core::{ConcurrentFs, FsConfig, OpenFile};

use crate::host::CpuClock;
use crate::plan;
use crate::span::Tracer;

/// One call on the engine. Files are named by their key in the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngOp {
    /// Create the file and keep the creating handle open.
    Create {
        file: u32,
    },
    Open {
        file: u32,
    },
    Close {
        file: u32,
    },
    Write {
        file: u32,
        stream: StreamId,
        offset: u64,
        len: u64,
    },
    Read {
        file: u32,
        stream: StreamId,
        offset: u64,
        len: u64,
    },
    Sync,
    /// Wait until the last write's journal record is durable: the gate the
    /// server puts before the acks of every batch it drains.
    Commit,
    /// Not a call: read the clocks here. Marks delimit the timed phases.
    Mark,
}

impl EngOp {
    /// Does this entry count as an operation (everything but the clock
    /// readings and the durability gate, which no client asks for)?
    pub fn is_op(&self) -> bool {
        !matches!(self, EngOp::Mark | EngOp::Commit)
    }

    fn span_name(&self) -> &'static str {
        match self {
            EngOp::Create { .. } => "core.create",
            EngOp::Open { .. } => "core.open",
            EngOp::Close { .. } => "core.close",
            EngOp::Write { .. } => "core.write",
            EngOp::Read { .. } => "core.read",
            EngOp::Sync => "core.sync",
            EngOp::Commit => "core.wal_commit",
            EngOp::Mark => "mark",
        }
    }
}

/// The clocks at one [`EngOp::Mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkReading {
    pub wall_ns: u64,
    pub cpu_us: u64,
    /// The simulated data clock.
    pub data_ns: u64,
    /// Operations applied before the mark.
    pub ops: u64,
}

pub struct PassResult {
    pub fs: ConcurrentFs,
    pub marks: Vec<MarkReading>,
    /// Call-to-return time of every `sample_every`th operation after the
    /// first mark, in nanoseconds.
    pub latencies: Vec<u64>,
}

/// Apply `ops` to a fresh engine. With an enabled `tracer` every call is a
/// span; otherwise every `sample_every`th call (0 = none) is timed for the
/// latency samples.
pub fn pass(cfg: &FsConfig, ops: &[EngOp], sample_every: u64, tracer: &mut Tracer) -> PassResult {
    let start = Instant::now();
    let fs = ConcurrentFs::new(cfg.clone());
    let mut cpu = CpuClock::new();
    let mut handles: Vec<Option<OpenFile>> = vec![None; plan::FILES as usize];
    let mut marks = Vec::new();
    let mut latencies = Vec::new();
    let mut last_seq = None;
    let mut applied = 0u64;
    let file = |handles: &[Option<OpenFile>], key: u32| {
        handles[key as usize].expect("operation on a file before its create or open")
    };
    for op in ops {
        if *op == EngOp::Mark {
            marks.push(MarkReading {
                wall_ns: start.elapsed().as_nanos() as u64,
                cpu_us: cpu.read_us(),
                data_ns: fs.data_elapsed_ns(),
                ops: applied,
            });
            continue;
        }
        let sampled = !tracer.enabled()
            && sample_every != 0
            && !marks.is_empty()
            && applied.is_multiple_of(sample_every);
        let called = sampled.then(Instant::now);
        let span = tracer.begin(op.span_name(), 0, applied);
        match *op {
            EngOp::Create { file: key } => {
                handles[key as usize] = Some(fs.create(&plan::file_name(key as u64), None));
            }
            EngOp::Open { file: key } => {
                let f = fs
                    .open(&plan::file_name(key as u64))
                    .expect("open of a file of the population");
                handles[key as usize] = Some(f);
            }
            EngOp::Close { file: key } => fs.close(file(&handles, key)),
            EngOp::Write {
                file: key,
                stream,
                offset,
                len,
            } => {
                let seq = fs
                    .try_write_journaled(file(&handles, key), stream, offset, len)
                    .expect("no faults are injected");
                last_seq = Some(seq);
            }
            EngOp::Read {
                file: key,
                stream,
                offset,
                len,
            } => fs.read(file(&handles, key), stream, offset, len),
            EngOp::Sync => fs.sync(),
            EngOp::Commit => {
                if let Some(seq) = last_seq.take() {
                    fs.wal_commit(seq);
                }
            }
            EngOp::Mark => unreachable!("handled above"),
        }
        tracer.end(span);
        if let Some(called) = called {
            latencies.push(called.elapsed().as_nanos() as u64);
        }
        applied += op.is_op() as u64;
    }
    PassResult {
        fs,
        marks,
        latencies,
    }
}

const BLOCK_BYTES: f64 = 4096.0;
pub const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * MIB;

/// Blocks as MiB.
pub fn mib(blocks: u64) -> f64 {
    blocks as f64 * BLOCK_BYTES / MIB
}

/// `MiB / s` of `blocks` moved in `ns` simulated nanoseconds.
pub fn mib_per_s(blocks: u64, ns: u64) -> f64 {
    mib(blocks) / (ns as f64 / 1e9)
}

/// Fragmentation and space use of a quiet file system (everything synced,
/// every file closed): file extents per GiB mapped, and blocks the
/// allocators hold per block the files map.
pub fn extents_and_space(fs: &ConcurrentFs) -> (f64, f64) {
    let m = fs.metrics();
    let capacity = fs.config.geometry.blocks * fs.config.total_osts() as u64;
    let held = capacity - fs.free_blocks();
    (
        m.extents as f64 / (m.blocks as f64 * BLOCK_BYTES / GIB),
        held as f64 / m.blocks as f64,
    )
}

/// Namespace operations the engine's MDS served per simulated second of
/// MDS time (disk plus round trips).
pub fn meta_ops_per_s(engine: &mut mif_core::FileSystem) -> f64 {
    let mds = engine.mds();
    mds.op_stats().total_ops() as f64 / (mds.total_elapsed_ns() as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mif_alloc::PolicyKind;

    #[test]
    fn a_pass_applies_every_operation_and_reads_the_clocks_at_marks() {
        let s = StreamId::new(1, 0);
        let ops = [
            EngOp::Create { file: 0 },
            EngOp::Mark,
            EngOp::Write {
                file: 0,
                stream: s,
                offset: 0,
                len: 8,
            },
            EngOp::Commit,
            EngOp::Sync,
            EngOp::Mark,
            EngOp::Read {
                file: 0,
                stream: s,
                offset: 0,
                len: 8,
            },
            EngOp::Sync,
            EngOp::Close { file: 0 },
            EngOp::Mark,
        ];
        let cfg = FsConfig::with_policy(PolicyKind::OnDemand, 2);
        let mut tracer = Tracer::new(false);
        let r = pass(&cfg, &ops, 1, &mut tracer);
        assert_eq!(
            r.marks.iter().map(|m| m.ops).collect::<Vec<_>>(),
            vec![1, 3, 6]
        );
        assert!(
            r.marks[1].data_ns > r.marks[0].data_ns,
            "the write hit the disk"
        );
        assert!(
            r.marks[2].data_ns > r.marks[1].data_ns,
            "the read hit the disk"
        );
        // Every operation after the first mark was sampled; the commit is
        // a call too, but not an operation.
        assert_eq!(r.latencies.len(), 6);
        let f = r.fs.open(&plan::file_name(0)).expect("created by the pass");
        assert_eq!(r.fs.file_size(f), 8);
        assert_eq!(r.fs.wal_durable_watermark(), 1);

        let mut tracer = Tracer::new(true);
        let r = pass(&cfg, &ops, 1, &mut tracer);
        assert!(
            r.latencies.is_empty(),
            "a traced pass records spans instead"
        );
        assert_eq!(tracer.spans().len(), 7);
        assert_eq!(tracer.spans()[1].name, "core.write");
    }
}
