//! # mif-workloads — the paper's benchmark workloads
//!
//! Deterministic (seeded) generators reproducing the request streams of
//! every benchmark in the evaluation (§V):
//!
//! * [`micro`] — the two-phase shared-file micro-benchmark behind Fig. 6,
//!   "based on the trace analysis of scientific computing environment":
//!   phase 1 places file data under concurrent streams, phase 2 reads the
//!   file back in 1024 segments;
//! * [`ior`] — IOR2 in shared mode: each of m processes reads/writes 1/m of
//!   one file with 32–64 KiB requests (Fig. 7, Table I);
//! * [`btio`] — NPB BTIO's nested-strided appends, non-collective or
//!   collective (~40 MB aggregated requests) (Fig. 7, Table I);
//! * [`metarates`] — the MPI metadata benchmark: per-client directories,
//!   create / utime / delete / readdir-stat phases (Fig. 8);
//! * [`fpp`] — the shared-file vs file-per-process comparison behind the
//!   paper's motivation (§II-A.1, the Wang [16] factor-of-5 observation);
//! * [`aging`] — NetApp-style churn to a target utilization followed by the
//!   same metadata mix (Fig. 9);
//! * [`postmark`] — PostMark's transaction mix (Fig. 10);
//! * [`apps`] — kernel-source-tree workloads: tar, make, make-clean
//!   (Fig. 10);
//! * [`trace`] — a text trace format, parser and replayer, so user-supplied
//!   shared-file traces run through the same pipeline;
//! * [`zipf`] — the seeded Zipfian key-popularity generator behind
//!   `mifbench`'s skewed client traffic (not a paper workload: it models
//!   the serving-scale load of the service front-end).

//! # Example
//!
//! ```
//! use mif_workloads::micro::{run, MicroParams};
//! use mif_core::FsConfig;
//! use mif_alloc::PolicyKind;
//!
//! // A small two-phase micro-benchmark run (Fig. 6 shape in miniature).
//! let params = MicroParams {
//!     streams: 8,
//!     request_blocks: 2,
//!     region_blocks: 128,
//!     segments: 64,
//!     readers: 16,
//!     read_blocks: 8,
//!     ..Default::default()
//! };
//! let res = run(FsConfig::with_policy(PolicyKind::Reservation, 5), &params);
//! let ond = run(FsConfig::with_policy(PolicyKind::OnDemand, 5), &params);
//! assert!(ond.extents < res.extents);
//! assert!(ond.phase2_mib_s > res.phase2_mib_s);
//! ```

pub mod aging;
pub mod apps;
pub mod btio;
pub mod fpp;
pub mod ior;
pub mod metarates;
pub mod micro;
pub mod postmark;
pub mod trace;
pub mod zipf;

pub use aging::{age_data_fs, AgingParams, AgingResult, DataAgingParams};
pub use apps::{AppKind, AppParams, AppResult};
pub use btio::{BtioParams, BtioResult};
pub use fpp::{FileModel, FppParams, FppResult};
pub use ior::{IorParams, IorResult};
pub use metarates::{MetaratesParams, MetaratesResult, Phase};
pub use micro::{MicroParams, MicroResult};
pub use postmark::{PostmarkParams, PostmarkResult};
pub use trace::{replay, Trace, TraceEvent, TraceStats};
pub use zipf::ZipfGen;
