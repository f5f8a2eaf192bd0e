//! Hot/cold tiering for the MiF simulator.
//!
//! Three cooperating pieces, one per module:
//!
//! - [`heat`] — a probabilistic, inertia-damped hot/warm/cold classifier
//!   fed by the concurrent front-end's lock-free access recorder. Warm is
//!   the default; hysteresis plus inertia keep zipf traffic from flapping
//!   classifications at the band edges.
//! - [`redundancy`] — the placement protocols: hot files gain replica
//!   runs on other OSTs (the front-end fans reads out to the least-loaded
//!   healthy copy and serves *degraded* reads from them when a disk
//!   dies), cold files are packed into 4+2 erasure-coded stripe groups.
//!   Every placement is WAL-logged (Intent/Commit on the
//!   `mif_mds::TierWal` stream) and [`recover`] reconciles any crash
//!   point.
//! - [`migrate`] — the [`TierEngine`] maintenance loop: lazy teardown of
//!   invalidated artifacts, heat-weighted defrag
//!   (`mif_defrag::run_prioritized`), capped promotion and demotion
//!   batches.
//!
//! The division of labour with `mif_core`: the *data model*
//! (`TierMap`, replica/stripe bookkeeping, degraded-source selection)
//! lives in core so the concurrent read/write paths and fsck can reach
//! it without depending on this crate; the *policy* — when to place
//! what, and how to log it — lives here.

pub mod heat;
pub mod migrate;
pub mod redundancy;

pub use heat::{Heat, HeatClassifier, RATE_SCALE};
pub use migrate::{MaintenanceStats, TierEngine};
pub use redundancy::{
    derive_members, drop_run, encode_file, recover, replicate_file, replicate_file_budgeted,
    PlacementStats, RecoveryReport, REPLICA_CHUNK,
};
