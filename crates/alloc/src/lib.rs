//! # mif-alloc — block allocation policies for a parallel file system
//!
//! The free-space manager of one IO server, plus the four allocation
//! policies the paper evaluates:
//!
//! * [`VanillaPolicy`] — no preallocation at all: each extending write grabs
//!   blocks near the file system's rolling goal pointer (Table I's
//!   "Vanilla" row);
//! * [`ReservationPolicy`] — the classic per-inode reservation window used
//!   by ext4/GPFS/Panasas and by Lustre's OSTs (§I): contiguous blocks are
//!   reserved near the last block of the file and *all* streams writing the
//!   file consume them in arrival order — contiguous on disk, but the
//!   logical→physical indirection fragments under concurrency (Fig. 1a);
//! * [`StaticPolicy`] — `fallocate`-style persistent preallocation of the
//!   whole file up front; the least fragmentation, but requires
//!   foreknowledge of the file size (§I);
//! * [`OnDemandPolicy`] — the paper's contribution (§III): per-*stream*
//!   current/sequential windows with the `layout_miss` /
//!   `pre_alloc_layout` triggers and exponential window ramp-up.
//!
//! Two further §II-B baselines are declared here ([`PolicyKind::Delayed`]
//! and [`PolicyKind::Cow`]) but implemented above the policy layer, in the
//! file system's write path: delayed allocation happens at write-back
//! flush, copy-on-write relocates overwrites to the log head.
//!
//! Free space itself is managed by [`GroupedAllocator`] — the paper's
//! *parallel allocation groups* (PAG, §V-A): the disk is divided into
//! groups, each protected by its own lock so concurrent streams allocate in
//! parallel.
//!
//! # Example
//!
//! ```
//! use mif_alloc::{AllocPolicy, FileId, GroupedAllocator, OnDemandPolicy, StreamId};
//!
//! let alloc = GroupedAllocator::new(1 << 16, 8);
//! let mut policy = OnDemandPolicy::default();
//! let (file, stream) = (FileId(1), StreamId::new(1, 0));
//!
//! // A sequential stream: the first extend initialises the windows,
//! // later extends are served from them and stay physically contiguous.
//! let first = policy.extend(&alloc, file, stream, 0, 4);
//! let second = policy.extend(&alloc, file, stream, 4, 4);
//! assert_eq!(second[0].0, first[0].0 + 4);
//!
//! // Close releases unconsumed window blocks back to the allocator.
//! policy.finalize(&alloc, file);
//! assert_eq!(alloc.free_blocks(), (1 << 16) - 8);
//! ```

pub mod bitmap;
pub mod bump;
pub mod group;
pub mod lockorder;
pub mod ondemand;
pub mod policy;
pub mod reservation;
pub mod static_;
pub mod stream;
pub mod vanilla;

pub use bitmap::{BlockBitmap, FreeRunHistogram};
pub use bump::BumpWindow;
pub use group::GroupedAllocator;
pub use ondemand::OnDemandStats;
pub use ondemand::{OnDemandConfig, OnDemandPolicy, OnDemandSnapshot, PersistentWindow};
pub use policy::{make_policy, AllocPolicy, FileId, PolicyKind};
pub use reservation::ReservationPolicy;
pub use static_::StaticPolicy;
pub use stream::StreamId;
pub use vanilla::VanillaPolicy;
