//! The engine: one copy of the file-system state, sharded for threads.
//!
//! [`ConcurrentFs`] owns everything there is — allocators, policies,
//! extent trees, IO queues, disks, tier map, MDS, WAL — behind
//! fine-grained locks, so genuinely parallel client threads create, write,
//! read and close files through a shared `&ConcurrentFs`. [`FileSystem`]
//! holds no state of its own: it is the paper's *round* schedule over this
//! one, a single caller whose `&mut` reaches through the same locks with
//! `get_mut` (see `crate::fs`).
//!
//! # Sharding map
//!
//! * **per OST** ([`OstShard`]): the parallel-allocation-group allocator
//!   (already internally locked per group), the allocation-policy state
//!   (windows, goals) behind one short mutex, the pending/write-back IO
//!   queues, and the simulated disk behind its own mutex;
//! * **per file**: name/ino/shift are immutable in an `Arc`ed slot; extent
//!   trees, size, handle count, delayed-allocation buffers and the
//!   per-stream [`BumpWindow`] cache live behind the slot's mutex —
//!   writers to *different* files never contend;
//! * **MDS**: a striped lock table ([`mif_mds::Mds::name_stripe`]) guards
//!   the directory paths, so namespace operations on different names run
//!   concurrently while same-name races serialize; the `Mds` object itself
//!   is one short inner lock;
//! * **data-path WAL** ([`GroupCommitWal`]): records stage lock-free into
//!   a circular slab; one leader coalesces everything staged into a
//!   single merged flush (see `docs/CONCURRENCY.md` § group commit);
//! * **power state**: each shard mirrors its disk's powered-off flag in
//!   a lock-free `AtomicBool`, refreshed wherever the disk lock is held,
//!   so the write hot path never sweeps disk mutexes just to notice a
//!   power cut;
//! * **counters**: next-file id, write-back watermark, MDS CPU time,
//!   the aggregated disk statistics ([`SharedDiskStats`]) and the
//!   contention telemetry ([`ContentionSnapshot`]) are lock-free
//!   atomics feeding [`crate::metrics`].
//!
//! # Lock order
//!
//! Deadlock freedom comes from the global rank discipline documented in
//! [`mif_alloc::lockorder`] (`group < file < mds-journal < wal-flush`,
//! inner to outer): every path acquires locks in strictly descending
//! rank, and the WAL flush mutex — the outermost rank — is only ever
//! taken with no other lock held. Debug builds enforce this with the
//! panic-on-inversion checker; release builds compile the checks out.
//! See `docs/CONCURRENCY.md` for the full map.
//!
//! # Time and quiescing
//!
//! There are no rounds here. Writes buffer in per-OST write-back queues and
//! flush when the configured watermark is crossed (or at [`sync`]); each
//! shard accumulates its own simulated busy time and the data clock is
//! gated by the busiest shard, exactly like a round. Tools that need the
//! whole-system view — fsck, the defrag engine, the oracle checkers — take
//! a `&mut FileSystem`: [`into_engine`] flushes, folds the busiest shard
//! into the base clock and wraps `self`; [`from_engine`] flushes and
//! unwraps. Quiescing is a move — nothing is copied or rebuilt, and the
//! WAL, its staged records included, survives it.
//!
//! [`sync`]: ConcurrentFs::sync
//! [`into_engine`]: ConcurrentFs::into_engine
//! [`from_engine`]: ConcurrentFs::from_engine
//!
//! # Example
//!
//! ```
//! use mif_core::{ConcurrentFs, FsConfig};
//! use mif_alloc::{PolicyKind, StreamId};
//! use std::sync::Arc;
//!
//! let fs = Arc::new(ConcurrentFs::new(FsConfig::with_policy(
//!     PolicyKind::OnDemand,
//!     2,
//! )));
//! let file = fs.create("shared.out", None);
//!
//! // Two real threads extend disjoint regions of the shared file.
//! std::thread::scope(|s| {
//!     for t in 0..2u32 {
//!         let fs = Arc::clone(&fs);
//!         s.spawn(move || {
//!             let stream = StreamId::new(t, 0);
//!             for i in 0..8u64 {
//!                 fs.write(file, stream, t as u64 * 4096 + i * 4, 4);
//!             }
//!         });
//!     }
//! });
//! fs.sync();
//! assert_eq!(fs.file_allocated(file), 64);
//!
//! // Quiesce into the single-caller round driver for fsck/defrag/oracles.
//! let fs = Arc::try_unwrap(fs).ok().expect("threads joined");
//! let engine = fs.into_engine();
//! assert_eq!(engine.file_allocated(file), 64);
//! ```

use crate::config::FsConfig;
use crate::fs::{FileSystem, LifecycleStats, OpenFile};
use crate::metrics::FsMetrics;
use crate::striping::Striping;
use crate::tier::{DegradedSource, TierMap};
use mif_alloc::lockorder::{self, LockClass};
use mif_alloc::{
    make_policy, AllocPolicy, BumpWindow, FileId, GroupedAllocator, OnDemandPolicy, PolicyKind,
    ReservationPolicy, StreamId,
};
use mif_extent::{Extent, ExtentTree};
use mif_mds::{encode_write_record, GroupCommitWal, InodeNo, Mds, WriteCommit, ROOT_INO};
use mif_rng::IdMap;
use mif_simdisk::{
    BlockRequest, Disk, DiskHealth, DiskStats, FaultPlan, FaultStats, IoFault, Nanos,
    SharedDiskStats,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Stripes in the MDS namespace lock table.
const MDS_STRIPES: usize = 16;

/// CPU cost charged to the MDS per extent handled (merge + index), in
/// nanoseconds — the Table I CPU-utilization proxy.
const MDS_CPU_NS_PER_EXTENT: u64 = 50_000;

/// Why a `get_mut` / `lock` on engine state can fail at all.
pub(crate) const POISONED: &str = "a thread panicked holding engine state";

/// One per-OST piece of a request, as [`Striping::pieces`] yields them:
/// `(column, OST-local start, len, file logical start)`.
type Piece = (u32, u64, u64, u64);

/// IO accumulated toward one OST between flushes.
#[derive(Default)]
pub(crate) struct OstQueues {
    /// Read requests (serviced at the next flush or round end).
    pub(crate) pending: Vec<BlockRequest>,
    /// Dirty write-back data.
    pub(crate) writeback: Vec<BlockRequest>,
}

/// One IO server's shard of the mutable state.
pub(crate) struct OstShard {
    /// Parallel allocation groups — internally one lock per group, so
    /// streams hitting different groups allocate concurrently.
    pub(crate) alloc: GroupedAllocator,
    /// Policy window state. Held only around `create`/`extend`/`finalize`
    /// decisions, never around disk IO.
    pub(crate) policy: Mutex<Box<dyn AllocPolicy>>,
    pub(crate) queues: Mutex<OstQueues>,
    pub(crate) disk: Mutex<Disk>,
    /// Lock-free mirror of `disk.powered_off()`, refreshed whenever the
    /// disk lock is held and power state may have changed. The write hot
    /// path reads this instead of sweeping every shard's disk lock
    /// (`osts` lock acquisitions per write).
    pub(crate) powered_off: AtomicBool,
    /// Lock-free mirror of the bay's [`DiskHealth`] (stored as the enum's
    /// `u8` discriminant). The write hot path reads this instead of a
    /// `failed`/`degraded` flag pair: `Failed` fails writes and uncovered
    /// reads, `Failed | Rebuilding` routes reads through redundancy, and
    /// only `Healthy` accepts new placements. The authoritative state
    /// lives here while the front-end owns the system; transitions are
    /// validated through [`DiskHealth::can_transition`].
    pub(crate) health: AtomicU8,
    /// Read blocks routed to this shard (primary or replica) — the
    /// least-loaded fan-out signal.
    pub(crate) routed_blocks: AtomicU64,
    /// Simulated busy time this shard accumulated under the front-end
    /// (rounds charge the base clock instead).
    pub(crate) elapsed_ns: AtomicU64,
}

/// Mutable per-file state, guarded by the slot's mutex.
pub(crate) struct FileInner {
    /// The file's name under the root. Mutable: [`ConcurrentFs::rename_file`]
    /// rewrites it while holding both affected namespace stripe guards, so
    /// readers that only hold the slot mutex may see the name change between
    /// two locks but never a torn value.
    pub(crate) name: String,
    /// Inode number — embedded mode re-composes it on rename (§IV-B), so it
    /// lives with the name under the same lock.
    pub(crate) ino: InodeNo,
    /// One extent tree per stripe *column* (column-local logical space).
    pub(crate) trees: Vec<ExtentTree>,
    pub(crate) size_blocks: u64,
    /// Live handle count: policy windows are finalized only when the
    /// *last* handle closes.
    pub(crate) open_handles: u32,
    /// Delayed-allocation buffers, one per stripe column: unmapped logical
    /// ranges awaiting coalesced allocation at flush time.
    pub(crate) delayed: Vec<Vec<(u64, u64)>>,
    /// Cached per-(column, stream) bump-window handles. The write path claims
    /// from these lock-free ([`BumpWindow::claim`]); only a failed claim
    /// (window spent, closed, or non-sequential offset) falls back to the
    /// policy mutex, which reserves fresh windows and re-primes the cache.
    /// A stale handle is harmless to correctness (a closed window refuses
    /// every claim); the last close empties the maps so it is not kept.
    pub(crate) windows: Vec<IdMap<StreamId, Arc<BumpWindow>>>,
}

impl FileInner {
    /// Widen the file by one empty stripe column (fsck adopting orphans on
    /// a bay the file has no column on). Returns the new column's index.
    pub(crate) fn push_column(&mut self) -> usize {
        self.trees.push(ExtentTree::new());
        self.delayed.push(Vec::new());
        self.windows.push(IdMap::default());
        self.trees.len() - 1
    }
}

/// Lock-free tallies of how often the front-end's serialization points
/// are actually exercised.
#[derive(Default)]
struct ContentionCounters {
    write_ops: AtomicU64,
    disk_locks: AtomicU64,
    lockfree_claims: AtomicU64,
    policy_extends: AtomicU64,
    writeback_batches: AtomicU64,
    writeback_requests: AtomicU64,
}

/// Snapshot of the front-end's contention counters. Single-core CI cannot
/// show wall-clock scaling, so the lock-free paths are shown by their
/// effect instead: a healthy write takes no disk lock (`disk_lock_acquisitions
/// == writeback_batches`) and `wal_flushes` follows syncs, not writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionSnapshot {
    /// Write operations issued through [`ConcurrentFs::write`]/`try_write`.
    pub write_ops: u64,
    /// Times any path locked a shard's disk mutex.
    pub disk_lock_acquisitions: u64,
    /// Window claims satisfied lock-free on the write path.
    pub lockfree_window_claims: u64,
    /// Allocations that took the per-OST policy mutex.
    pub locked_policy_extends: u64,
    /// Write-back batches submitted (one disk-lock hold each).
    pub writeback_batches: u64,
    /// Individual requests inside those batches.
    pub writeback_requests: u64,
    /// Records staged in the data-path WAL.
    pub wal_records: u64,
    /// Merged journal flushes.
    pub wal_flushes: u64,
    /// Largest number of records one flush coalesced.
    pub wal_max_batch: u64,
    /// Appender parks caused by a full WAL slab (backpressure events).
    pub wal_backpressure_parks: u64,
}

/// The front-end's aggregated statistics: every lock-free counter the
/// system exports, in one snapshot. Call sites that used to pick per-field
/// accessors (`contention()` here, `data_stats()` there) read this instead,
/// so a bench or service layer reports the whole picture atomically enough
/// for evidence purposes — one struct, one code path.
#[derive(Debug, Clone)]
pub struct FsStats {
    /// Serialization-point tallies.
    pub contention: ContentionSnapshot,
    /// Aggregated data-disk IO totals ([`SharedDiskStats`] snapshot).
    pub io: DiskStats,
    /// Per-file extent-count histogram, log2 buckets: `extent_hist[i]`
    /// counts files whose total extent count (summed across OSTs) lies in
    /// `[2^i, 2^(i+1))`; the last bucket absorbs everything above. Files
    /// with no extents are not counted. The fragmentation shape of the
    /// namespace at a glance — a healthy defragmented system keeps mass
    /// in the low buckets.
    pub extent_hist: [u64; 16],
    /// Per-bay health states, indexed by physical OST.
    pub health: Vec<DiskHealth>,
    /// Lifecycle counters: rebuilds, drains, additions, scrub progress.
    pub lifecycle: LifecycleStats,
}

/// One file: immutable identity plus locked mutable state.
pub(crate) struct FileSlot {
    pub(crate) id: FileId,
    /// Starting-column rotation (files begin on different servers so
    /// concurrent per-process files spread the load).
    pub(crate) ost_shift: u32,
    /// Stripe column → physical OST hosting it: the active set at create
    /// (so files created after an expansion stripe wider). All physical
    /// targeting goes through this map; striping math and tier source
    /// spans stay in column space. Immutable under `&self`: what rewrites
    /// it — drains, truncating repairs, fsck adoption — holds the
    /// `&mut FileSystem` and reaches it through `Arc::get_mut`.
    pub(crate) ost_map: Vec<u32>,
    /// Lock-free access recorder: read ops since the last drain. The heat
    /// classifier (`mif-tier`) consumes these as deltas.
    reads: AtomicU64,
    /// Write ops since the last drain.
    writes: AtomicU64,
    pub(crate) inner: Mutex<FileInner>,
}

impl FileSlot {
    /// The file's stripe geometry: width = this file's column count.
    pub(crate) fn striping(&self, stripe_blocks: u64) -> Striping {
        Striping::new(self.ost_map.len() as u32, stripe_blocks)
    }

    /// Physical OST (shard index) currently hosting stripe column `col`.
    pub(crate) fn phys(&self, col: usize) -> usize {
        self.ost_map[col] as usize
    }
}

/// The file-system engine: every piece of state, shared by reference
/// across client threads. [`FileSystem`] drives the same object in rounds.
pub struct ConcurrentFs {
    pub config: FsConfig,
    pub(crate) shards: Vec<OstShard>,
    pub(crate) mds: Mutex<Mds>,
    mds_stripes: Vec<Mutex<()>>,
    pub(crate) files: RwLock<IdMap<FileId, Arc<FileSlot>>>,
    /// Files with non-empty delayed buffers (drained at flush).
    delayed_dirty: Mutex<HashSet<FileId>>,
    next_file: AtomicU64,
    /// Dirty blocks buffered since the last flush — the write-back
    /// watermark both schedules test.
    pub(crate) writeback_blocks: AtomicU64,
    mds_cpu_ns: AtomicU64,
    /// Data-clock time of every closed round and of every front-end phase
    /// already folded in at [`ConcurrentFs::into_engine`].
    pub(crate) base_elapsed_ns: Nanos,
    /// Lock-free aggregate of every batch submitted through `&self`
    /// (rounds bypass it; re-seeded from the disks at `from_engine`).
    io: SharedDiskStats,
    /// The group-commit data-path WAL: one durable-intent record per write
    /// op, staged lock-free, flushed merged (see [`mif_mds::GroupCommitWal`]).
    wal: GroupCommitWal,
    /// The tier map (replicas, stripe groups): read-shared on the data
    /// path, exclusive for invalidation and registration. Lock rank
    /// [`LockClass::Tier`] — outside `File`, inside `FileMap`.
    pub(crate) tier: RwLock<TierMap>,
    /// Lifecycle counters (rebuilds, additions, scrub tallies).
    /// Maintenance-path only: taken with no other lock held, never on the
    /// data hot path.
    pub(crate) lifecycle: Mutex<LifecycleStats>,
    contention: ContentionCounters,
}

/// The infallible entry points' answer to an injected fault.
pub(crate) fn expect_no_fault<T>(r: Result<T, (usize, IoFault)>) -> T {
    r.unwrap_or_else(|(ost, f)| panic!("unhandled fault on OST {ost}: {f}"))
}

impl ConcurrentFs {
    /// A fresh file system ready for parallel clients: one shard per bay
    /// (spares start `Absent`), an empty namespace and an empty WAL.
    pub fn new(config: FsConfig) -> Self {
        let shards = (0..config.total_osts())
            .map(|i| {
                let policy: Box<dyn AllocPolicy> = match config.policy {
                    PolicyKind::OnDemand => Box::new(OnDemandPolicy::new(config.ondemand.clone())),
                    PolicyKind::Reservation => {
                        Box::new(ReservationPolicy::new(config.reservation_window_blocks))
                    }
                    k => make_policy(k),
                };
                let health = if i < config.osts as usize {
                    DiskHealth::Healthy
                } else {
                    DiskHealth::Absent
                };
                OstShard {
                    alloc: GroupedAllocator::new(config.geometry.blocks, config.groups_per_ost),
                    policy: Mutex::new(policy),
                    queues: Mutex::default(),
                    disk: Mutex::new(Disk::with_config(
                        config.geometry.clone(),
                        config.scheduler.clone(),
                        config.data_cache_blocks,
                    )),
                    powered_off: AtomicBool::new(false),
                    health: AtomicU8::new(health as u8),
                    routed_blocks: AtomicU64::new(0),
                    elapsed_ns: AtomicU64::new(0),
                }
            })
            .collect();
        Self {
            shards,
            mds: Mutex::new(Mds::new(config.mds.clone())),
            mds_stripes: (0..MDS_STRIPES).map(|_| Mutex::new(())).collect(),
            files: RwLock::default(),
            delayed_dirty: Mutex::default(),
            next_file: AtomicU64::new(1),
            writeback_blocks: AtomicU64::new(0),
            mds_cpu_ns: AtomicU64::new(0),
            base_elapsed_ns: 0,
            io: SharedDiskStats::default(),
            wal: GroupCommitWal::new(config.wal_slab_records),
            tier: RwLock::default(),
            lifecycle: Mutex::default(),
            contention: ContentionCounters::default(),
            config,
        }
    }

    /// Take the state back from the round driver. Panics on an open round;
    /// dirty write-back is flushed (and charged to the round clock) first.
    /// Round submits bypass the lock-free `io` aggregate, so it is
    /// re-seeded from the disks' own totals.
    pub fn from_engine(mut fs: FileSystem) -> Self {
        assert!(!fs.round_open, "from_engine with an open round");
        fs.sync_data();
        let io = SharedDiskStats::default();
        io.add(&fs.data_stats());
        ConcurrentFs { io, ..fs.fs }
    }

    /// Quiesce: flush all dirty state and hand the whole system to the
    /// single-caller round driver for fsck, defrag, oracle checks or
    /// further serial driving. The busiest shard gated this front-end
    /// phase; its time moves into the base clock and the shards restart at
    /// zero, so the phase is counted once however often the state changes
    /// hands. The caller must hold the only reference (threads joined).
    pub fn into_engine(mut self) -> FileSystem {
        self.sync();
        let busiest = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(s.elapsed_ns.get_mut()));
        self.base_elapsed_ns += busiest.max().unwrap_or(0);
        FileSystem {
            config: self.config.clone(),
            fs: self,
            round_open: false,
        }
    }

    pub(crate) fn slot(&self, file: OpenFile) -> Option<Arc<FileSlot>> {
        let _order = lockorder::acquire(LockClass::FileMap);
        self.files.read().unwrap().get(&file.0).cloned()
    }

    /// Every live file's slot (a snapshot: creates and unlinks after the
    /// map lock drops are not in it).
    pub(crate) fn slots(&self) -> Vec<Arc<FileSlot>> {
        let _order = lockorder::acquire(LockClass::FileMap);
        self.files.read().unwrap().values().cloned().collect()
    }

    /// The namespace stripe guarding `name`: one flat hash space over
    /// the whole table.
    fn stripe_index(&self, name: &str) -> usize {
        Mds::name_stripe(ROOT_INO, name, self.mds_stripes.len())
    }

    fn stripe_guard(&self, name: &str) -> (lockorder::LockToken, std::sync::MutexGuard<'_, ()>) {
        let idx = self.stripe_index(name);
        let token = lockorder::acquire_indexed(LockClass::MdsStripe, idx);
        (token, self.mds_stripes[idx].lock().unwrap())
    }

    // ----- lifecycle ------------------------------------------------------

    /// Create a file under the root directory (see [`FileSystem::create`]).
    /// The file stripes over the bays currently accepting placements —
    /// draining, rebuilding, failed and absent bays are excluded from its
    /// `ost_map` for life.
    pub fn create(&self, name: &str, size_hint_blocks: Option<u64>) -> OpenFile {
        let id = FileId(self.next_file.fetch_add(1, Ordering::Relaxed));
        let ost_map = self.active_osts();
        assert!(
            !ost_map.is_empty(),
            "create with no OST accepting placements"
        );
        let width = ost_map.len();
        let per_ost_hint = size_hint_blocks.map(|s| s.div_ceil(width as u64));
        let _stripe = self.stripe_guard(name);
        let ino = {
            let _order = lockorder::acquire(LockClass::MdsJournal);
            self.mds.lock().unwrap().create(ROOT_INO, name, 0)
        };
        for &phys in &ost_map {
            let shard = &self.shards[phys as usize];
            let _order = lockorder::acquire(LockClass::Policy);
            shard
                .policy
                .lock()
                .unwrap()
                .create(&shard.alloc, id, per_ost_hint);
        }
        let mut trees: Vec<ExtentTree> = (0..width).map(|_| ExtentTree::new()).collect();
        // fallocate semantics, as in the engine: static preallocation maps
        // the whole hinted range up front.
        if self.config.policy == PolicyKind::Static {
            if let Some(hint) = per_ost_hint {
                let stream = StreamId::new(u32::MAX, u32::MAX);
                for (&phys, tree) in ost_map.iter().zip(&mut trees) {
                    let shard = &self.shards[phys as usize];
                    let _order = lockorder::acquire(LockClass::Policy);
                    let mut policy = shard.policy.lock().unwrap();
                    let mut logical = 0;
                    for (phys, l) in policy.extend(&shard.alloc, id, stream, 0, hint) {
                        tree.insert(Extent::new(logical, phys, l));
                        logical += l;
                    }
                }
            }
        }
        let slot = Arc::new(FileSlot {
            id,
            ost_shift: (id.0 % width as u64) as u32,
            ost_map,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            inner: Mutex::new(FileInner {
                name: name.to_string(),
                ino,
                trees,
                size_blocks: 0,
                open_handles: 1,
                delayed: vec![Vec::new(); width],
                windows: vec![IdMap::default(); width],
            }),
        });
        {
            let _order = lockorder::acquire(LockClass::FileMap);
            self.files.write().unwrap().insert(id, slot);
        }
        OpenFile(id)
    }

    /// Open by name (aggregated open-getlayout, as in the engine).
    pub fn open(&self, name: &str) -> Option<OpenFile> {
        let _stripe = self.stripe_guard(name);
        let slot = {
            let _order = lockorder::acquire(LockClass::FileMap);
            self.files
                .read()
                .unwrap()
                .values()
                .find(|s| {
                    let _f = lockorder::acquire(LockClass::File);
                    let hit = s.inner.lock().unwrap().name == name;
                    hit
                })
                .cloned()
        }?;
        {
            let _order = lockorder::acquire(LockClass::MdsJournal);
            self.mds.lock().unwrap().getlayout(ROOT_INO, name);
        }
        let _order = lockorder::acquire(LockClass::File);
        slot.inner.lock().unwrap().open_handles += 1;
        Some(OpenFile(slot.id))
    }

    /// Close one handle; the last close finalizes policy windows on every
    /// OST (see [`FileSystem::close`]). A concurrent reopen racing the
    /// last close is the caller's serialization duty, exactly as with
    /// POSIX file descriptors.
    pub fn close(&self, file: OpenFile) {
        let Some(slot) = self.slot(file) else {
            return;
        };
        let last = {
            let _order = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            inner.open_handles = inner.open_handles.saturating_sub(1);
            inner.open_handles == 0
        };
        if last {
            for shard in &self.shards {
                let _order = lockorder::acquire(LockClass::Policy);
                shard.policy.lock().unwrap().finalize(&shard.alloc, file.0);
            }
            // `finalize` closed every window, so the cached handles can
            // only refuse claims from here on: drop them. A writer after a
            // reopen re-primes through the policy, as it would on a refusal.
            let _order = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            inner.windows.iter_mut().for_each(IdMap::clear);
        }
    }

    /// Live handles on `file` (0 after the last close or for unknown ids).
    pub fn open_handle_count(&self, file: OpenFile) -> u32 {
        let Some(slot) = self.slot(file) else {
            return 0;
        };
        let _order = lockorder::acquire(LockClass::File);
        let n = slot.inner.lock().unwrap().open_handles;
        n
    }

    /// Does any OST's policy still hold a live preallocation window for
    /// `file`? (The defrag scheduler's skip check.)
    pub fn has_live_preallocation(&self, file: OpenFile) -> bool {
        self.shards.iter().any(|shard| {
            let _order = lockorder::acquire(LockClass::Policy);
            let held = shard.policy.lock().unwrap().has_reservation(file.0);
            held
        })
    }

    /// Delete: flush, drop the namespace entry, free every block (see
    /// [`FileSystem::unlink`]). Concurrent writers to the dying file are
    /// the caller's serialization duty.
    pub fn unlink(&self, file: OpenFile) {
        self.sync();
        let Some(slot) = self.slot(file) else {
            return;
        };
        // Guard the stripe of the file's *current* name; a rename racing us
        // can move the name to another stripe between the read and the
        // guard, so re-validate under the guard and chase it.
        let (name, _stripe) = loop {
            let name = {
                let _f = lockorder::acquire(LockClass::File);
                let n = slot.inner.lock().unwrap().name.clone();
                n
            };
            let stripe = self.stripe_guard(&name);
            let unchanged = {
                let _f = lockorder::acquire(LockClass::File);
                let same = slot.inner.lock().unwrap().name == name;
                same
            };
            if unchanged {
                break (name, stripe);
            }
        };
        drop(slot);
        let slot = {
            let _order = lockorder::acquire(LockClass::FileMap);
            self.files.write().unwrap().remove(&file.0)
        };
        let Some(slot) = slot else {
            return; // lost the race to another unlink
        };
        {
            let _order = lockorder::acquire(LockClass::MdsJournal);
            self.mds.lock().unwrap().unlink(ROOT_INO, &name);
        }
        for shard in &self.shards {
            let _order = lockorder::acquire(LockClass::Policy);
            shard.policy.lock().unwrap().finalize(&shard.alloc, file.0);
        }
        {
            let _order = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            for (col, tree) in inner.trees.iter_mut().enumerate() {
                let shard = &self.shards[slot.phys(col)];
                for (phys, len) in tree.clear() {
                    shard.alloc.free(phys, len);
                    let _disk = lockorder::acquire(LockClass::Disk);
                    self.contention.disk_locks.fetch_add(1, Ordering::Relaxed);
                    shard.disk.lock().unwrap().invalidate(phys, len);
                }
            }
        }
        // Derived redundancy dies with the primary (see the engine's
        // `unlink`): free every replica/parity run, then forget them.
        let _order = lockorder::acquire(LockClass::Tier);
        let mut tier = self.tier.write().unwrap();
        for run in tier.runs_of_file(file.0 .0) {
            let shard = &self.shards[run.ost as usize];
            shard.alloc.free(run.phys, run.len);
            let _disk = lockorder::acquire(LockClass::Disk);
            self.contention.disk_locks.fetch_add(1, Ordering::Relaxed);
            shard.disk.lock().unwrap().invalidate(run.phys, run.len);
        }
        tier.drop_file(file.0 .0);
    }

    /// Rename an open file to `new_name` under the root. Returns the
    /// file's (possibly new) inode number, or `None` for an unknown file.
    ///
    /// Concurrency shape: both affected namespace stripes are held at once
    /// — acquired in ascending stripe-index order through
    /// [`mif_alloc::lockorder::acquire_indexed`], the same
    /// ascending-instance discipline the sharded MDS's cross-shard
    /// coordinator uses on its operation heads — so two opposing renames
    /// (`a→b` racing `b→a`) cannot deadlock, and create/open/unlink on
    /// either name serialize against the move. The source stripe is
    /// re-validated after acquisition: a concurrent rename may have moved
    /// the file to a name in a different stripe, in which case we chase it.
    pub fn rename_file(&self, file: OpenFile, new_name: &str) -> Option<InodeNo> {
        let slot = self.slot(file)?;
        loop {
            let old = {
                let _f = lockorder::acquire(LockClass::File);
                let n = slot.inner.lock().unwrap().name.clone();
                n
            };
            if old == new_name {
                let _f = lockorder::acquire(LockClass::File);
                let ino = slot.inner.lock().unwrap().ino;
                return Some(ino);
            }
            let (src, dst) = (self.stripe_index(&old), self.stripe_index(new_name));
            let (lo, hi) = (src.min(dst), src.max(dst));
            let _t_lo = lockorder::acquire_indexed(LockClass::MdsStripe, lo);
            let _g_lo = self.mds_stripes[lo].lock().unwrap();
            let mut _t_hi = None;
            let mut _g_hi = None;
            if hi != lo {
                _t_hi = Some(lockorder::acquire_indexed(LockClass::MdsStripe, hi));
                _g_hi = Some(self.mds_stripes[hi].lock().unwrap());
            }
            let unchanged = {
                let _f = lockorder::acquire(LockClass::File);
                let same = slot.inner.lock().unwrap().name == old;
                same
            };
            if !unchanged {
                continue; // lost a race to another rename; re-route
            }
            // Both stripes held and the source name validated: any other
            // rename of this file would need the `old` stripe we hold, so
            // the name is pinned from here on.
            let ino = {
                let _order = lockorder::acquire(LockClass::MdsJournal);
                let ino = self
                    .mds
                    .lock()
                    .unwrap()
                    .rename(ROOT_INO, &old, ROOT_INO, new_name);
                ino
            }?;
            let _f = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            inner.name = new_name.to_string();
            inner.ino = ino;
            return Some(ino);
        }
    }

    // ----- data path ------------------------------------------------------

    /// Write `len` blocks at `offset` on behalf of `stream`; allocation
    /// runs under the sharded locks, data buffers in the per-OST
    /// write-back queues (flushed past the watermark or at [`sync`]).
    ///
    /// [`sync`]: ConcurrentFs::sync
    pub fn write(&self, file: OpenFile, stream: StreamId, offset: u64, len: u64) {
        expect_no_fault(self.try_write(file, stream, offset, len));
    }

    /// Fallible [`ConcurrentFs::write`]: a dead (powered-off) server fails
    /// the buffering immediately; other faults surface at flush time.
    pub fn try_write(
        &self,
        file: OpenFile,
        stream: StreamId,
        offset: u64,
        len: u64,
    ) -> Result<(), (usize, IoFault)> {
        self.try_write_journaled(file, stream, offset, len)
            .map(|_seq| ())
    }

    /// [`ConcurrentFs::try_write`] that also returns the WAL seqno of the
    /// write's durable-intent record. This is the `mif-server` entry
    /// point: the service layer stages many client writes, then gates the
    /// whole batch's acks on one [`wal_commit`] of the highest seqno —
    /// ack-implies-durable at group-commit cost.
    ///
    /// [`wal_commit`]: ConcurrentFs::wal_commit
    pub fn try_write_journaled(
        &self,
        file: OpenFile,
        stream: StreamId,
        offset: u64,
        len: u64,
    ) -> Result<u64, (usize, IoFault)> {
        self.place_write(file, stream, offset, len)?;
        // Journal the write's durable intent. Staging is lock-free; the
        // record rides the next merged flush (a sync acknowledges it).
        let commit = WriteCommit {
            file: file.0 .0,
            stream: stream.as_u64(),
            offset,
            len,
        };
        let seq = self.wal.append(|seq| encode_write_record(seq, &commit));
        if self.writeback_blocks.load(Ordering::Relaxed) >= self.config.writeback_limit_blocks {
            self.try_flush()?;
        }
        Ok(seq)
    }

    /// Everything a write does to the shared state, short of journaling
    /// and flushing it — the part both schedules run: liveness and health
    /// checks, allocation under the file's lock, write-back queuing, tier
    /// invalidation. A round is [`FileSystem::try_write`] calling this and
    /// deciding itself when the queues are submitted.
    ///
    /// Inlined into both callers: as a call, `eng_shared_file` `ops_per_s`
    /// read 0.7–2.6 % lower in 6 of 6 pairs (EXPERIMENTS.md "PR 21").
    #[inline(always)]
    pub(crate) fn place_write(
        &self,
        file: OpenFile,
        stream: StreamId,
        offset: u64,
        len: u64,
    ) -> Result<(), (usize, IoFault)> {
        assert!(len > 0, "zero-length write");
        self.contention.write_ops.fetch_add(1, Ordering::Relaxed);
        // Lock-free liveness check against the atomic mirror; only a hit
        // (dead server — the cold path) touches a disk lock to fetch the
        // fault counter.
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.powered_off.load(Ordering::Acquire) {
                return Err((i, self.power_cut_fault(i)));
            }
        }
        let slot = self.slot(file).expect("write to unknown file");
        slot.writes.fetch_add(1, Ordering::Relaxed);
        // The write's pieces, cut once for the three walks below. The
        // first lives on the stack and collecting no others allocates
        // nothing, so a write inside one stripe unit stays off the heap.
        let mut rest = slot
            .striping(self.config.stripe_blocks)
            .pieces(offset, len, slot.ost_shift);
        let first = [rest.next().expect("len > 0")];
        let rest: Vec<Piece> = rest.collect();
        let pieces = || first.iter().chain(&rest).copied();
        // A write cannot land on a dead disk; a replaced-but-rebuilding
        // (or draining) one accepts fresh data to columns it already hosts.
        for (col, ..) in pieces() {
            let phys = slot.phys(col as usize);
            if self.ost_health(phys) == DiskHealth::Failed {
                return Err((phys, IoFault::DiskFailed));
            }
        }
        {
            let _order = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            self.write_locked(&slot, &mut inner, stream, pieces(), offset + len);
        }
        // The content changed: any replica or stripe group derived from
        // the written spans is stale. Cheap lock-free-ish check first —
        // the write lock is only taken when something actually overlaps.
        {
            let _order = lockorder::acquire(LockClass::Tier);
            let overlaps = {
                let tier = self.tier.read().unwrap();
                !tier.is_empty()
                    && pieces().any(|(col, local, run, _)| {
                        tier.has_valid_overlap(file.0 .0, col, local, run)
                    })
            };
            if overlaps {
                let mut tier = self.tier.write().unwrap();
                for (col, local, run, _) in pieces() {
                    tier.invalidate_overlap(file.0 .0, col, local, run);
                }
            }
        }
        Ok(())
    }

    /// Build the power-cut fault report for a dead shard (cold path).
    fn power_cut_fault(&self, ost: usize) -> IoFault {
        let after_writes = self.fault_stats(ost).map_or(0, |s| s.writes_seen);
        IoFault::PowerCut { after_writes }
    }

    /// The write hot path, under this file's lock: delayed buffering, CoW relocation, hole allocation
    /// through the policy, then write-back queuing. The policy lock is
    /// scoped to the `extend` call — never held across queue or disk work.
    /// `pieces` are the write's per-OST pieces, `file_end` its last file
    /// block + 1.
    fn write_locked(
        &self,
        slot: &FileSlot,
        inner: &mut FileInner,
        stream: StreamId,
        pieces: impl Iterator<Item = Piece>,
        file_end: u64,
    ) {
        let FileInner {
            trees,
            delayed,
            windows,
            ..
        } = inner;
        let buffer = self.config.policy == PolicyKind::Delayed;
        for (col, local, run, _) in pieces {
            let col = col as usize;
            let phys = slot.phys(col);
            let shard = &self.shards[phys];
            let tree = &mut trees[col];

            if buffer {
                let mut buffered = 0u64;
                for (gap_start, gap_len) in tree.gaps(local, run) {
                    delayed[col].push((gap_start, gap_len));
                    buffered += gap_len;
                }
                if buffered > 0 {
                    self.writeback_blocks.fetch_add(buffered, Ordering::Relaxed);
                    let _order = lockorder::acquire(LockClass::OstQueue);
                    self.delayed_dirty.lock().unwrap().insert(slot.id);
                }
                self.queue_writes(phys, |push| tree.resolve_with(local, run, push));
                continue;
            }

            if self.config.policy == PolicyKind::Cow {
                for (old_phys, old_len) in tree.remove(local, run) {
                    shard.alloc.free(old_phys, old_len);
                    let _order = lockorder::acquire(LockClass::Disk);
                    self.contention.disk_locks.fetch_add(1, Ordering::Relaxed);
                    shard.disk.lock().unwrap().invalidate(old_phys, old_len);
                }
            }

            // The map is written after the walk, and only if the slow path
            // re-primed the window (`Some(None)`: the policy holds none for
            // this stream).
            let cached = windows[col].get(&stream);
            let mut reprimed: Option<Option<Arc<BumpWindow>>> = None;
            // Holes are found one at a time because each is mapped before
            // the next is looked for.
            let mut pos = local;
            while let Some((gap_start, gap_len)) = tree.next_gap(pos, local + run) {
                let before = tree.extent_count();
                let mut logical = gap_start;
                let end = gap_start + gap_len;
                pos = end;
                while logical < end {
                    // Fast path: bump-claim from the cached window with one
                    // CAS — no policy lock. Consumption and the claim
                    // counter go through the same shared window the policy
                    // sees, so its trigger decisions are unchanged.
                    let window = match &reprimed {
                        Some(fresh) => fresh.as_ref(),
                        None => cached,
                    };
                    if let Some((phys, l)) = window.and_then(|w| w.claim(logical, end - logical)) {
                        self.contention
                            .lockfree_claims
                            .fetch_add(1, Ordering::Relaxed);
                        tree.insert(Extent::new(logical, phys, l));
                        logical += l;
                        continue;
                    }
                    // Slow path: the policy reserves fresh windows under
                    // its mutex; re-prime the cache with the new current
                    // window before the next iteration.
                    let runs = {
                        let _order = lockorder::acquire(LockClass::Policy);
                        let mut policy = shard.policy.lock().unwrap();
                        self.contention
                            .policy_extends
                            .fetch_add(1, Ordering::Relaxed);
                        let runs =
                            policy.extend(&shard.alloc, slot.id, stream, logical, end - logical);
                        reprimed = Some(policy.stream_window(slot.id, stream));
                        runs
                    };
                    for (phys, l) in runs {
                        tree.insert(Extent::new(logical, phys, l));
                        logical += l;
                    }
                    debug_assert_eq!(logical, end, "policy short-allocated");
                }
                let added = tree.extent_count().saturating_sub(before) as u64;
                self.mds_cpu_ns
                    .fetch_add(added * MDS_CPU_NS_PER_EXTENT, Ordering::Relaxed);
            }
            match reprimed {
                Some(Some(w)) => {
                    windows[col].insert(stream, w);
                }
                Some(None) => {
                    windows[col].remove(&stream);
                }
                None => {}
            }
            self.queue_writes(phys, |push| tree.resolve_with(local, run, push));
        }
        inner.size_blocks = inner.size_blocks.max(file_end);
    }

    /// Queue physical runs as dirty write-back data under one hold of the
    /// shard's queue lock; `runs` hands each `(phys, len)` to the sink it
    /// is given (lock order File → OstQueue when it walks an extent tree).
    fn queue_writes(&self, ost_idx: usize, runs: impl FnOnce(&mut dyn FnMut(u64, u64))) {
        let mut blocks = 0u64;
        {
            let _order = lockorder::acquire(LockClass::OstQueue);
            let mut queues = self.shards[ost_idx].queues.lock().unwrap();
            runs(&mut |phys, l| {
                queues.writeback.push(BlockRequest::write(phys, l));
                blocks += l;
            });
        }
        self.writeback_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Read `len` blocks at `offset` as `stream`; requests carry the same
    /// per-(stream, file) readahead context as the engine and are serviced
    /// at the next flush. Panics on an unservable read of a dead shard —
    /// see [`ConcurrentFs::try_read`].
    pub fn read(&self, file: OpenFile, stream: StreamId, offset: u64, len: u64) {
        expect_no_fault(self.try_read(file, stream, offset, len));
    }

    /// Fallible [`ConcurrentFs::read`], tier-aware:
    ///
    /// * healthy shard with valid replicas covering a piece → the piece is
    ///   routed to the least-loaded copy (primary included) — the hot-read
    ///   fan-out;
    /// * failed shard → the piece *must* be served degraded, from a
    ///   covering replica or by reading [`crate::tier::STRIPE_DATA`]
    ///   surviving runs of its stripe group; an uncovered piece fails with
    ///   [`IoFault::DiskFailed`];
    /// * replaced-but-rebuilding shard → degraded routing where coverage
    ///   exists, direct reads otherwise (fresh data written after the
    ///   swap lives on the new disk).
    pub fn try_read(
        &self,
        file: OpenFile,
        stream: StreamId,
        offset: u64,
        len: u64,
    ) -> Result<(), (usize, IoFault)> {
        let ctx = stream.as_u64() ^ file.0 .0.rotate_left(17);
        let slot = self.slot(file).expect("read from unknown file");
        slot.reads.fetch_add(1, Ordering::Relaxed);
        let striping = slot.striping(self.config.stripe_blocks);
        let _tier_order = lockorder::acquire(LockClass::Tier);
        let tier = self.tier.read().unwrap();
        let _order = lockorder::acquire(LockClass::File);
        let inner = slot.inner.lock().unwrap();
        for (col, local, run, _) in striping.pieces(offset, len, slot.ost_shift) {
            let col = col as usize;
            let phys_ost = slot.phys(col);
            let shard = &self.shards[phys_ost];
            let health = self.ost_health(phys_ost);
            let failed = health == DiskHealth::Failed;
            let degraded = health.degraded();
            if degraded {
                match tier.degraded_source(
                    file.0 .0,
                    col as u32,
                    local,
                    run,
                    |c| slot.ost_map[c as usize],
                    |o| self.ost_healthy(o),
                ) {
                    Some(DegradedSource::Replica { ost, phys, len }) => {
                        self.queue_read(ost as usize, phys, len, ctx);
                        continue;
                    }
                    Some(DegradedSource::Stripe { unit, reads, .. }) => {
                        for (rost, start, parity) in reads {
                            if parity {
                                // Parity runs live at physical addresses.
                                self.queue_read(rost as usize, start, unit, ctx);
                            } else {
                                // A surviving data member (a stripe column
                                // of this same file): its extents resolve
                                // under this lock; the IO goes to the bay
                                // hosting that column.
                                inner.trees[rost as usize].resolve_with(start, unit, |phys, l| {
                                    self.queue_read(slot.phys(rost as usize), phys, l, ctx)
                                });
                            }
                        }
                        continue;
                    }
                    None if failed => return Err((phys_ost, IoFault::DiskFailed)),
                    None => {} // rebuilding: direct read below
                }
            }
            let tree = &inner.trees[col];
            if !degraded {
                // Hot-read fan-out: route the whole piece to the
                // least-loaded valid copy, primary included.
                let replicas = tier
                    .replicas_covering(file.0 .0, col as u32, local, run, |o| self.ost_healthy(o));
                let mut best: Option<(&crate::tier::ReplicaRun, u64)> = None;
                for r in replicas {
                    let load = self.shards[r.dst_ost as usize]
                        .routed_blocks
                        .load(Ordering::Relaxed);
                    if best.as_ref().is_none_or(|&(_, b)| load < b) {
                        best = Some((r, load));
                    }
                }
                let primary_load = shard.routed_blocks.load(Ordering::Relaxed);
                if let Some((r, _)) = best.filter(|&(_, load)| load < primary_load) {
                    // A piece with nothing mapped is a hole: no read at all.
                    let mut mapped = false;
                    tree.resolve_with(local, run, |_, _| mapped = true);
                    if mapped {
                        let phys = r.dst_phys + (local - r.logical);
                        self.queue_read(r.dst_ost as usize, phys, run, ctx);
                    }
                    continue;
                }
            }
            tree.resolve_with(local, run, |phys, l| {
                self.queue_read(phys_ost, phys, l, ctx)
            });
        }
        Ok(())
    }

    /// Queue one read request on a shard, charging the routed-load signal
    /// the fan-out uses.
    fn queue_read(&self, ost_idx: usize, phys: u64, len: u64, ctx: u64) {
        self.shards[ost_idx]
            .routed_blocks
            .fetch_add(len, Ordering::Relaxed);
        let _order = lockorder::acquire(LockClass::OstQueue);
        self.shards[ost_idx]
            .queues
            .lock()
            .unwrap()
            .pending
            .push(BlockRequest::read(phys, len).with_ctx(ctx));
    }

    /// Can `ost` (a physical bay) serve redundancy reads right now?
    /// A draining bay still serves its data; a failed, rebuilding or
    /// absent one cannot back a degraded read, and neither can a
    /// powered-off server.
    fn ost_healthy(&self, ost: u32) -> bool {
        let s = &self.shards[ost as usize];
        let h = DiskHealth::from_u8(s.health.load(Ordering::Acquire));
        h.serves_io() && !h.degraded() && !s.powered_off.load(Ordering::Acquire)
    }

    // ----- flushing -------------------------------------------------------

    /// Flush all queued IO to the disks (fsync analogue).
    pub fn sync(&self) {
        expect_no_fault(self.try_sync());
    }

    /// Fallible [`ConcurrentFs::sync`]: the first fault is reported with
    /// its OST index; the surviving shards' IO has been serviced.
    pub fn try_sync(&self) -> Result<(), (usize, IoFault)> {
        self.try_flush()
    }

    /// Drain every shard's queues into its disk. Batches are taken under
    /// the queue lock, then submitted under the disk lock only — writes
    /// buffered by other threads during the flush simply wait for the
    /// next one.
    fn try_flush(&self) -> Result<(), (usize, IoFault)> {
        // Journal before data: every staged intent record becomes durable
        // in (at most) one merged flush before the write-back batches go
        // out. This is the group-commit coalescing point.
        self.wal.commit_all();
        self.allocate_delayed();
        self.writeback_blocks.store(0, Ordering::Relaxed);
        let mut first_fault = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let batch = {
                let _order = lockorder::acquire(LockClass::OstQueue);
                let mut queues = shard.queues.lock().unwrap();
                let mut batch = std::mem::take(&mut queues.pending);
                batch.append(&mut queues.writeback);
                batch
            };
            if batch.is_empty() {
                continue;
            }
            // One disk-lock hold drains the whole queue: a single merged
            // elevator pass through the disk, not one acquisition per
            // buffered write.
            self.contention
                .writeback_batches
                .fetch_add(1, Ordering::Relaxed);
            self.contention
                .writeback_requests
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if let Err(fault) = self.submit_direct(i, batch) {
                first_fault.get_or_insert(fault);
            }
        }
        first_fault.map_or(Ok(()), Err)
    }

    /// Allocate everything the delayed-allocation path has buffered
    /// (sorted, coalesced, one request per run — §II-B).
    pub(crate) fn allocate_delayed(&self) {
        let dirty: Vec<FileId> = {
            let _order = lockorder::acquire(LockClass::OstQueue);
            let mut dirty = self.delayed_dirty.lock().unwrap();
            dirty.drain().collect()
        };
        if dirty.is_empty() {
            return;
        }
        let stream = StreamId::new(u32::MAX, 0); // allocation is flush-driven
        for id in dirty {
            let slot = {
                let _order = lockorder::acquire(LockClass::FileMap);
                self.files.read().unwrap().get(&id).cloned()
            };
            let Some(slot) = slot else {
                continue; // unlinked while dirty
            };
            let _order = lockorder::acquire(LockClass::File);
            let mut inner = slot.inner.lock().unwrap();
            for col in 0..inner.delayed.len() {
                let mut ranges = std::mem::take(&mut inner.delayed[col]);
                if ranges.is_empty() {
                    continue;
                }
                ranges.sort_unstable();
                let mut runs: Vec<(u64, u64)> = Vec::new();
                for (start, len) in ranges {
                    match runs.last_mut() {
                        Some((s, l)) if *s + *l >= start => {
                            let end = (*s + *l).max(start + len);
                            *l = end - *s;
                        }
                        _ => runs.push((start, len)),
                    }
                }
                let phys_ost = slot.phys(col);
                let shard = &self.shards[phys_ost];
                for (start, len) in runs {
                    for (gap_start, gap_len) in inner.trees[col].gaps(start, len) {
                        let allocated = {
                            let _order = lockorder::acquire(LockClass::Policy);
                            let mut policy = shard.policy.lock().unwrap();
                            policy.extend(&shard.alloc, id, stream, gap_start, gap_len)
                        };
                        let tree = &mut inner.trees[col];
                        let before = tree.extent_count();
                        let mut logical = gap_start;
                        for &(phys, l) in &allocated {
                            tree.insert(Extent::new(logical, phys, l));
                            logical += l;
                        }
                        let added = tree.extent_count().saturating_sub(before) as u64;
                        self.mds_cpu_ns
                            .fetch_add(added * MDS_CPU_NS_PER_EXTENT, Ordering::Relaxed);
                        self.queue_writes(phys_ost, |push| {
                            allocated.iter().for_each(|&(phys, l)| push(phys, l))
                        });
                    }
                }
            }
        }
    }

    // ----- fault injection ------------------------------------------------

    /// Run `f` on one IO server's disk under its lock, then refresh the
    /// lock-free power mirror (whatever `f` did may have changed it).
    fn with_disk<R>(&self, ost: usize, f: impl FnOnce(&mut Disk) -> R) -> R {
        let shard = &self.shards[ost];
        let _order = lockorder::acquire(LockClass::Disk);
        self.contention.disk_locks.fetch_add(1, Ordering::Relaxed);
        let mut disk = shard.disk.lock().unwrap();
        let r = f(&mut disk);
        shard
            .powered_off
            .store(disk.powered_off(), Ordering::Release);
        r
    }

    /// Install a seeded fault plan on every IO server, reseeded per disk
    /// (`seed + index`) so servers fault independently but the whole
    /// population replays from one `u64`. Use the `try_*` entry points
    /// afterwards — the infallible ones panic when a fault fires.
    pub fn install_faults(&self, plan: FaultPlan) {
        for i in 0..self.shards.len() {
            let mut p = plan.clone();
            p.seed = plan.seed.wrapping_add(i as u64);
            self.with_disk(i, |disk| disk.install_faults(p));
        }
    }

    /// Remove all fault injectors.
    pub fn clear_faults(&self) {
        (0..self.shards.len()).for_each(|i| self.with_disk(i, Disk::clear_faults));
    }

    /// Restore power to every IO server after injected power cuts (their
    /// volatile caches are lost).
    pub fn power_restore(&self) {
        (0..self.shards.len()).for_each(|i| self.with_disk(i, Disk::power_restore));
    }

    /// Is any IO server dead from an injected power cut?
    pub fn any_powered_off(&self) -> bool {
        (0..self.shards.len()).any(|i| self.with_disk(i, |disk| disk.powered_off()))
    }

    /// One IO server's fault counters, when a plan is installed.
    pub fn fault_stats(&self, ost: usize) -> Option<FaultStats> {
        self.with_disk(ost, |disk| disk.fault_stats().cloned())
    }

    // ----- disk population lifecycle (health machine) ---------------------

    /// This bay's current health (lock-free mirror read).
    pub fn ost_health(&self, ost: usize) -> DiskHealth {
        DiskHealth::from_u8(self.shards[ost].health.load(Ordering::Acquire))
    }

    /// Every bay's health, indexed by physical OST.
    pub fn ost_healths(&self) -> Vec<DiskHealth> {
        (0..self.shards.len()).map(|i| self.ost_health(i)).collect()
    }

    /// Total disk bays (active + spare), the shard count.
    pub fn total_osts(&self) -> usize {
        self.shards.len()
    }

    /// Physical OSTs currently accepting new placements.
    pub fn active_osts(&self) -> Vec<u32> {
        (0..self.shards.len() as u32)
            .filter(|&i| self.ost_health(i as usize).accepts_placements())
            .collect()
    }

    /// Panics unless the bay's health machine allows the jump to `to`
    /// (e.g. `Absent → Draining` is not one) — lifecycle bugs must not be
    /// silently absorbed, and must be caught before the device is touched.
    fn check_health(&self, ost: usize, to: DiskHealth) {
        let from = self.ost_health(ost);
        assert!(
            from.can_transition(to),
            "illegal OST {ost} health transition {from} -> {to}"
        );
    }

    /// Drive one bay through a validated health transition.
    pub(crate) fn set_ost_health(&self, ost: usize, to: DiskHealth) {
        self.check_health(ost, to);
        self.shards[ost].health.store(to as u8, Ordering::Release);
    }

    /// Kill one IO server's disk outright ([`Disk::fail`]): every request
    /// fails until the drive is swapped. Queued IO toward the dead disk is
    /// discarded — it died with the device, like dirty pages toward a
    /// failed drive. Reads of its data are served degraded (replica /
    /// parity) where the tier map has coverage; writes touching it fail
    /// with [`IoFault::DiskFailed`]. The bay enters `Failed` from any
    /// populated state — disks die mid-drain and mid-rebuild too.
    pub fn fail_ost(&self, ost: usize) {
        self.check_health(ost, DiskHealth::Failed);
        {
            let _order = lockorder::acquire(LockClass::OstQueue);
            let mut queues = self.shards[ost].queues.lock().unwrap();
            queues.pending.clear();
            queues.writeback.clear();
        }
        self.with_disk(ost, Disk::fail);
        self.set_ost_health(ost, DiskHealth::Failed);
    }

    /// Populate an empty expansion bay with a blank drive: the bay turns
    /// `Healthy` and every *subsequent* create stripes over it. Existing
    /// files keep their width; rebalancing onto the new bay is the drain/
    /// defrag machinery's job, not placement's.
    pub fn add_ost(&self, ost: usize) {
        self.check_health(ost, DiskHealth::Healthy);
        self.with_disk(ost, Disk::replace);
        self.set_ost_health(ost, DiskHealth::Healthy);
        self.lifecycle.lock().unwrap().osts_added += 1;
    }

    /// Swap in a blank replacement drive ([`Disk::replace`]: fresh
    /// platters, empty cache, no latent damage): the bay moves
    /// `Failed → Rebuilding` — it accepts IO again (fresh writes land on
    /// the new media), but reads keep routing to redundancy where coverage
    /// exists until a rebuild ([`ConcurrentFs::rebuild_ost`], or the tier
    /// engine under rounds) completes.
    pub fn begin_rebuild(&self, ost: usize) {
        self.check_health(ost, DiskHealth::Rebuilding);
        self.with_disk(ost, Disk::replace);
        self.set_ost_health(ost, DiskHealth::Rebuilding);
    }

    /// Background-rebuild the replaced disk under live traffic: rewrite
    /// every lost run *at its original physical address* from replicas or
    /// stripe parity, one file at a time (writers to other files — and to
    /// this one, between files — interleave freely), then rebuild the tier
    /// runs housed here (replica copies re-copied from their primaries,
    /// parity re-encoded from its members) and clear the degraded flag.
    ///
    /// Returns `(rebuilt, uncovered)` block counts; `uncovered` spans had
    /// no redundancy (including data written after the swap, which is
    /// already on the new media and needs no rebuild).
    pub fn rebuild_ost(&self, ost: usize) -> Result<(u64, u64), (usize, IoFault)> {
        assert!(
            self.ost_health(ost) == DiskHealth::Rebuilding,
            "bay is not rebuilding (begin_rebuild first)"
        );
        let slots = self.slots();
        let mut rebuilt = 0u64;
        let mut uncovered = 0u64;
        for slot in &slots {
            let _tier_order = lockorder::acquire(LockClass::Tier);
            let tier = self.tier.read().unwrap();
            let _order = lockorder::acquire(LockClass::File);
            let inner = slot.inner.lock().unwrap();
            // Every stripe column this bay hosts for the file (at most one
            // today, but the map makes plurality possible after drains).
            for col in (0..inner.trees.len()).filter(|&c| slot.phys(c) == ost) {
                let extents: Vec<(u64, u64, u64)> = inner.trees[col]
                    .extents()
                    .map(|e| (e.logical, e.physical, e.len))
                    .collect();
                for (logical, phys, len) in extents {
                    // Piecewise: an aged extent outgrows any one replica
                    // run, so coverage is consumed sub-span by sub-span.
                    for (start, sublen, source) in tier.degraded_sources(
                        slot.id.0,
                        col as u32,
                        logical,
                        len,
                        |c| slot.ost_map[c as usize],
                        |o| self.ost_healthy(o),
                    ) {
                        let sub_phys = phys + (start - logical);
                        match source {
                            Some(DegradedSource::Replica {
                                ost: rost,
                                phys: rphys,
                                len: rlen,
                            }) => {
                                self.submit_direct(
                                    rost as usize,
                                    vec![BlockRequest::read(rphys, rlen)],
                                )?;
                                self.submit_direct(
                                    ost,
                                    vec![BlockRequest::write(sub_phys, sublen)],
                                )?;
                                rebuilt += sublen;
                            }
                            Some(DegradedSource::Stripe { unit, reads, .. }) => {
                                for (rost, rstart, parity) in reads {
                                    if parity {
                                        self.submit_direct(
                                            rost as usize,
                                            vec![BlockRequest::read(rstart, unit)],
                                        )?;
                                    } else {
                                        let batch: Vec<BlockRequest> = inner.trees[rost as usize]
                                            .resolve(rstart, unit)
                                            .into_iter()
                                            .map(|(p, l)| BlockRequest::read(p, l))
                                            .collect();
                                        self.submit_direct(slot.phys(rost as usize), batch)?;
                                    }
                                }
                                self.submit_direct(
                                    ost,
                                    vec![BlockRequest::write(sub_phys, sublen)],
                                )?;
                                rebuilt += sublen;
                            }
                            None => uncovered += sublen,
                        }
                    }
                }
            }
        }
        // The tier runs housed on this disk: replica copies and parity.
        let tier_runs = {
            let _order = lockorder::acquire(LockClass::Tier);
            self.tier.read().unwrap().runs_on_ost(ost as u32)
        };
        for run in tier_runs {
            let slot = {
                let _order = lockorder::acquire(LockClass::FileMap);
                self.files.read().unwrap().get(&FileId(run.file)).cloned()
            };
            let Some(slot) = slot else {
                continue; // unlinked since the snapshot
            };
            let _tier_order = lockorder::acquire(LockClass::Tier);
            let tier = self.tier.read().unwrap();
            let _order = lockorder::acquire(LockClass::File);
            let inner = slot.inner.lock().unwrap();
            if run.parity {
                let group = tier.groups().iter().find(|g| {
                    g.file == run.file
                        && g.parity
                            .iter()
                            .any(|&(o, p)| o as usize == ost && p == run.phys)
                });
                let Some(g) = group else { continue };
                // Members are stripe columns of the file; read each from
                // the bay hosting that column.
                for &(most, mstart) in &g.members {
                    let batch: Vec<BlockRequest> = inner.trees[most as usize]
                        .resolve(mstart, g.unit)
                        .into_iter()
                        .map(|(p, l)| BlockRequest::read(p, l))
                        .collect();
                    self.submit_direct(slot.phys(most as usize), batch)?;
                }
            } else {
                let replica = tier.replicas().iter().find(|r| {
                    r.file == run.file && r.dst_ost as usize == ost && r.dst_phys == run.phys
                });
                let Some(r) = replica else { continue };
                let batch: Vec<BlockRequest> = inner.trees[r.src_ost as usize]
                    .resolve(r.logical, r.len)
                    .into_iter()
                    .map(|(p, l)| BlockRequest::read(p, l))
                    .collect();
                self.submit_direct(slot.phys(r.src_ost as usize), batch)?;
            }
            self.submit_direct(ost, vec![BlockRequest::write(run.phys, run.len)])?;
            rebuilt += run.len;
        }
        self.set_ost_health(ost, DiskHealth::Healthy);
        {
            let mut lc = self.lifecycle.lock().unwrap();
            lc.rebuilds_completed += 1;
            lc.rebuilt_blocks += rebuilt;
        }
        Ok((rebuilt, uncovered))
    }

    /// Is this bay's disk dead (failed, not yet replaced)?
    pub fn ost_failed(&self, ost: usize) -> bool {
        self.ost_health(ost) == DiskHealth::Failed
    }

    /// Is this bay degraded (dead, or replaced but not yet rebuilt)?
    pub fn ost_degraded(&self, ost: usize) -> bool {
        self.ost_health(ost).degraded()
    }

    /// Lifecycle counters accumulated so far (rebuilds, additions, scrub
    /// tallies inherited from the engine).
    pub fn lifecycle(&self) -> LifecycleStats {
        *self.lifecycle.lock().unwrap()
    }

    /// Submit one batch to a shard's disk under its lock (a flush's batch,
    /// rebuild IO), charging the shard's time and the `io` aggregate.
    fn submit_direct(
        &self,
        ost_idx: usize,
        batch: Vec<BlockRequest>,
    ) -> Result<Nanos, (usize, IoFault)> {
        if batch.is_empty() {
            return Ok(0);
        }
        let shard = &self.shards[ost_idx];
        let _order = lockorder::acquire(LockClass::Disk);
        self.contention.disk_locks.fetch_add(1, Ordering::Relaxed);
        let mut disk = shard.disk.lock().unwrap();
        let before = disk.stats().clone();
        let result = disk.try_submit_batch(batch);
        shard
            .powered_off
            .store(disk.powered_off(), Ordering::Release);
        let delta = disk.stats().since(&before);
        drop(disk);
        self.io.add(&delta);
        match result {
            Ok(ns) => {
                shard.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
                Ok(ns)
            }
            Err(f) => Err((ost_idx, f)),
        }
    }

    // ----- tier surface ----------------------------------------------------

    /// Snapshot-and-reset the lock-free access recorder: `(file, reads,
    /// writes)` deltas since the last drain, files with no traffic
    /// omitted. This is the heat classifier's feed.
    pub fn drain_access(&self) -> Vec<(OpenFile, u64, u64)> {
        let slots = self.slots();
        let mut out: Vec<(OpenFile, u64, u64)> = slots
            .iter()
            .filter_map(|s| {
                let r = s.reads.swap(0, Ordering::Relaxed);
                let w = s.writes.swap(0, Ordering::Relaxed);
                (r != 0 || w != 0).then_some((OpenFile(s.id), r, w))
            })
            .collect();
        out.sort_by_key(|(f, ..)| f.0 .0);
        out
    }

    /// A clone of the tier map (diagnostics, benches, checkers).
    pub fn tier_snapshot(&self) -> TierMap {
        let _order = lockorder::acquire(LockClass::Tier);
        self.tier.read().unwrap().clone()
    }

    // ----- WAL surface (the mif-server ack gate) --------------------------

    /// Block until the data-path WAL record `seqno` is durable (the record
    /// rides a merged group-commit flush). Must be called with no lock
    /// held; this is the service layer's per-batch durability barrier.
    pub fn wal_commit(&self, seqno: u64) {
        self.wal.commit(seqno);
    }

    /// The WAL's durable watermark: records with seqno strictly below this
    /// are on the journal media. One lock-free load (see
    /// [`GroupCommitWal::durable_watermark`]).
    pub fn wal_durable_watermark(&self) -> u64 {
        self.wal.durable_watermark()
    }

    /// Arm a deterministic crash on a future merged WAL flush (tests).
    pub fn wal_set_fault(&self, plan: mif_mds::FlushFaultPlan) {
        self.wal.set_fault(plan);
    }

    /// Has an armed WAL fault fired? A frozen journal media is the
    /// power-cut instant: the service layer treats it as server death and
    /// stops issuing acks.
    pub fn wal_frozen(&self) -> bool {
        self.wal.frozen()
    }

    // ----- introspection --------------------------------------------------

    /// Is `file` a live (created, not unlinked) handle?
    pub fn has_file(&self, file: OpenFile) -> bool {
        self.slot(file).is_some()
    }

    /// Total extents of a file across all OSTs.
    pub fn file_extents(&self, file: OpenFile) -> u64 {
        self.with_inner(file, |inner| {
            inner.trees.iter().map(|t| t.extent_count() as u64).sum()
        })
        .unwrap_or(0)
    }

    /// File size in blocks.
    pub fn file_size(&self, file: OpenFile) -> u64 {
        self.with_inner(file, |inner| inner.size_blocks)
            .unwrap_or(0)
    }

    /// Blocks physically allocated to the file (mapped blocks).
    pub fn file_allocated(&self, file: OpenFile) -> u64 {
        self.with_inner(file, |inner| {
            inner.trees.iter().map(|t| t.mapped_blocks()).sum()
        })
        .unwrap_or(0)
    }

    pub(crate) fn with_inner<R>(
        &self,
        file: OpenFile,
        f: impl FnOnce(&FileInner) -> R,
    ) -> Option<R> {
        let slot = self.slot(file)?;
        let _order = lockorder::acquire(LockClass::File);
        let inner = slot.inner.lock().unwrap();
        Some(f(&inner))
    }

    /// Free blocks across all OSTs.
    pub fn free_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.alloc.free_blocks()).sum()
    }

    /// Data-path elapsed time: every closed round and folded-in front-end
    /// phase, plus the busiest shard's service time in the current one
    /// (parallel shards overlap, so the slowest gates, like a round).
    pub fn data_elapsed_ns(&self) -> Nanos {
        self.base_elapsed_ns
            + self
                .shards
                .iter()
                .map(|s| s.elapsed_ns.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0)
    }

    /// Every statistic the front-end exports, in one aggregate: the
    /// lock-free contention telemetry and IO totals, plus the per-file
    /// extent histogram (which briefly takes each file's lock — call it
    /// between waves, not on the hot path). This is the one accessor
    /// benches, tests and the service layer read.
    pub fn stats(&self) -> FsStats {
        let mut extent_hist = [0u64; 16];
        let slots = self.slots();
        for slot in &slots {
            let _order = lockorder::acquire(LockClass::File);
            let inner = slot.inner.lock().unwrap();
            let n: u64 = inner.trees.iter().map(|t| t.extent_count() as u64).sum();
            if n == 0 {
                continue;
            }
            let bucket = (63 - n.leading_zeros() as usize).min(15);
            extent_hist[bucket] += 1;
        }
        FsStats {
            contention: self.contention_snapshot(),
            io: self.io.snapshot(),
            extent_hist,
            health: self.ost_healths(),
            lifecycle: self.lifecycle(),
        }
    }

    /// Contention counters since construction (lock-free snapshot).
    fn contention_snapshot(&self) -> ContentionSnapshot {
        let wal = self.wal.stats();
        ContentionSnapshot {
            write_ops: self.contention.write_ops.load(Ordering::Relaxed),
            disk_lock_acquisitions: self.contention.disk_locks.load(Ordering::Relaxed),
            lockfree_window_claims: self.contention.lockfree_claims.load(Ordering::Relaxed),
            locked_policy_extends: self.contention.policy_extends.load(Ordering::Relaxed),
            writeback_batches: self.contention.writeback_batches.load(Ordering::Relaxed),
            writeback_requests: self.contention.writeback_requests.load(Ordering::Relaxed),
            wal_records: wal.records,
            wal_flushes: wal.flushes,
            wal_max_batch: wal.max_batch,
            wal_backpressure_parks: wal.backpressure_parks,
        }
    }

    /// The data-path WAL's journal image (recovery-scan input; tests).
    pub fn wal_image(&self) -> Vec<u8> {
        self.wal.image()
    }

    /// Metrics snapshot for the Table I harness.
    pub fn metrics(&self) -> FsMetrics {
        let slots = self.slots();
        let mut m = FsMetrics {
            elapsed_ns: self.data_elapsed_ns(),
            mds_cpu_ns: self.mds_cpu_ns.load(Ordering::Relaxed),
            files: slots.len() as u64,
            ..Default::default()
        };
        for slot in slots {
            let _order = lockorder::acquire(LockClass::File);
            let inner = slot.inner.lock().unwrap();
            for t in &inner.trees {
                m.add_tree(t);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: PolicyKind) -> FsConfig {
        FsConfig::with_policy(policy, 2)
    }

    fn unwrap_arc(fs: Arc<ConcurrentFs>) -> ConcurrentFs {
        Arc::try_unwrap(fs).ok().expect("threads joined")
    }

    #[test]
    fn parallel_writers_to_disjoint_files() {
        let fs = Arc::new(ConcurrentFs::new(cfg(PolicyKind::OnDemand)));
        let files: Vec<OpenFile> = (0..4).map(|i| fs.create(&format!("f{i}"), None)).collect();
        std::thread::scope(|s| {
            for (t, &file) in files.iter().enumerate() {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let stream = StreamId::new(t as u32, 0);
                    for i in 0..64u64 {
                        fs.write(file, stream, i * 4, 4);
                    }
                });
            }
        });
        fs.sync();
        for &file in &files {
            assert_eq!(fs.file_allocated(file), 256);
            assert_eq!(fs.file_size(file), 256);
            fs.close(file); // last close releases preallocation windows
        }
        let engine = unwrap_arc(fs).into_engine();
        let total: u64 = files.iter().map(|&f| engine.file_allocated(f)).sum();
        assert_eq!(total, 4 * 256);
        assert_eq!(
            engine.free_blocks(),
            2 * engine.config.geometry.blocks - total
        );
    }

    #[test]
    fn engine_round_trips_through_the_front_end() {
        let mut fs = FileSystem::new(cfg(PolicyKind::OnDemand));
        let file = fs.create("seeded", None);
        fs.begin_round();
        fs.write(file, StreamId::new(1, 0), 0, 32);
        fs.end_round();
        fs.sync_data();
        let size_before = fs.file_size(file);
        let elapsed_before = fs.data_elapsed_ns();

        let cfs = ConcurrentFs::from_engine(fs);
        assert_eq!(cfs.file_size(file), size_before);
        cfs.write(file, StreamId::new(1, 0), 32, 32);
        cfs.sync();

        let engine = cfs.into_engine();
        assert_eq!(engine.file_size(file), 64);
        assert_eq!(engine.file_allocated(file), 64);
        assert!(engine.data_elapsed_ns() >= elapsed_before);
    }

    /// Quiescing moves the one state between its two drivers: the clock is
    /// Σ round times + each front-end phase's busiest shard, each counted
    /// once however often the state changes hands; `stats().io` equals the
    /// disks' own totals after every hand-over; the WAL — image and record
    /// count — survives; and a slot a client still holds cannot be driven
    /// in rounds.
    #[test]
    fn quiesce_is_a_move() {
        let disk_totals = |fs: &ConcurrentFs| {
            let mut total = DiskStats::default();
            for shard in &fs.shards {
                total.absorb(shard.disk.lock().unwrap().stats());
            }
            total
        };
        let mut config = cfg(PolicyKind::OnDemand);
        config.writeback_limit_blocks = 1; // every round flushes, so its time is all of it
        let mut engine = FileSystem::new(config);
        let file = engine.create("moved", None);
        let (_, mut clock) = engine.round(|f| f.write(file, StreamId::new(9, 0), 0, 512));
        assert!(clock > 0);

        let fs = Arc::new(ConcurrentFs::from_engine(engine));
        assert_eq!(fs.data_elapsed_ns(), clock);
        assert_eq!(fs.stats().io, disk_totals(&fs));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let stream = StreamId::new(t, 0);
                    for i in 0..64u64 {
                        fs.write(file, stream, 4096 * (t as u64 + 1) + i * 4, 4);
                    }
                    fs.sync();
                });
            }
        });
        let fs = unwrap_arc(fs);
        assert_eq!(fs.stats().io, disk_totals(&fs));
        let busiest = fs
            .shards
            .iter()
            .map(|s| s.elapsed_ns.load(Ordering::Relaxed));
        clock += busiest.max().unwrap();
        assert!(clock > fs.base_elapsed_ns, "the front-end phase took time");
        let (image, records) = (fs.wal_image(), fs.stats().contention.wal_records);
        assert_eq!(records, 128);

        let mut engine = fs.into_engine();
        assert_eq!(engine.data_elapsed_ns(), clock);
        clock += engine
            .round(|f| f.write(file, StreamId::new(9, 0), 512, 512))
            .1;
        let held = engine.fs.slot(file).expect("live file");
        let hook = std::panic::AssertUnwindSafe(|| engine.truncate(file, 8));
        let panic = std::panic::catch_unwind(hook).expect_err("slot is shared");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("file slot shared while driven in rounds"),
            "{msg}"
        );
        drop(held);

        // Twice over: nothing is added a second time, nothing is lost.
        let fs = ConcurrentFs::from_engine(engine);
        let fs = ConcurrentFs::from_engine(fs.into_engine());
        assert_eq!(fs.data_elapsed_ns(), clock);
        assert_eq!(fs.stats().io, disk_totals(&fs));
        assert_eq!(fs.wal_image(), image);
        assert_eq!(fs.stats().contention.wal_records, records);
        assert_eq!(fs.file_size(file), 4096 * 2 + 256);
    }

    #[test]
    fn namespace_ops_from_many_threads() {
        let fs = Arc::new(ConcurrentFs::new(cfg(PolicyKind::Vanilla)));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    for i in 0..16 {
                        let name = format!("t{t}-f{i}");
                        let f = fs.create(&name, None);
                        fs.write(f, StreamId::new(t, 0), 0, 2);
                        assert_eq!(fs.open(&name), Some(f));
                        fs.close(f);
                        fs.close(f);
                    }
                });
            }
        });
        fs.sync();
        let engine = unwrap_arc(fs).into_engine();
        assert_eq!(engine.metrics().files, 8 * 16);
    }

    #[test]
    fn delayed_allocation_coalesces_under_threads() {
        let fs = Arc::new(ConcurrentFs::new(cfg(PolicyKind::Delayed)));
        let file = fs.create("delayed", None);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let stream = StreamId::new(t, 0);
                    let base = t as u64 * 1024;
                    for i in 0..32u64 {
                        fs.write(file, stream, base + i * 4, 4);
                    }
                });
            }
        });
        fs.sync();
        assert_eq!(fs.file_allocated(file), 4 * 128);
        let engine = unwrap_arc(fs).into_engine();
        assert_eq!(engine.file_allocated(file), 4 * 128);
    }

    /// A healthy write takes no disk lock and pays no flush of its own:
    /// disk locks are the write-back batches', WAL flushes follow the
    /// syncs, and most on-demand allocations are lock-free claims.
    #[test]
    fn healthy_writes_take_no_disk_lock_and_flush_once_per_sync() {
        let fs = Arc::new(ConcurrentFs::new(FsConfig::with_policy(
            PolicyKind::OnDemand,
            4,
        )));
        let files: Vec<OpenFile> = (0..4).map(|i| fs.create(&format!("f{i}"), None)).collect();
        std::thread::scope(|s| {
            for (t, &file) in files.iter().enumerate() {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let stream = StreamId::new(t as u32, 0);
                    for i in 0..256u64 {
                        fs.write(file, stream, i * 4, 4);
                        if i % 64 == 63 {
                            fs.sync();
                        }
                    }
                });
            }
        });
        fs.sync();
        let c = fs.stats().contention;
        assert_eq!(c.write_ops, 1024);
        assert_eq!(c.wal_records, c.write_ops);
        assert_eq!(c.disk_lock_acquisitions, c.writeback_batches);
        // 4 threads x 4 syncs + the final one; a sync with nothing staged
        // flushes nothing.
        assert!(c.wal_flushes <= 17, "{} flushes", c.wal_flushes);
        assert!(
            c.lockfree_window_claims > c.locked_policy_extends,
            "most on-demand allocations should be lock-free claims"
        );
    }

    /// The lock-free claim path places every block where `policy.extend`
    /// under the serial engine does: one thread, the same write sequence,
    /// the same extents column for column and the same free space. With
    /// `reopen`, the last close in between drops the cached window handles
    /// (one `Arc` per column and stream otherwise lives as long as the
    /// file) and the second round still allocates alike.
    #[test]
    fn single_thread_front_end_places_blocks_where_the_serial_engine_does() {
        let writes = |round: u64| {
            (0..64u32).flat_map(move |s| {
                let base = s as u64 * 4096 + round * 32;
                (0..8u64).map(move |i| (StreamId::new(s, 0), base + i * 4))
            })
        };
        for policy in [
            PolicyKind::Vanilla,
            PolicyKind::Reservation,
            PolicyKind::OnDemand,
        ] {
            for reopen in [false, true] {
                let fs = ConcurrentFs::new(cfg(policy));
                let mut file = fs.create("shared", None);
                let cached = |file| {
                    fs.with_inner(file, |inner| {
                        inner.windows.iter().map(|m| m.len()).sum::<usize>()
                    })
                    .unwrap()
                };
                let mut serial = FileSystem::new(cfg(policy));
                let serial_file = serial.create("shared", None);
                assert_eq!(serial_file, file);
                for round in 0..2 {
                    for (stream, offset) in writes(round) {
                        fs.write(file, stream, offset, 4);
                        serial.begin_round();
                        serial.write(file, stream, offset, 4);
                        serial.end_round();
                    }
                    if reopen && round == 0 {
                        if policy == PolicyKind::OnDemand {
                            assert!(cached(file) >= 64, "every stream primed a window");
                        }
                        fs.close(file);
                        assert_eq!(cached(file), 0, "the last close prunes every column");
                        file = fs.open("shared").expect("still in the namespace");
                        serial.close(file);
                        assert_eq!(serial.open("shared"), Some(file));
                    }
                }
                fs.sync();
                serial.sync_data();
                let columns = fs
                    .with_inner(file, |inner| {
                        inner
                            .trees
                            .iter()
                            .map(|t| {
                                t.extents()
                                    .map(|e| (e.logical, e.physical, e.len))
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                    .unwrap();
                for (col, extents) in columns.iter().enumerate() {
                    assert_eq!(
                        *extents,
                        serial.physical_layout(file, col),
                        "{policy} reopen={reopen} column {col}"
                    );
                }
                assert_eq!(
                    fs.free_blocks(),
                    serial.free_blocks(),
                    "{policy} reopen={reopen}"
                );
            }
        }
    }

    /// Every write op journals exactly one durable-intent record, and the
    /// recovered log replays them all (commit-ack-after-durable).
    #[test]
    fn wal_records_every_write_and_recovers_them() {
        let fs = ConcurrentFs::new(cfg(PolicyKind::OnDemand));
        let file = fs.create("logged", None);
        for i in 0..100u64 {
            fs.write(file, StreamId::new(1, 0), i * 4, 4);
        }
        fs.sync();
        let c = fs.stats().contention;
        assert_eq!(c.wal_records, 100);
        assert!(c.wal_flushes < c.wal_records, "flushes coalesce");
        let rec = mif_mds::recover_writes(&fs.wal_image(), 0);
        assert_eq!(rec.stop, mif_mds::RecoveryStop::CleanEnd);
        assert_eq!(rec.ops.len(), 100);
        assert!(rec
            .ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.offset == i as u64 * 4 && op.len == 4));
    }

    /// The powered-off mirror reports a dead server without the write
    /// path ever sweeping disk locks, and recovers after power restore.
    #[test]
    fn powered_off_mirror_tracks_the_disk() {
        let fs = ConcurrentFs::new(cfg(PolicyKind::Vanilla));
        let file = fs.create("doomed", None);
        fs.write(file, StreamId::new(1, 0), 0, 4);
        fs.sync();
        let plan = FaultPlan {
            power_cut_after_writes: Some(1),
            ..FaultPlan::none(7)
        };
        fs.install_faults(plan);
        // The cut fires inside a flush; the mirror flips with it.
        let mut saw_fault = false;
        for i in 1..64u64 {
            if fs.try_write(file, StreamId::new(1, 0), i * 4, 4).is_err() || fs.try_sync().is_err()
            {
                saw_fault = true;
                break;
            }
        }
        assert!(saw_fault, "the injected power cut must surface");
        assert!(fs.any_powered_off());
        assert!(
            fs.try_write(file, StreamId::new(1, 0), 4096, 4).is_err(),
            "writes to a dead server fail via the lock-free mirror"
        );
        fs.clear_faults();
        fs.power_restore();
        assert!(fs.try_write(file, StreamId::new(1, 0), 4096, 4).is_ok());
        fs.sync();
    }

    #[test]
    fn unlink_reclaims_all_space() {
        let fs = ConcurrentFs::new(cfg(PolicyKind::OnDemand));
        let total = fs.free_blocks();
        let file = fs.create("gone", None);
        fs.write(file, StreamId::new(1, 0), 0, 128);
        fs.sync();
        fs.close(file);
        fs.unlink(file);
        assert_eq!(fs.free_blocks(), total);
    }

    #[test]
    fn rename_moves_the_name_and_survives_quiesce() {
        let fs = ConcurrentFs::new(cfg(PolicyKind::OnDemand));
        let file = fs.create("before", None);
        fs.write(file, StreamId::new(0, 0), 0, 8);
        let ino = fs.rename_file(file, "after").expect("rename succeeds");
        assert!(fs.open("before").is_none(), "old name gone");
        assert_eq!(fs.open("after"), Some(file), "new name resolves");
        fs.close(file); // balance the open above
        fs.sync();
        let mut engine = fs.into_engine();
        assert_eq!(engine.open("after"), Some(file));
        assert_eq!(engine.mds().lookup(ROOT_INO, "after"), Some(ino));
        assert_eq!(engine.mds().lookup(ROOT_INO, "before"), None);
    }

    #[test]
    fn opposing_renames_do_not_deadlock() {
        // a→b racing c→a across many stripes: the ascending stripe-index
        // acquisition makes the double-guard safe no matter which stripes
        // the names hash into.
        let fs = Arc::new(ConcurrentFs::new(cfg(PolicyKind::OnDemand)));
        for round in 0..16u32 {
            let a = fs.create(&format!("left{round}"), None);
            let b = fs.create(&format!("right{round}"), None);
            std::thread::scope(|s| {
                let fsa = Arc::clone(&fs);
                let fsb = Arc::clone(&fs);
                s.spawn(move || fsa.rename_file(a, &format!("right-post{round}")));
                s.spawn(move || fsb.rename_file(b, &format!("left-post{round}")));
            });
            assert!(fs.open(&format!("right-post{round}")).is_some());
            assert!(fs.open(&format!("left-post{round}")).is_some());
        }
    }

    #[test]
    fn concurrent_renames_of_one_file_chase_the_name() {
        // Two threads renaming the same file serialize on the source
        // stripe; the loser re-reads the winner's name and moves it on.
        let fs = Arc::new(ConcurrentFs::new(cfg(PolicyKind::OnDemand)));
        let file = fs.create("start", None);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    fs.rename_file(file, &format!("claim{t}"));
                });
            }
        });
        // Exactly one name survives and it is one of the claims.
        let survivors: Vec<u32> = (0..4)
            .filter(|t| fs.open(&format!("claim{t}")).is_some())
            .collect();
        assert_eq!(survivors.len(), 1, "one final name: {survivors:?}");
        assert!(fs.open("start").is_none());
    }
}
