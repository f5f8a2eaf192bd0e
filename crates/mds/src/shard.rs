//! The sharded MDS namespace (ROADMAP item 3).
//!
//! The global directory table is split across N MDS instances: a stable
//! [`ShardMap`] sends each directory id to a *home* shard, same-shard
//! operations run the existing single-box fast path, and cross-shard
//! renames run a two-phase CAS-retry protocol borrowed from
//! content-addressed stores: every directory exposes an **operation
//! head** (a version counter journaled in the shard's WAL), a
//! coordinator stages `Intent` records on both shards, CAS-advances both
//! heads, then journals `Commit` on both shards and applies the move.
//! Contention fails the CAS and retries with fresh heads (a stale
//! attempt's head advance is harmless — heads only move forward); a
//! crash mid-protocol recovers through the same roll-forward /
//! roll-back rule every Intent/Commit stream in this codebase uses:
//! any recovered `Commit` finishes the move, no `Commit` forgets it.
//!
//! Embedded-directory mode (§IV) survives sharding: a *striped* large
//! directory holds a seat on every shard, entries are placed by the
//! stable per-entry hash, and the home shard's entry table doubles as
//! the §IV-C primary hash index — one lookup hop instead of a
//! broadcast. The index is derived data; `shard_findings` cross-checks
//! it against the per-shard stores and `mif-fsck` repairs drift.
//!
//! Recovery is *replay into a fresh instance*: every shard record
//! carries a globally-ordered `gseq` stamp, so the per-shard streams
//! merge-sort back into one total order and re-apply through the normal
//! paths. Recovering a recovered image is therefore idempotent by
//! construction.

use crate::cluster::NETWORK_HOP_NS;
use crate::dirtable::ShardMap;
use crate::ids::{InodeNo, ROOT_INO};
use crate::mds::{DirMode, Mds, MdsConfig};
use crate::wal::{ShardNsOp, ShardOp, ShardRecord, ShardRecovery, ShardWal, XsTxn};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Attempt budget for the cross-shard CAS loop.
pub const MAX_CAS_RETRIES: u32 = 64;

/// Simulated durable-WAL-record cost.
const WAL_RECORD_NS: u64 = 15_000;

/// Per-directory operation heads on one shard: the CAS coordination
/// primitive. Plain atomics behind a lazily-populated map — `try_advance`
/// is one `compare_exchange`, no application-level lock.
#[derive(Debug, Default)]
pub struct OpHeadTable {
    heads: RwLock<HashMap<u32, Arc<AtomicU64>>>,
}

impl OpHeadTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, dir: u32) -> Arc<AtomicU64> {
        if let Some(h) = self.heads.read().expect("head table poisoned").get(&dir) {
            return Arc::clone(h);
        }
        let mut w = self.heads.write().expect("head table poisoned");
        Arc::clone(w.entry(dir).or_default())
    }

    /// Current head of `dir` (0 if never advanced).
    pub fn load(&self, dir: u32) -> u64 {
        self.slot(dir).load(Ordering::SeqCst)
    }

    /// CAS-advance `dir`'s head from `expected` to `expected + 1`.
    /// `Ok(new)` on success; `Err(found)` carries the head that beat us.
    pub fn try_advance(&self, dir: u32, expected: u64) -> Result<u64, u64> {
        match self.slot(dir).compare_exchange(
            expected,
            expected + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(expected + 1),
            Err(found) => Err(found),
        }
    }

    /// Raise `dir`'s head to at least `value` (recovery / fsck repair).
    pub fn force_at_least(&self, dir: u32, value: u64) {
        self.slot(dir).fetch_max(value, Ordering::SeqCst);
    }

    /// Every `(dir, head)` pair, sorted by dir (checker introspection).
    pub fn entries(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .heads
            .read()
            .expect("head table poisoned")
            .iter()
            .map(|(&d, h)| (d, h.load(Ordering::SeqCst)))
            .collect();
        out.sort_unstable_by_key(|&(d, _)| d);
        out
    }
}

/// One shard's coordination seat: its WAL stream plus its operation-head
/// table. `Sync` — concurrent storms drive seats from many threads while
/// the namespace apply stays single-writer-per-shard.
#[derive(Debug, Default)]
pub struct ShardSeat {
    wal: Mutex<ShardWal>,
    pub heads: OpHeadTable,
}

impl ShardSeat {
    pub fn new() -> Self {
        Self::default()
    }

    fn journal(&self, gseq: u64, op: ShardOp) {
        self.wal
            .lock()
            .expect("shard wal poisoned")
            .append(&ShardRecord { gseq, op });
    }

    fn journal_torn(&self, gseq: u64, op: ShardOp, persisted: usize) {
        self.wal
            .lock()
            .expect("shard wal poisoned")
            .append_torn(&ShardRecord { gseq, op }, persisted);
    }

    /// Records journaled so far (torn ones included).
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().expect("shard wal poisoned").len()
    }

    /// Snapshot of the on-media WAL bytes.
    pub fn wal_image(&self) -> Vec<u8> {
        self.wal
            .lock()
            .expect("shard wal poisoned")
            .image()
            .to_vec()
    }
}

/// Cumulative sharded-cluster counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Client-visible operations.
    pub ops: u64,
    /// One-way network hops (client↔shard and shard↔shard).
    pub hops: u64,
    /// Same-shard renames that took the fast path.
    pub same_shard_renames: u64,
    /// Cross-shard renames committed.
    pub xs_renames: u64,
    /// Cross-shard protocol attempts (≥ `xs_renames`).
    pub xs_attempts: u64,
    /// CAS attempts that lost the race (`xs_attempts - xs_renames` for
    /// completed storms).
    pub cas_retries: u64,
}

/// Where a cross-shard rename crashes, for the consistency matrix. Every
/// point names the last protocol step that reached media (possibly torn);
/// nothing after it — including the namespace apply — happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsCrashPoint {
    /// Power cut before anything was journaled.
    BeforeIntent,
    /// Crash while journaling the intent on the source shard.
    IntentSrc,
    /// Source intent durable; crash journaling the destination intent.
    IntentDst,
    /// Both intents durable; crash journaling the source head advance.
    CasSrc,
    /// Crash journaling the destination head advance.
    CasDst,
    /// Crash journaling the source commit — the commit point.
    CommitSrc,
    /// Source commit durable; crash journaling the destination commit.
    CommitDst,
    /// Every record durable; power cut before the namespace apply.
    BeforeApply,
}

impl XsCrashPoint {
    /// Every crash point, in protocol order.
    pub const ALL: [XsCrashPoint; 8] = [
        XsCrashPoint::BeforeIntent,
        XsCrashPoint::IntentSrc,
        XsCrashPoint::IntentDst,
        XsCrashPoint::CasSrc,
        XsCrashPoint::CasDst,
        XsCrashPoint::CommitSrc,
        XsCrashPoint::CommitDst,
        XsCrashPoint::BeforeApply,
    ];

    /// Must recovery roll this crash forward (the rename is visible)?
    /// True exactly when at least one commit record reached media whole:
    /// the record *at* the crash point never recovers (it is either
    /// omitted or torn), so only the points past `CommitSrc` commit.
    pub fn commits(&self) -> bool {
        matches!(self, XsCrashPoint::CommitDst | XsCrashPoint::BeforeApply)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SEntry {
    /// Shard whose store holds the entry.
    shard: u32,
    extents: u32,
}

#[derive(Debug, Clone)]
struct SDir {
    name: String,
    home: u32,
    striped: bool,
    /// The directory's inode number on each shard that seats it (every
    /// shard for striped directories, only `home` otherwise).
    shard_inos: Vec<Option<InodeNo>>,
    /// Home-shard entry table: name → placement. For striped directories
    /// this *is* the §IV-C primary hash index; it is derived data the
    /// checker can rebuild from the per-shard stores.
    entries: BTreeMap<String, SEntry>,
}

/// One consistency defect found by the sharded checker. Produced here
/// (next to the state it inspects), consumed by `mif-fsck`'s cross-shard
/// rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFinding {
    /// The primary index places `name` on `shard`, but no store holds it.
    EntryMissing { dir: u32, name: String, shard: u32 },
    /// Shard `shard`'s store holds `name`, but the primary index has no
    /// such entry.
    EntryOrphan { dir: u32, name: String, shard: u32 },
    /// Two shards' stores both hold `name` — a torn cross-shard move.
    EntryDoubled {
        dir: u32,
        name: String,
        first: u32,
        second: u32,
    },
    /// The primary index places `name` on `indexed`, the store holds it
    /// on `actual`.
    HashIndexDrift {
        dir: u32,
        name: String,
        indexed: u32,
        actual: u32,
    },
    /// Shard `shard`'s live head for `dir` is behind its own journaled
    /// CAS advances.
    HeadRegression {
        shard: u32,
        dir: u32,
        head: u64,
        journaled: u64,
    },
    /// A committed cross-shard rename whose move never reached the
    /// stores: the source still holds `txn.name`, the destination lacks
    /// `txn.new_name`.
    CommitUnapplied { txn: XsTxn },
}

impl ShardFinding {
    /// Stable rule slug, fsck-report style.
    pub fn rule(&self) -> &'static str {
        match self {
            ShardFinding::EntryMissing { .. } => "shard-entry-missing",
            ShardFinding::EntryOrphan { .. } => "shard-entry-orphan",
            ShardFinding::EntryDoubled { .. } => "shard-entry-doubled",
            ShardFinding::HashIndexDrift { .. } => "shard-hash-index-drift",
            ShardFinding::HeadRegression { .. } => "shard-head-regression",
            ShardFinding::CommitUnapplied { .. } => "shard-commit-unapplied",
        }
    }

    /// Human-readable details, fsck-report style.
    pub fn detail(&self) -> String {
        match self {
            ShardFinding::EntryMissing { dir, name, shard } => {
                format!("dir {dir}: index places \"{name}\" on shard {shard}, no store holds it")
            }
            ShardFinding::EntryOrphan { dir, name, shard } => {
                format!("dir {dir}: shard {shard} holds \"{name}\" unknown to the primary index")
            }
            ShardFinding::EntryDoubled {
                dir,
                name,
                first,
                second,
            } => format!("dir {dir}: \"{name}\" present on shards {first} and {second}"),
            ShardFinding::HashIndexDrift {
                dir,
                name,
                indexed,
                actual,
            } => format!("dir {dir}: index says \"{name}\" on shard {indexed}, store has {actual}"),
            ShardFinding::HeadRegression {
                shard,
                dir,
                head,
                journaled,
            } => format!(
                "shard {shard} dir {dir}: live op-head {head} behind journaled CAS {journaled}"
            ),
            ShardFinding::CommitUnapplied { txn } => format!(
                "txn {}: committed move \"{}\" (dir {}) → \"{}\" (dir {}) never applied",
                txn.txn, txn.name, txn.src_dir, txn.new_name, txn.dst_dir
            ),
        }
    }
}

impl std::fmt::Display for ShardFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule(), self.detail())
    }
}

/// The sharded MDS cluster: N real [`Mds`] instances, one coordination
/// seat per shard, and the global directory table that routes between
/// them.
pub struct ShardedMds {
    map: ShardMap,
    servers: Vec<Mds>,
    seats: Vec<ShardSeat>,
    dirs: Vec<SDir>,
    by_name: HashMap<String, u32>,
    gseq: AtomicU64,
    next_txn: AtomicU64,
    stats: ShardStats,
}

impl ShardedMds {
    /// `shards` MDS instances, each in the paper's §IV embedded mode
    /// (that surviving distribution is the point).
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        let servers = (0..shards)
            .map(|_| Mds::new(MdsConfig::with_mode(DirMode::Embedded)))
            .collect();
        let seats = (0..shards).map(|_| ShardSeat::new()).collect();
        Self {
            map: ShardMap::new(shards),
            servers,
            seats,
            dirs: Vec::new(),
            by_name: HashMap::new(),
            gseq: AtomicU64::new(0),
            next_txn: AtomicU64::new(1),
            stats: ShardStats::default(),
        }
    }

    pub fn shards(&self) -> usize {
        self.servers.len()
    }

    pub fn map(&self) -> ShardMap {
        self.map
    }

    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Simulated client-visible time: network hops plus durable WAL
    /// records, both at fixed unit costs.
    pub fn client_ns(&self) -> u64 {
        let records: u64 = self.seats.iter().map(|s| s.wal_len()).sum();
        self.stats.hops * NETWORK_HOP_NS + records * WAL_RECORD_NS
    }

    /// The per-shard WAL images, in shard order (what a crash leaves
    /// behind).
    pub fn wal_images(&self) -> Vec<Vec<u8>> {
        self.seats.iter().map(|s| s.wal_image()).collect()
    }

    /// Borrow one shard's coordination seat (property tests drive the
    /// CAS protocol through this without a full cluster).
    pub fn seat(&self, shard: usize) -> &ShardSeat {
        &self.seats[shard]
    }

    /// Live operation head of `dir` on `shard`.
    pub fn head(&self, shard: usize, dir: u32) -> u64 {
        self.seats[shard].heads.load(dir)
    }

    /// Global directory id registered under `name`.
    pub fn dir_id(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    pub fn dir_home(&self, dir: u32) -> u32 {
        self.dirs[dir as usize].home
    }

    /// The shard whose store holds (or would hold) entry `name` of
    /// `dir`. A pure function of the stable map — the primary index is
    /// a cache of this, never the source of truth.
    pub fn entry_shard(&self, dir: u32, name: &str) -> u32 {
        let d = &self.dirs[dir as usize];
        if d.striped {
            self.map.shard_of_entry(dir, name) as u32
        } else {
            d.home
        }
    }

    fn next_gseq(&self) -> u64 {
        self.gseq.fetch_add(1, Ordering::SeqCst)
    }

    // ---- namespace operations -------------------------------------------

    /// Register a directory on its home shard.
    pub fn mkdir(&mut self, name: &str) -> u32 {
        self.mkdir_mode(name, false)
    }

    /// Register a striped (§IV-C extreme-large) directory: seats on every
    /// shard, entries spread by the stable per-entry hash, primary index
    /// at home.
    pub fn mkdir_striped(&mut self, name: &str) -> u32 {
        self.mkdir_mode(name, true)
    }

    fn mkdir_mode(&mut self, name: &str, striped: bool) -> u32 {
        assert!(
            !self.by_name.contains_key(name),
            "directory {name:?} already exists"
        );
        let dir = self.dirs.len() as u32;
        let home = self.map.shard_of_dir(dir) as u32;
        let gseq = self.next_gseq();
        self.seats[home as usize].journal(
            gseq,
            ShardOp::Ns(ShardNsOp::Mkdir {
                dir,
                striped,
                name: name.to_string(),
            }),
        );
        let shard_inos: Vec<Option<InodeNo>> = self
            .servers
            .iter_mut()
            .enumerate()
            .map(|(s, server)| (striped || s as u32 == home).then(|| server.mkdir(ROOT_INO, name)))
            .collect();
        self.dirs.push(SDir {
            name: name.to_string(),
            home,
            striped,
            shard_inos,
            entries: BTreeMap::new(),
        });
        self.by_name.insert(name.to_string(), dir);
        self.stats.ops += 1;
        // Client → home, plus home fanning the seat out to every other
        // shard for striped directories.
        self.stats.hops += 1 + if striped { self.shards() as u64 - 1 } else { 0 };
        dir
    }

    /// Create `name` (`extents` extents) in `dir`.
    pub fn create(&mut self, dir: u32, name: &str, extents: u32) {
        let shard = self.entry_shard(dir, name);
        let gseq = self.next_gseq();
        self.seats[shard as usize].journal(
            gseq,
            ShardOp::Ns(ShardNsOp::Create {
                dir,
                extents,
                name: name.to_string(),
            }),
        );
        self.apply_create(dir, name, extents, shard);
        let d = &self.dirs[dir as usize];
        self.stats.ops += 1;
        // §IV-C: the client hashes straight to the owning shard; off-home
        // placements pay one more hop to update the primary index.
        self.stats.hops += 1 + u64::from(d.striped && shard != d.home);
    }

    fn apply_create(&mut self, dir: u32, name: &str, extents: u32, shard: u32) {
        let ino = self.dirs[dir as usize].shard_inos[shard as usize]
            .expect("entry shard must seat the directory");
        self.servers[shard as usize].create(ino, name, extents);
        self.dirs[dir as usize]
            .entries
            .insert(name.to_string(), SEntry { shard, extents });
    }

    /// Stat `name` in `dir`; returns whether the entry exists. The hop
    /// count is where the §IV-C primary index pays: one indexed lookup
    /// instead of a broadcast.
    pub fn stat(&mut self, dir: u32, name: &str) -> bool {
        let d = &self.dirs[dir as usize];
        let shard = self.entry_shard(dir, name);
        self.stats.ops += 1;
        if d.striped {
            // Client → home consults the index; one more hop if the
            // entry lives elsewhere.
            self.stats.hops += 1 + u64::from(shard != d.home);
        } else {
            self.stats.hops += 1;
        }
        let exists = self.dirs[dir as usize].entries.contains_key(name);
        if exists {
            let ino = self.dirs[dir as usize].shard_inos[shard as usize]
                .expect("entry shard must seat the directory");
            self.servers[shard as usize].stat(ino, name);
        }
        exists
    }

    /// Touch `name`'s timestamps.
    pub fn utime(&mut self, dir: u32, name: &str) {
        let shard = self.entry_shard(dir, name);
        let gseq = self.next_gseq();
        self.seats[shard as usize].journal(
            gseq,
            ShardOp::Ns(ShardNsOp::Utime {
                dir,
                name: name.to_string(),
            }),
        );
        let ino = self.dirs[dir as usize].shard_inos[shard as usize]
            .expect("entry shard must seat the directory");
        self.servers[shard as usize].utime(ino, name);
        self.stats.ops += 1;
        self.stats.hops += 1;
    }

    /// Remove `name` from `dir`.
    pub fn unlink(&mut self, dir: u32, name: &str) {
        let shard = self.entry_shard(dir, name);
        let gseq = self.next_gseq();
        self.seats[shard as usize].journal(
            gseq,
            ShardOp::Ns(ShardNsOp::Unlink {
                dir,
                name: name.to_string(),
            }),
        );
        let ino = self.dirs[dir as usize].shard_inos[shard as usize]
            .expect("entry shard must seat the directory");
        self.servers[shard as usize].unlink(ino, name);
        self.dirs[dir as usize].entries.remove(name);
        let d = &self.dirs[dir as usize];
        self.stats.ops += 1;
        self.stats.hops += 1 + u64::from(d.striped && shard != d.home);
    }

    /// List `dir`: contact every shard seating it, merge, sort.
    pub fn readdir(&mut self, dir: u32) -> Vec<String> {
        let d = self.dirs[dir as usize].clone();
        let mut names = Vec::new();
        let mut contacted = 0u64;
        for (s, ino) in d.shard_inos.iter().enumerate() {
            if let Some(ino) = ino {
                self.servers[s].readdir(*ino);
                names.extend(self.servers[s].entry_names(*ino));
                contacted += 1;
            }
        }
        names.sort_unstable();
        self.stats.ops += 1;
        // One hop per contacted shard — the striped fan-out is real
        // traffic (the same accounting the cluster-layer fix pins).
        self.stats.hops += contacted.max(1);
        names
    }

    /// Rename `dir`/`name` → `dst`/`new_name`. Same-shard pairs take the
    /// single-box fast path; cross-shard pairs run the CAS protocol.
    /// Returns the CAS retries spent (0 on the fast path).
    pub fn rename(&mut self, src_dir: u32, name: &str, dst_dir: u32, new_name: &str) -> u32 {
        let src_shard = self.entry_shard(src_dir, name);
        let dst_shard = self.entry_shard(dst_dir, new_name);
        if src_shard == dst_shard {
            let gseq = self.next_gseq();
            self.seats[src_shard as usize].journal(
                gseq,
                ShardOp::Ns(ShardNsOp::Rename {
                    src: src_dir,
                    dst: dst_dir,
                    name: name.to_string(),
                    new_name: new_name.to_string(),
                }),
            );
            self.apply_same_shard_rename(src_dir, name, dst_dir, new_name, src_shard);
            self.stats.ops += 1;
            self.stats.same_shard_renames += 1;
            self.stats.hops += 1;
            return 0;
        }
        self.cross_shard_rename(src_dir, name, src_shard, dst_dir, new_name, dst_shard, None)
            .expect("CAS budget exhausted with no contention")
    }

    fn apply_same_shard_rename(
        &mut self,
        src_dir: u32,
        name: &str,
        dst_dir: u32,
        new_name: &str,
        shard: u32,
    ) {
        let extents = self.dirs[src_dir as usize]
            .entries
            .get(name)
            .map(|e| e.extents)
            .unwrap_or(0);
        let src_ino = self.dirs[src_dir as usize].shard_inos[shard as usize]
            .expect("entry shard must seat the source directory");
        let dst_ino = self.dirs[dst_dir as usize].shard_inos[shard as usize]
            .expect("entry shard must seat the destination directory");
        self.servers[shard as usize].rename(src_ino, name, dst_ino, new_name);
        self.dirs[src_dir as usize].entries.remove(name);
        self.dirs[dst_dir as usize]
            .entries
            .insert(new_name.to_string(), SEntry { shard, extents });
    }

    /// The cross-shard protocol. `crash` stops it at the named point (the
    /// record at the point is torn to `persisted` bytes when given,
    /// omitted entirely otherwise) and leaves the WAL images for
    /// recovery. Returns `Some(retries)` when the rename committed.
    #[allow(clippy::too_many_arguments)]
    fn cross_shard_rename(
        &mut self,
        src_dir: u32,
        name: &str,
        src_shard: u32,
        dst_dir: u32,
        new_name: &str,
        dst_shard: u32,
        crash: Option<(XsCrashPoint, Option<usize>)>,
    ) -> Option<u32> {
        self.stats.ops += 1;
        let outcome = Self::coordinate_xs(
            &self.seats,
            &self.gseq,
            &self.next_txn,
            XsRoute {
                src_dir,
                src_shard,
                dst_dir,
                dst_shard,
            },
            name,
            new_name,
            crash,
        );
        match outcome {
            XsOutcome::Committed { txn, retries, .. } => {
                self.stats.xs_renames += 1;
                self.stats.xs_attempts += 1 + retries as u64;
                self.stats.cas_retries += retries as u64;
                // Intent+intent+cas+cas+commit+commit between coordinator
                // and the two shards, per attempt that got to a CAS.
                self.stats.hops += 6 + 4 * retries as u64;
                self.apply_xs(&txn);
                Some(retries)
            }
            XsOutcome::Crashed => None,
            XsOutcome::Contended { retries } => {
                self.stats.xs_attempts += retries as u64;
                self.stats.cas_retries += retries as u64;
                None
            }
        }
    }

    /// Run a cross-shard rename that power-cuts at `point`; the record at
    /// the point is torn to `persisted` bytes if given. Nothing after the
    /// point — including the apply — happens. Harvest `wal_images()` and
    /// [`ShardedMds::recover`] to model the restart.
    pub fn rename_crash(
        &mut self,
        src_dir: u32,
        name: &str,
        dst_dir: u32,
        new_name: &str,
        point: XsCrashPoint,
        persisted: Option<usize>,
    ) {
        let src_shard = self.entry_shard(src_dir, name);
        let dst_shard = self.entry_shard(dst_dir, new_name);
        assert_ne!(
            src_shard, dst_shard,
            "crash injection targets the cross-shard protocol"
        );
        let committed = self.cross_shard_rename(
            src_dir,
            name,
            src_shard,
            dst_dir,
            new_name,
            dst_shard,
            Some((point, persisted)),
        );
        assert!(committed.is_none(), "a crashed protocol must not apply");
    }

    /// Coordination only: journal intents, CAS both heads, journal
    /// commits. Touches nothing but the seats and the global counters, so
    /// concurrent storms drive it from many threads over `&self`.
    #[allow(clippy::too_many_arguments)]
    fn coordinate_xs(
        seats: &[ShardSeat],
        gseq: &AtomicU64,
        next_txn: &AtomicU64,
        route: XsRoute,
        name: &str,
        new_name: &str,
        crash: Option<(XsCrashPoint, Option<usize>)>,
    ) -> XsOutcome {
        let src = &seats[route.src_shard as usize];
        let dst = &seats[route.dst_shard as usize];
        let mut retries = 0u32;
        let stop = |at: XsCrashPoint| matches!(crash, Some((p, _)) if p == at);
        // Journal `op`, returning the gseq it was stamped with — or None
        // when the injected crash lands here (a torn budget persists a
        // prefix of the record; no budget means the cut beat the write).
        let journal_or_crash = |seat: &ShardSeat, op: ShardOp, at: XsCrashPoint| -> Option<u64> {
            let stamp = gseq.fetch_add(1, Ordering::SeqCst);
            if stop(at) {
                if let Some((_, Some(persisted))) = crash {
                    seat.journal_torn(stamp, op, persisted);
                }
                return None;
            }
            seat.journal(stamp, op);
            Some(stamp)
        };
        loop {
            if retries > MAX_CAS_RETRIES {
                return XsOutcome::Contended { retries };
            }
            if stop(XsCrashPoint::BeforeIntent) {
                return XsOutcome::Crashed;
            }
            let src_head = src.heads.load(route.src_dir);
            let dst_head = dst.heads.load(route.dst_dir);
            let txn = XsTxn {
                txn: next_txn.fetch_add(1, Ordering::SeqCst),
                src_dir: route.src_dir,
                dst_dir: route.dst_dir,
                src_shard: route.src_shard,
                dst_shard: route.dst_shard,
                src_head,
                dst_head,
                name: name.to_string(),
                new_name: new_name.to_string(),
            };
            if journal_or_crash(src, ShardOp::XsIntent(txn.clone()), XsCrashPoint::IntentSrc)
                .is_none()
            {
                return XsOutcome::Crashed;
            }
            if journal_or_crash(dst, ShardOp::XsIntent(txn.clone()), XsCrashPoint::IntentDst)
                .is_none()
            {
                return XsOutcome::Crashed;
            }
            // CAS the source head. Losing the race restarts the attempt
            // with fresh heads; the journaled intent is simply never
            // committed and recovery forgets it.
            let src_new = match src.heads.try_advance(route.src_dir, src_head) {
                Ok(new) => new,
                Err(_) => {
                    retries += 1;
                    continue;
                }
            };
            if journal_or_crash(
                src,
                ShardOp::XsCas {
                    txn: txn.txn,
                    dir: route.src_dir,
                    old: src_head,
                    new: src_new,
                },
                XsCrashPoint::CasSrc,
            )
            .is_none()
            {
                return XsOutcome::Crashed;
            }
            // CAS the destination head. A loss here leaves the source
            // advance behind — harmless, heads only move forward and the
            // retry observes the new value.
            let dst_new = match dst.heads.try_advance(route.dst_dir, dst_head) {
                Ok(new) => new,
                Err(_) => {
                    retries += 1;
                    continue;
                }
            };
            if journal_or_crash(
                dst,
                ShardOp::XsCas {
                    txn: txn.txn,
                    dir: route.dst_dir,
                    old: dst_head,
                    new: dst_new,
                },
                XsCrashPoint::CasDst,
            )
            .is_none()
            {
                return XsOutcome::Crashed;
            }
            // Commit point: the first durable commit record decides.
            let Some(commit_gseq) = journal_or_crash(
                src,
                ShardOp::XsCommit { txn: txn.txn },
                XsCrashPoint::CommitSrc,
            ) else {
                return XsOutcome::Crashed;
            };
            if journal_or_crash(
                dst,
                ShardOp::XsCommit { txn: txn.txn },
                XsCrashPoint::CommitDst,
            )
            .is_none()
            {
                return XsOutcome::Crashed;
            }
            if stop(XsCrashPoint::BeforeApply) {
                return XsOutcome::Crashed;
            }
            return XsOutcome::Committed {
                txn,
                commit_gseq,
                retries,
            };
        }
    }

    /// Apply a committed cross-shard move to the stores, idempotently: a
    /// replayed commit whose move already happened is a no-op.
    fn apply_xs(&mut self, txn: &XsTxn) {
        let Some(entry) = self.dirs[txn.src_dir as usize]
            .entries
            .get(&txn.name)
            .copied()
        else {
            return; // already applied (recovery replay)
        };
        let src_ino = self.dirs[txn.src_dir as usize].shard_inos[txn.src_shard as usize]
            .expect("source shard must seat the directory");
        let dst_ino = self.dirs[txn.dst_dir as usize].shard_inos[txn.dst_shard as usize]
            .expect("destination shard must seat the directory");
        self.servers[txn.src_shard as usize].unlink(src_ino, &txn.name);
        self.servers[txn.dst_shard as usize].create(dst_ino, &txn.new_name, entry.extents);
        self.dirs[txn.src_dir as usize].entries.remove(&txn.name);
        self.dirs[txn.dst_dir as usize].entries.insert(
            txn.new_name.clone(),
            SEntry {
                shard: txn.dst_shard,
                extents: entry.extents,
            },
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct XsRoute {
    src_dir: u32,
    src_shard: u32,
    dst_dir: u32,
    dst_shard: u32,
}

#[derive(Debug)]
enum XsOutcome {
    Committed {
        txn: XsTxn,
        commit_gseq: u64,
        retries: u32,
    },
    Crashed,
    Contended {
        retries: u32,
    },
}

// ---- recovery ------------------------------------------------------------

impl ShardedMds {
    /// Rebuild a cluster from per-shard WAL images (shard order must
    /// match the crashed cluster's). Each stream contributes its longest
    /// clean prefix; the streams merge-sort by `gseq` into one total
    /// order; namespace ops re-apply through the normal paths and a
    /// cross-shard transaction rolls forward iff *any* stream recovered
    /// its commit record — otherwise its intent is forgotten (the
    /// roll-back is a no-op because intents change no state). The rebuilt
    /// instance journals afresh, so recovering a recovered cluster is
    /// idempotent by construction.
    pub fn recover(images: &[Vec<u8>], shards: usize) -> Self {
        assert_eq!(images.len(), shards, "one WAL image per shard");
        let mut merged: Vec<(u32, ShardRecord)> = Vec::new();
        for (shard, image) in images.iter().enumerate() {
            merged.extend(
                ShardRecovery::scan(image, 0)
                    .ops
                    .into_iter()
                    .map(|r| (shard as u32, r)),
            );
        }
        merged.sort_by_key(|(_, r)| r.gseq);

        let mut intents: HashMap<u64, XsTxn> = HashMap::new();
        let mut applied: HashSet<u64> = HashSet::new();
        let mut fresh = Self::new(shards);
        for (from_shard, rec) in &merged {
            match &rec.op {
                ShardOp::Ns(ShardNsOp::Mkdir { dir, striped, name }) => {
                    // Ids are allocated in gseq order, so replay must
                    // hand back the same id. A second copy of the same
                    // record (both-shards streams) cannot occur: mkdir
                    // journals on the home shard only.
                    let got = fresh.mkdir_mode(name, *striped);
                    assert_eq!(got, *dir, "directory ids must replay stably");
                }
                ShardOp::Ns(ShardNsOp::Create { dir, extents, name }) => {
                    fresh.create(*dir, name, *extents);
                }
                ShardOp::Ns(ShardNsOp::Utime { dir, name }) => {
                    if fresh.dirs[*dir as usize].entries.contains_key(name) {
                        fresh.utime(*dir, name);
                    }
                }
                ShardOp::Ns(ShardNsOp::Unlink { dir, name }) => {
                    if fresh.dirs[*dir as usize].entries.contains_key(name) {
                        fresh.unlink(*dir, name);
                    }
                }
                ShardOp::Ns(ShardNsOp::Rename {
                    src,
                    dst,
                    name,
                    new_name,
                }) => {
                    if fresh.dirs[*src as usize].entries.contains_key(name) {
                        fresh.rename(*src, name, *dst, new_name);
                    }
                }
                ShardOp::XsIntent(t) => {
                    intents.insert(t.txn, t.clone());
                }
                ShardOp::XsCas { dir, new, .. } => {
                    // A journaled head advance is a promise: the rebuilt
                    // head table must never sit below it, even for
                    // attempts that were never committed.
                    fresh.seats[*from_shard as usize]
                        .heads
                        .force_at_least(*dir, *new);
                }
                ShardOp::XsCommit { txn } => {
                    if applied.insert(*txn) {
                        let t = intents
                            .get(txn)
                            .expect("a commit's intent precedes it in its own stream")
                            .clone();
                        if fresh.dirs[t.src_dir as usize].entries.contains_key(&t.name) {
                            fresh.rename(t.src_dir, &t.name, t.dst_dir, &t.new_name);
                        }
                    }
                }
            }
        }
        fresh
    }

    /// Deterministic byte serialization of the logical namespace, read
    /// from the per-shard stores (not the bookkeeping): directory names
    /// in sorted order, each with its striped flag and its merged, sorted
    /// entry list. Two clusters agree iff their users can't tell them
    /// apart — inode numbers are deliberately excluded (they are a
    /// per-shard artifact that legitimately differs across shard
    /// counts).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut dirs: Vec<&SDir> = self.dirs.iter().collect();
        dirs.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = Vec::new();
        for d in dirs {
            out.extend_from_slice(
                format!("D {} striped={}\n", d.name, u8::from(d.striped)).as_bytes(),
            );
            let mut names = Vec::new();
            for (s, ino) in d.shard_inos.iter().enumerate() {
                if let Some(ino) = ino {
                    names.extend(self.servers[s].entry_names(*ino));
                }
            }
            names.sort_unstable();
            for n in names {
                out.extend_from_slice(format!("E {n}\n").as_bytes());
            }
        }
        out
    }
}

// ---- concurrent storms ---------------------------------------------------

/// What a concurrent storm did: committed operations, CAS contention, and
/// the worst single-operation retry count (the boundedness witness).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StormReport {
    pub committed: u64,
    pub cas_retries: u64,
    pub max_retries_single_op: u32,
}

impl ShardedMds {
    /// Race `threads` real OS threads through the cross-shard CAS
    /// protocol. Thread `t` owns the entries named `t{t}_*` (entry-level
    /// conflicts are prevented by the upper layer — two clients never
    /// fight over one name — exactly the contract the tandem-style CAS
    /// coordination assumes), but every thread hammers the *same*
    /// directories, so operation heads contend hard. Coordination runs
    /// fully concurrent; the committed moves then apply in commit-gseq
    /// order (each shard's namespace apply is single-writer).
    ///
    /// `plan` is, per thread, the op list `(src_dir, name, dst_dir,
    /// new_name)`. Every op must route cross-shard (asserted): the storm
    /// exists to exercise the CAS protocol, and same-shard ops belong on
    /// the ordinary [`ShardedMds::rename`] fast path — callers filter by
    /// [`ShardedMds::entry_shard`] when building plans.
    pub fn rename_storm(&mut self, plan: &[Vec<(u32, String, u32, String)>]) -> StormReport {
        struct Done {
            txn: XsTxn,
            commit_gseq: u64,
            retries: u32,
        }
        let mut committed: Vec<Done> = Vec::new();
        let mut report = StormReport::default();
        // Resolve routing up front (entry_shard is pure).
        let routed: Vec<Vec<(XsRoute, String, String)>> = plan
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|(sd, n, dd, nn)| {
                        (
                            XsRoute {
                                src_dir: *sd,
                                src_shard: self.entry_shard(*sd, n),
                                dst_dir: *dd,
                                dst_shard: self.entry_shard(*dd, nn),
                            },
                            n.clone(),
                            nn.clone(),
                        )
                    })
                    .collect()
            })
            .collect();
        let seats = &self.seats;
        let gseq = &self.gseq;
        let next_txn = &self.next_txn;
        let results: Vec<Vec<Done>> = std::thread::scope(|scope| {
            let handles: Vec<_> = routed
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        for (route, name, new_name) in ops {
                            assert_ne!(
                                route.src_shard, route.dst_shard,
                                "storm plans must route cross-shard"
                            );
                            match Self::coordinate_xs(
                                seats, gseq, next_txn, *route, name, new_name, None,
                            ) {
                                XsOutcome::Committed {
                                    txn,
                                    commit_gseq,
                                    retries,
                                } => done.push(Done {
                                    txn,
                                    commit_gseq,
                                    retries,
                                }),
                                XsOutcome::Contended { .. } => {
                                    panic!("CAS budget exhausted mid-storm")
                                }
                                XsOutcome::Crashed => unreachable!("no crash injected"),
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("storm thread"))
                .collect()
        });
        for thread_done in results {
            for d in thread_done {
                report.committed += 1;
                report.cas_retries += d.retries as u64;
                report.max_retries_single_op = report.max_retries_single_op.max(d.retries);
                committed.push(d);
            }
        }
        // Apply in global commit order; per-name order is preserved
        // because each thread's ops are sequential.
        committed.sort_by_key(|d| d.commit_gseq);
        for d in &committed {
            self.stats.xs_renames += 1;
            self.stats.xs_attempts += 1 + d.retries as u64;
            self.stats.cas_retries += d.retries as u64;
            self.stats.ops += 1;
            self.stats.hops += 6 + 4 * d.retries as u64;
            self.apply_xs(&d.txn);
        }
        report
    }

    /// Concurrent create storm into one striped directory: threads
    /// journal creates and advance the directory's per-shard operation
    /// heads concurrently, then the creates apply in gseq order. The
    /// §IV-C primary index must come out exactly consistent with the
    /// per-shard stores (`shard_findings` empty) — that is the storm's
    /// whole point.
    pub fn create_storm(&mut self, dir: u32, threads: usize, per_thread: usize) -> StormReport {
        assert!(
            self.dirs[dir as usize].striped,
            "create storms target striped dirs"
        );
        let map = self.map;
        let seats = &self.seats;
        let gseq = &self.gseq;
        let results: Vec<Vec<(u64, String, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        for i in 0..per_thread {
                            let name = format!("t{t}_f{i}");
                            let shard = map.shard_of_entry(dir, &name) as u32;
                            let seat = &seats[shard as usize];
                            // Advance the directory head on the entry's
                            // shard — bounded spin, counted as retries.
                            let mut spins = 0u32;
                            loop {
                                let head = seat.heads.load(dir);
                                if seat.heads.try_advance(dir, head).is_ok() {
                                    break;
                                }
                                spins += 1;
                                assert!(spins < 100_000, "unbounded CAS spin");
                            }
                            let stamp = gseq.fetch_add(1, Ordering::SeqCst);
                            seat.journal(
                                stamp,
                                ShardOp::Ns(ShardNsOp::Create {
                                    dir,
                                    extents: 1,
                                    name: name.clone(),
                                }),
                            );
                            done.push((stamp, name, spins));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("storm thread"))
                .collect()
        });
        let mut report = StormReport::default();
        let mut creates: Vec<(u64, String)> = Vec::new();
        for thread_done in results {
            for (stamp, name, spins) in thread_done {
                report.committed += 1;
                report.cas_retries += spins as u64;
                report.max_retries_single_op = report.max_retries_single_op.max(spins);
                creates.push((stamp, name));
            }
        }
        creates.sort_unstable();
        for (_, name) in &creates {
            let shard = self.entry_shard(dir, name);
            self.apply_create(dir, name, 1, shard);
            self.stats.ops += 1;
            self.stats.hops += 1;
        }
        report
    }
}

// ---- checker support -----------------------------------------------------

impl ShardedMds {
    /// Borrow one shard's MDS (fsck runs the existing single-box meta
    /// rules per shard on top of the cross-shard rules).
    pub fn server(&self, shard: usize) -> &Mds {
        &self.servers[shard]
    }

    /// Mutable access to one shard's MDS — the fsck repair entry point
    /// (targeted single-box repairs run against the owning server). The
    /// caller must not mutate the namespace through this handle; the
    /// cluster's routing tables would not follow.
    pub fn server_mut(&mut self, shard: usize) -> &mut Mds {
        &mut self.servers[shard]
    }

    /// Entries currently indexed for `dir` (name → owning shard).
    pub fn index_entries(&self, dir: u32) -> Vec<(String, u32)> {
        self.dirs[dir as usize]
            .entries
            .iter()
            .map(|(n, e)| (n.clone(), e.shard))
            .collect()
    }

    pub fn entry_count(&self, dir: u32) -> usize {
        self.dirs[dir as usize].entries.len()
    }

    fn store_has(&self, dir: u32, shard: u32, name: &str) -> bool {
        self.dirs[dir as usize].shard_inos[shard as usize]
            .map(|ino| {
                self.servers[shard as usize]
                    .entry_names(ino)
                    .contains(&name.to_string())
            })
            .unwrap_or(false)
    }

    /// Run the cross-shard consistency rules. Deterministic: directories
    /// in id order, entries in name order, WAL-derived rules last.
    pub fn shard_findings(&self) -> Vec<ShardFinding> {
        let mut out = Vec::new();
        // Store-side sweep: who actually holds each entry.
        for (id, d) in self.dirs.iter().enumerate() {
            let dir = id as u32;
            let mut store: BTreeMap<String, Vec<u32>> = BTreeMap::new();
            for (s, ino) in d.shard_inos.iter().enumerate() {
                if let Some(ino) = ino {
                    for n in self.servers[s].entry_names(*ino) {
                        store.entry(n).or_default().push(s as u32);
                    }
                }
            }
            for (name, shards) in &store {
                if shards.len() > 1 {
                    out.push(ShardFinding::EntryDoubled {
                        dir,
                        name: name.clone(),
                        first: shards[0],
                        second: shards[1],
                    });
                    continue;
                }
                match d.entries.get(name) {
                    None => out.push(ShardFinding::EntryOrphan {
                        dir,
                        name: name.clone(),
                        shard: shards[0],
                    }),
                    Some(e) if e.shard != shards[0] => out.push(ShardFinding::HashIndexDrift {
                        dir,
                        name: name.clone(),
                        indexed: e.shard,
                        actual: shards[0],
                    }),
                    Some(_) => {}
                }
            }
            for (name, e) in &d.entries {
                if !store.contains_key(name) {
                    out.push(ShardFinding::EntryMissing {
                        dir,
                        name: name.clone(),
                        shard: e.shard,
                    });
                }
            }
        }
        // WAL-derived rules: journaled promises the live state must keep.
        let images = self.wal_images();
        let mut max_cas: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut intents: HashMap<u64, XsTxn> = HashMap::new();
        let mut commits: Vec<(u64, u64)> = Vec::new(); // (gseq, txn)
        let mut last_touch: HashMap<(u32, String), u64> = HashMap::new();
        let touch = |map: &mut HashMap<(u32, String), u64>, dir: u32, name: &str, g: u64| {
            let e = map.entry((dir, name.to_string())).or_insert(g);
            *e = (*e).max(g);
        };
        for (s, image) in images.iter().enumerate() {
            for rec in ShardRecovery::scan(image, 0).ops {
                match &rec.op {
                    ShardOp::XsCas { dir, new, .. } => {
                        let e = max_cas.entry((s as u32, *dir)).or_insert(0);
                        *e = (*e).max(*new);
                    }
                    ShardOp::XsIntent(t) => {
                        intents.insert(t.txn, t.clone());
                    }
                    ShardOp::XsCommit { txn } => commits.push((rec.gseq, *txn)),
                    ShardOp::Ns(ShardNsOp::Create { dir, name, .. })
                    | ShardOp::Ns(ShardNsOp::Utime { dir, name })
                    | ShardOp::Ns(ShardNsOp::Unlink { dir, name }) => {
                        touch(&mut last_touch, *dir, name, rec.gseq);
                    }
                    ShardOp::Ns(ShardNsOp::Rename {
                        src,
                        dst,
                        name,
                        new_name,
                    }) => {
                        touch(&mut last_touch, *src, name, rec.gseq);
                        touch(&mut last_touch, *dst, new_name, rec.gseq);
                    }
                    ShardOp::Ns(ShardNsOp::Mkdir { .. }) => {}
                }
            }
        }
        for ((shard, dir), journaled) in &max_cas {
            let head = self.seats[*shard as usize].heads.load(*dir);
            if head < *journaled {
                out.push(ShardFinding::HeadRegression {
                    shard: *shard,
                    dir: *dir,
                    head,
                    journaled: *journaled,
                });
            }
        }
        // A transaction commits on both streams; judge it at its *last*
        // commit stamp, and mark its endpoints as touched at that same
        // stamp so the txn's own records never mask it.
        let mut commit_at: HashMap<u64, u64> = HashMap::new();
        for (gseq, txn) in &commits {
            let e = commit_at.entry(*txn).or_insert(*gseq);
            *e = (*e).max(*gseq);
        }
        for (txn, gseq) in &commit_at {
            if let Some(t) = intents.get(txn) {
                touch(&mut last_touch, t.src_dir, &t.name, *gseq);
                touch(&mut last_touch, t.dst_dir, &t.new_name, *gseq);
            }
        }
        // A committed move must be visible in the stores — unless a later
        // record legitimately touched either endpoint name again.
        let mut judged: Vec<(u64, u64)> = commit_at.into_iter().collect();
        judged.sort_unstable();
        for (txn, gseq) in &judged {
            let Some(t) = intents.get(txn) else { continue };
            let src_latest = last_touch
                .get(&(t.src_dir, t.name.clone()))
                .is_none_or(|g| *g <= *gseq);
            let dst_latest = last_touch
                .get(&(t.dst_dir, t.new_name.clone()))
                .is_none_or(|g| *g <= *gseq);
            if src_latest
                && dst_latest
                && self.store_has(t.src_dir, t.src_shard, &t.name)
                && !self.store_has(t.dst_dir, t.dst_shard, &t.new_name)
            {
                out.push(ShardFinding::CommitUnapplied { txn: t.clone() });
            }
        }
        out
    }

    /// Repair one finding in place. Returns whether anything changed.
    /// Directions are fixed: the per-shard stores are the namespace's
    /// source of truth for index drift, the WAL is the source of truth
    /// for heads and committed moves.
    pub fn repair(&mut self, finding: &ShardFinding) -> bool {
        match finding {
            ShardFinding::EntryMissing { dir, name, .. } => {
                self.dirs[*dir as usize].entries.remove(name).is_some()
            }
            ShardFinding::EntryOrphan { dir, name, shard } => self.dirs[*dir as usize]
                .entries
                .insert(
                    name.clone(),
                    SEntry {
                        shard: *shard,
                        extents: 0,
                    },
                )
                .is_none(),
            ShardFinding::EntryDoubled { dir, name, .. } => {
                // Keep the copy the stable map says should exist; unlink
                // every other.
                let keep = self.entry_shard(*dir, name);
                let mut changed = false;
                for s in 0..self.shards() as u32 {
                    if s != keep && self.store_has(*dir, s, name) {
                        let ino = self.dirs[*dir as usize].shard_inos[s as usize]
                            .expect("store_has implies a seat");
                        self.servers[s as usize].unlink(ino, name);
                        changed = true;
                    }
                }
                if let Some(e) = self.dirs[*dir as usize].entries.get_mut(name) {
                    if e.shard != keep {
                        e.shard = keep;
                        changed = true;
                    }
                }
                changed
            }
            ShardFinding::HashIndexDrift {
                dir, name, actual, ..
            } => match self.dirs[*dir as usize].entries.get_mut(name) {
                Some(e) => {
                    e.shard = *actual;
                    true
                }
                None => false,
            },
            ShardFinding::HeadRegression {
                shard,
                dir,
                journaled,
                ..
            } => {
                self.seats[*shard as usize]
                    .heads
                    .force_at_least(*dir, *journaled);
                true
            }
            ShardFinding::CommitUnapplied { txn } => {
                self.apply_xs(txn);
                true
            }
        }
    }

    // ---- deterministic corruption injectors (test/fsck harness) ---------

    /// Forget an index entry (store keeps the file) → `shard-entry-orphan`.
    pub fn corrupt_forget_index_entry(&mut self, dir: u32, name: &str) {
        self.dirs[dir as usize].entries.remove(name);
    }

    /// Point the index at the wrong shard → `shard-hash-index-drift`.
    pub fn corrupt_misindex_entry(&mut self, dir: u32, name: &str) {
        let actual = self.entry_shard(dir, name);
        let wrong = (actual + 1) % self.shards() as u32;
        self.dirs[dir as usize]
            .entries
            .get_mut(name)
            .expect("entry to corrupt must exist")
            .shard = wrong;
    }

    /// Plant a second store copy on another shard → `shard-entry-doubled`
    /// (striped directories only — others seat one shard).
    pub fn corrupt_double_entry(&mut self, dir: u32, name: &str) {
        assert!(
            self.dirs[dir as usize].striped,
            "doubling needs a second seat"
        );
        let owner = self.entry_shard(dir, name);
        let other = (owner + 1) % self.shards() as u32;
        let ino = self.dirs[dir as usize].shard_inos[other as usize]
            .expect("striped dirs seat every shard");
        self.servers[other as usize].create(ino, name, 1);
    }

    /// Drop the store copy (index keeps the entry) → `shard-entry-missing`.
    pub fn corrupt_drop_store_entry(&mut self, dir: u32, name: &str) {
        let shard = self.dirs[dir as usize]
            .entries
            .get(name)
            .expect("entry to corrupt must exist")
            .shard;
        let ino = self.dirs[dir as usize].shard_inos[shard as usize]
            .expect("indexed shard must seat the directory");
        self.servers[shard as usize].unlink(ino, name);
    }

    /// Wind a live head back below its journaled promises →
    /// `shard-head-regression`.
    pub fn corrupt_head_regression(&mut self, shard: u32, dir: u32) {
        self.seats[shard as usize].heads.corrupt_set(dir, 0);
    }

    /// Erase a committed move from the stores (as if the apply was lost)
    /// → `shard-commit-unapplied`. `txn` must name a committed
    /// transaction; the entry is put back at the source.
    pub fn corrupt_unapply(&mut self, txn: &XsTxn) {
        let dst_ino = self.dirs[txn.dst_dir as usize].shard_inos[txn.dst_shard as usize]
            .expect("destination shard must seat the directory");
        let src_ino = self.dirs[txn.src_dir as usize].shard_inos[txn.src_shard as usize]
            .expect("source shard must seat the directory");
        self.servers[txn.dst_shard as usize].unlink(dst_ino, &txn.new_name);
        self.servers[txn.src_shard as usize].create(src_ino, &txn.name, 1);
        let e = self.dirs[txn.dst_dir as usize]
            .entries
            .remove(&txn.new_name)
            .unwrap_or(SEntry {
                shard: txn.src_shard,
                extents: 1,
            });
        self.dirs[txn.src_dir as usize].entries.insert(
            txn.name.clone(),
            SEntry {
                shard: txn.src_shard,
                extents: e.extents,
            },
        );
    }
}

impl OpHeadTable {
    /// Overwrite a head unconditionally — corruption injection only;
    /// every legitimate path moves heads forward.
    pub fn corrupt_set(&self, dir: u32, value: u64) {
        self.slot(dir).store(value, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_with_distinct_homes(m: &mut ShardedMds) -> (u32, u32) {
        // Keep making directories until two land on different shards, so
        // the test stays meaningful under any (stable) shard map. The map
        // must place *some* pair of the first few dirs apart; assert so a
        // degenerate map can't silently hollow out the test.
        let a = m.mkdir("src_dir");
        for i in 0..8 {
            let b = m.mkdir(&format!("dst_dir{i}"));
            if m.dir_home(a) != m.dir_home(b) {
                return (a, b);
            }
        }
        panic!("shard map put 9 consecutive dirs on one shard");
    }

    #[test]
    fn same_shard_ops_run_the_fast_path() {
        let mut m = ShardedMds::new(4);
        let d = m.mkdir("plain");
        m.create(d, "a", 2);
        m.create(d, "b", 1);
        assert!(m.stat(d, "a"));
        assert!(!m.stat(d, "missing"));
        m.utime(d, "a");
        assert_eq!(m.readdir(d), vec!["a".to_string(), "b".to_string()]);
        m.unlink(d, "b");
        assert_eq!(m.readdir(d), vec!["a".to_string()]);
        assert_eq!(m.stats().xs_renames, 0);
        assert!(m.shard_findings().is_empty());
    }

    #[test]
    fn cross_shard_rename_moves_the_entry() {
        let mut m = ShardedMds::new(4);
        let (a, b) = pair_with_distinct_homes(&mut m);
        m.create(a, "f", 3);
        let retries = m.rename(a, "f", b, "g");
        assert_eq!(retries, 0, "no contention single-threaded");
        assert_eq!(m.readdir(a), Vec::<String>::new());
        assert_eq!(m.readdir(b), vec!["g".to_string()]);
        let s = m.stats();
        assert_eq!(s.xs_renames, 1);
        assert_eq!(s.cas_retries, 0);
        // Both directory heads advanced exactly once.
        assert_eq!(m.head(m.dir_home(a) as usize, a), 1);
        assert_eq!(m.head(m.dir_home(b) as usize, b), 1);
        assert!(m.shard_findings().is_empty());
    }

    #[test]
    fn striped_dir_spreads_and_keeps_index() {
        let mut m = ShardedMds::new(4);
        let d = m.mkdir_striped("big");
        for i in 0..64 {
            m.create(d, &format!("f{i}"), 1);
        }
        // Entries really live on more than one shard.
        let mut seated = HashSet::new();
        for (_, shard) in m.index_entries(d) {
            seated.insert(shard);
        }
        assert!(seated.len() > 1, "striped dir must span shards");
        assert_eq!(m.readdir(d).len(), 64);
        assert!(m.shard_findings().is_empty());
    }

    #[test]
    fn primary_index_saves_stat_hops() {
        let mut m = ShardedMds::new(8);
        let d = m.mkdir_striped("big");
        for i in 0..32 {
            m.create(d, &format!("f{i}"), 1);
        }
        let base = m.stats().hops;
        for i in 0..32 {
            m.stat(d, &format!("f{i}"));
        }
        // Indexed: ≤ 2 hops/stat (a broadcast would pay 8).
        let hops = m.stats().hops - base;
        assert!(hops <= 2 * 32, "indexed stats cost {hops} hops");
    }

    #[test]
    fn sharded_per_op_cost_is_population_independent() {
        // The §IV-C 20M-file projection's load-bearing fact: per-op hops
        // do not grow with the file population (hash routing, no
        // structure that degrades with size). Calibrate small,
        // extrapolate huge.
        let hops_per_op = |files_per_dir: u32| {
            let mut m = ShardedMds::new(4);
            let dirs: Vec<u32> = (0..4)
                .map(|c| m.mkdir_striped(&format!("client{c}")))
                .collect();
            let ops = 4 * files_per_dir as u64;
            let name = |i: u32| format!("file{i:05}");
            let phase = |m: &mut ShardedMds, op: &dyn Fn(&mut ShardedMds, u32, &str)| {
                let h0 = m.stats().hops;
                for i in 0..files_per_dir {
                    for &d in &dirs {
                        op(m, d, &name(i));
                    }
                }
                (m.stats().hops - h0) as f64 / ops as f64
            };
            [
                phase(&mut m, &|m, d, n| m.create(d, n, 1)),
                phase(&mut m, &|m, d, n| m.utime(d, n)),
                phase(&mut m, &|m, d, n| assert!(m.stat(d, n))),
                phase(&mut m, &|m, d, n| m.unlink(d, n)),
            ]
        };
        let (small, big) = (hops_per_op(250), hops_per_op(1000));
        for (phase, (a, b)) in ["create", "utime", "stat", "unlink"]
            .iter()
            .zip(small.iter().zip(&big))
        {
            assert!(
                (a - b).abs() / a < 0.05,
                "{phase}: {a:.3} vs {b:.3} hops/op must stay flat"
            );
        }
    }

    #[test]
    fn recovery_replays_the_namespace() {
        let mut m = ShardedMds::new(4);
        let (a, b) = pair_with_distinct_homes(&mut m);
        let big = m.mkdir_striped("big");
        for i in 0..16 {
            m.create(big, &format!("f{i}"), 1);
        }
        m.create(a, "x", 2);
        m.create(a, "y", 1);
        m.rename(a, "x", b, "z");
        m.unlink(a, "y");
        let recovered = ShardedMds::recover(&m.wal_images(), 4);
        assert_eq!(recovered.snapshot(), m.snapshot());
        assert!(recovered.shard_findings().is_empty());
        // Idempotent: recovering the recovered cluster changes nothing.
        let twice = ShardedMds::recover(&recovered.wal_images(), 4);
        assert_eq!(twice.snapshot(), m.snapshot());
    }

    #[test]
    fn crash_before_commit_rolls_back_and_after_rolls_forward() {
        for point in XsCrashPoint::ALL {
            let mut m = ShardedMds::new(4);
            let (a, b) = pair_with_distinct_homes(&mut m);
            m.create(a, "f", 1);
            let before = m.snapshot();
            m.rename_crash(a, "f", b, "g", point, None);
            let r = ShardedMds::recover(&m.wal_images(), 4);
            if point.commits() {
                let mut check = ShardedMds::new(4);
                let (ca, cb) = pair_with_distinct_homes(&mut check);
                check.create(ca, "f", 1);
                check.rename(ca, "f", cb, "g");
                assert_eq!(r.snapshot(), check.snapshot(), "{point:?} rolls forward");
            } else {
                assert_eq!(r.snapshot(), before, "{point:?} rolls back");
            }
            assert!(r.shard_findings().is_empty(), "{point:?}");
        }
    }

    #[test]
    fn every_finding_kind_is_found_and_repaired() {
        let mut m = ShardedMds::new(4);
        let d = m.mkdir_striped("big");
        for i in 0..8 {
            m.create(d, &format!("f{i}"), 1);
        }
        let (a, b) = pair_with_distinct_homes(&mut m);
        m.create(a, "mv", 1);
        m.rename(a, "mv", b, "mv2");

        // One injector per rule.
        m.corrupt_forget_index_entry(d, "f0");
        m.corrupt_misindex_entry(d, "f1");
        m.corrupt_double_entry(d, "f2");
        m.corrupt_drop_store_entry(d, "f3");
        m.corrupt_head_regression(m.dir_home(a), a);
        let txn = XsTxn {
            txn: 1,
            src_dir: a,
            dst_dir: b,
            src_shard: m.dir_home(a),
            dst_shard: m.dir_home(b),
            src_head: 0,
            dst_head: 0,
            name: "mv".into(),
            new_name: "mv2".into(),
        };
        m.corrupt_unapply(&txn);

        let findings = m.shard_findings();
        let rules: HashSet<&str> = findings.iter().map(|f| f.rule()).collect();
        for rule in [
            "shard-entry-orphan",
            "shard-hash-index-drift",
            "shard-entry-doubled",
            "shard-entry-missing",
            "shard-head-regression",
            "shard-commit-unapplied",
        ] {
            assert!(rules.contains(rule), "missing {rule}: {findings:?}");
        }
        for f in &findings {
            assert!(m.repair(f), "{f:?} must repair");
        }
        assert!(m.shard_findings().is_empty(), "repair must converge");
    }

    #[test]
    fn rename_storm_is_exactly_once_with_monotone_heads() {
        let mut m = ShardedMds::new(4);
        let (a, b) = pair_with_distinct_homes(&mut m);
        let threads = 4;
        let per_thread = 8;
        let mut plan = Vec::new();
        for t in 0..threads {
            let mut ops = Vec::new();
            for i in 0..per_thread {
                let name = format!("t{t}_f{i}");
                m.create(a, &name, 1);
                ops.push((a, name.clone(), b, format!("t{t}_g{i}")));
            }
            plan.push(ops);
        }
        let report = m.rename_storm(&plan);
        assert_eq!(report.committed, (threads * per_thread) as u64);
        // Exactly once: every source entry left, every target arrived.
        assert_eq!(m.entry_count(a), 0);
        assert_eq!(m.entry_count(b), threads * per_thread);
        // A won destination CAS always commits, so that head advanced
        // exactly once per op. The source head may run ahead: a lost
        // destination CAS leaves the source advance behind (heads only
        // move forward) and costs the op one counted retry.
        let n = (threads * per_thread) as u64;
        assert_eq!(m.head(m.dir_home(b) as usize, b), n);
        let src_head = m.head(m.dir_home(a) as usize, a);
        assert!(
            (n..=n + report.cas_retries).contains(&src_head),
            "source head {src_head} outside {n}..={}",
            n + report.cas_retries
        );
        assert!(m.shard_findings().is_empty());
        // The WAL agrees with the live state after a full rebuild.
        let r = ShardedMds::recover(&m.wal_images(), 4);
        assert_eq!(r.snapshot(), m.snapshot());
    }

    #[test]
    fn create_storm_keeps_the_primary_index_consistent() {
        let mut m = ShardedMds::new(4);
        let d = m.mkdir_striped("big");
        let report = m.create_storm(d, 4, 32);
        assert_eq!(report.committed, 4 * 32);
        assert_eq!(m.entry_count(d), 4 * 32);
        assert!(m.shard_findings().is_empty(), "index must stay consistent");
        let r = ShardedMds::recover(&m.wal_images(), 4);
        assert_eq!(r.snapshot(), m.snapshot());
    }
}
