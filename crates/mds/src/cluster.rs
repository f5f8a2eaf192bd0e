//! Metadata-server clusters: large directories and distribution policies
//! (§IV-C and §IV-D).
//!
//! §IV-C: extreme large directories (the ORNL CrayXT5 case — one file per
//! process, all in one directory) are split over a server cluster. "The
//! cluster using embedded directory algorithm enforces the primary server
//! (manage the parent directory content) to collect the hash value of the
//! subfiles' name. Therefore, to lookup a specific file, the primary server
//! find whether the hash value of the file name exists, avoiding to incur
//! extra interactions with the subordinate servers."
//!
//! §IV-D: the embedded directory assumes related metadata shares a disk —
//! true under *subtree* partitioning ("all metadata in the subtree-based
//! partition are delegated to an individual metadata server"), broken under
//! *hashed-pathname* distribution, where "inode structures of the subfiles
//! in the same directory are often managed by different servers" and
//! embedding cannot help. Both policies are implemented here so the
//! limitation is measurable, not just asserted.

use crate::ids::{InodeNo, ROOT_INO};
use crate::mds::{DirMode, Mds, MdsConfig};
use mif_simdisk::Nanos;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One-way network latency per client/server or server/server hop: 100 µs
/// (GbE RTT/2 class). Shared by [`MdsCluster`] and the sharded namespace.
pub(crate) const NETWORK_HOP_NS: Nanos = 100_000;

/// How metadata objects are spread over the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Directory subtrees are delegated to individual servers; a
    /// directory's sub-files live with it (locality preserved).
    Subtree,
    /// Objects are placed by the hash of their absolute pathname (the
    /// Lustre-DNE/zFS style the paper cites); locality is sacrificed for
    /// balance and embedding cannot co-locate a directory's metadata.
    HashedPath,
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Distribution::Subtree => "subtree",
            Distribution::HashedPath => "hashed-path",
        })
    }
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Where a directory lives across the cluster.
#[derive(Debug)]
struct ClusterDir {
    /// Server owning the directory itself (its content / primary).
    home: usize,
    /// Per-server ino of the mirror directory used to hold the entries
    /// that land on that server (subtree / striped placement).
    shard_inos: Vec<Option<InodeNo>>,
    /// Entry names per server (drives distributed readdir).
    entries_per_server: Vec<Vec<String>>,
    /// Distributed over all servers (extreme large directory, §IV-C).
    striped: bool,
    /// Primary's collected name-hash index (§IV-C); only meaningful for
    /// striped directories.
    hash_index: HashMap<u64, usize>,
}

/// Per-operation cost summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Client→server and server→server messages.
    pub hops: u64,
    /// Operations executed.
    pub ops: u64,
}

/// A cluster of metadata servers.
pub struct MdsCluster {
    servers: Vec<Mds>,
    distribution: Distribution,
    /// Whether striped directories keep a name-hash index at the primary.
    pub primary_hash_index: bool,
    dirs: HashMap<String, ClusterDir>,
    /// Per-server flat table used by the hashed-path distribution: every
    /// directory's entries interleave in it, which is exactly why the
    /// embedded layout cannot co-locate them (§IV-D).
    flat_inos: Vec<Option<InodeNo>>,
    stats: ClusterStats,
    client_ns: Nanos,
    next_home: usize,
}

impl MdsCluster {
    /// Build a cluster of `n` servers in the given directory mode.
    pub fn new(n: usize, mode: DirMode, distribution: Distribution) -> Self {
        assert!(n > 0);
        let servers = (0..n)
            .map(|_| Mds::new(MdsConfig::with_mode(mode)))
            .collect();
        let mut c = Self {
            servers,
            distribution,
            primary_hash_index: true,
            dirs: HashMap::new(),
            flat_inos: vec![None; n],
            stats: ClusterStats::default(),
            client_ns: 0,
            next_home: 0,
        };
        let n = c.servers.len();
        c.dirs.insert(
            "/".into(),
            ClusterDir {
                home: 0,
                shard_inos: {
                    let mut v = vec![None; n];
                    v[0] = Some(ROOT_INO);
                    v
                },
                entries_per_server: vec![Vec::new(); n],
                striped: false,
                hash_index: HashMap::new(),
            },
        );
        c
    }

    fn charge(&mut self, hops: u64, disk_ns: Nanos) {
        self.stats.hops += hops;
        self.stats.ops += 1;
        self.client_ns += hops * NETWORK_HOP_NS + disk_ns;
    }

    /// Which server handles `name` inside `dir`?
    fn server_for(&self, dir: &ClusterDir, dir_path: &str, name: &str) -> usize {
        if dir.striped {
            (hash_of(name) % self.servers.len() as u64) as usize
        } else {
            match self.distribution {
                Distribution::Subtree => dir.home,
                Distribution::HashedPath => {
                    (hash_of(&format!("{dir_path}/{name}")) % self.servers.len() as u64) as usize
                }
            }
        }
    }

    /// Ensure the directory has a shard (mirror dir) on `server`; returns
    /// its ino there. Under hashed-path distribution, non-striped
    /// directories share the server's flat table instead — their entries
    /// interleave with every other directory's.
    fn shard(&mut self, dir_path: &str, server: usize) -> InodeNo {
        let dir = self.dirs.get(dir_path).expect("directory exists");
        let use_flat = self.distribution == Distribution::HashedPath && !dir.striped;
        if use_flat {
            if let Some(ino) = self.flat_inos[server] {
                self.dirs
                    .get_mut(dir_path)
                    .expect("directory exists")
                    .shard_inos[server] = Some(ino);
                return ino;
            }
            let ino = self.servers[server].mkdir(ROOT_INO, "flat-table");
            self.flat_inos[server] = Some(ino);
            self.dirs
                .get_mut(dir_path)
                .expect("directory exists")
                .shard_inos[server] = Some(ino);
            return ino;
        }
        if let Some(ino) = dir.shard_inos[server] {
            return ino;
        }
        let ino = self.servers[server].mkdir(ROOT_INO, &format!("shard:{dir_path}"));
        self.dirs
            .get_mut(dir_path)
            .expect("directory exists")
            .shard_inos[server] = Some(ino);
        ino
    }

    /// The on-server name for an entry (flat tables prefix the directory).
    fn shard_name(&self, dir_path: &str, name: &str) -> String {
        if self.distribution == Distribution::HashedPath && !self.dirs[dir_path].striped {
            format!("{dir_path}/{name}")
        } else {
            name.to_string()
        }
    }

    /// Create a directory. `striped` marks it as an extreme large directory
    /// distributed over every server (§IV-C).
    pub fn mkdir(&mut self, path: &str, striped: bool) {
        assert!(!self.dirs.contains_key(path), "directory exists");
        let home = self.next_home % self.servers.len();
        self.next_home += 1;
        let n = self.servers.len();
        self.dirs.insert(
            path.to_string(),
            ClusterDir {
                home,
                shard_inos: vec![None; n],
                entries_per_server: vec![Vec::new(); n],
                striped,
                hash_index: HashMap::new(),
            },
        );
        let t0 = self.servers[home].elapsed_ns();
        self.shard(path, home);
        let dt = self.servers[home].elapsed_ns() - t0;
        self.charge(1, dt);
    }

    /// Create a file in `dir_path`.
    pub fn create(&mut self, dir_path: &str, name: &str, extents: u32) {
        let dir = self.dirs.get(dir_path).expect("directory exists");
        let striped = dir.striped;
        let home = dir.home;
        let server = self.server_for(dir, dir_path, name);
        let ino = self.shard(dir_path, server);
        let shard_name = self.shard_name(dir_path, name);
        let t0 = self.servers[server].elapsed_ns();
        self.servers[server].create(ino, &shard_name, extents);
        let dt = self.servers[server].elapsed_ns() - t0;
        self.dirs
            .get_mut(dir_path)
            .expect("directory exists")
            .entries_per_server[server]
            .push(name.to_string());
        // Client → owning server; plus, for striped dirs, the primary
        // records the name hash (one extra hop unless the primary IS the
        // owner).
        let mut hops = 1;
        if striped && self.primary_hash_index {
            if server != home {
                hops += 1;
            }
            self.dirs
                .get_mut(dir_path)
                .expect("directory exists")
                .hash_index
                .insert(hash_of(name), server);
        }
        self.charge(hops, dt);
    }

    /// Look a file up (stat). Returns whether it was found.
    pub fn stat(&mut self, dir_path: &str, name: &str) -> bool {
        let dir = self.dirs.get(dir_path).expect("directory exists");
        if dir.striped && !self.primary_hash_index {
            // Without the collected index, the primary must interrogate the
            // subordinate servers until one owns the entry.
            let order: Vec<usize> = (0..self.servers.len()).collect();
            let mut hops = 1; // client → primary
            let mut found = false;
            let mut disk = 0;
            for s in order {
                hops += 1; // primary → subordinate s
                if let Some(ino) = self.dirs[dir_path].shard_inos[s] {
                    let shard_name = self.shard_name(dir_path, name);
                    let t0 = self.servers[s].elapsed_ns();
                    let hit = self.servers[s].lookup(ino, &shard_name).is_some();
                    if hit {
                        self.servers[s].stat(ino, &shard_name);
                    }
                    disk += self.servers[s].elapsed_ns() - t0;
                    if hit {
                        found = true;
                        break;
                    }
                }
            }
            self.charge(hops, disk);
            return found;
        }

        // Direct route: striped dirs consult the primary's hash index (one
        // hop to the primary + one to the owner when they differ);
        // non-striped dirs route by the distribution policy.
        let home = dir.home;
        let striped = dir.striped;
        let server = if striped {
            match dir.hash_index.get(&hash_of(name)) {
                Some(&s) => s,
                None => return false, // index says it does not exist
            }
        } else {
            self.server_for(dir, dir_path, name)
        };
        let Some(ino) = self.dirs[dir_path].shard_inos[server] else {
            self.charge(1, 0);
            return false;
        };
        let shard_name = self.shard_name(dir_path, name);
        let t0 = self.servers[server].elapsed_ns();
        let found = self.servers[server].lookup(ino, &shard_name).is_some();
        if found {
            self.servers[server].stat(ino, &shard_name);
        }
        let dt = self.servers[server].elapsed_ns() - t0;
        let hops = if striped && server != home { 2 } else { 1 };
        self.charge(hops, dt);
        found
    }

    /// Aggregated readdir+stat over the whole (possibly distributed)
    /// directory.
    ///
    /// With subtree or striped placement each shard is a real directory and
    /// streams; under hashed-path distribution a directory's entries sit
    /// interleaved in each server's flat table, so the servers must stat
    /// them individually — there is nothing contiguous to stream, which is
    /// §IV-D's point.
    pub fn readdir_stat(&mut self, dir_path: &str) {
        let striped = self.dirs[dir_path].striped;
        let flat = self.distribution == Distribution::HashedPath && !striped;
        let shards: Vec<(usize, InodeNo)> = self.dirs[dir_path]
            .shard_inos
            .iter()
            .enumerate()
            .filter_map(|(s, ino)| ino.map(|i| (s, i)))
            .collect();
        // A striped readdir is a broadcast: every server is contacted — one
        // hop each — because nobody knows a shard is empty without asking it
        // (the primary index answers point lookups, not enumeration). Only
        // shards that materialized a mirror do disk work, but the hop was
        // still paid. Non-striped directories contact exactly the shards
        // holding entries.
        let mut hops = if striped {
            self.servers.len() as u64
        } else {
            0
        };
        let mut disk_max = 0; // shards scan in parallel
        for (s, ino) in shards {
            if !striped {
                hops += 1;
            }
            let t0 = self.servers[s].elapsed_ns();
            if flat {
                let names = self.dirs[dir_path].entries_per_server[s].clone();
                for name in names {
                    let shard_name = self.shard_name(dir_path, &name);
                    self.servers[s].stat(ino, &shard_name);
                }
            } else {
                self.servers[s].readdir_stat(ino);
            }
            disk_max = disk_max.max(self.servers[s].elapsed_ns() - t0);
        }
        self.charge(hops.max(1), disk_max);
    }

    /// Number of servers a directory's entries occupy (the §IV-D locality
    /// measure: 1 = embeddable, n = scattered).
    pub fn spread_of(&self, dir_path: &str) -> usize {
        self.dirs[dir_path]
            .shard_inos
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Cluster-wide op/hop counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Client-visible serial time (network + disk).
    pub fn client_ns(&self) -> Nanos {
        self.client_ns
    }

    /// Total disk accesses across all servers.
    pub fn disk_accesses(&self) -> u64 {
        self.servers.iter().map(|s| s.disk_stats().dispatched).sum()
    }

    /// Drop every server's block cache (cold-cache measurement phases).
    pub fn drop_caches(&mut self) {
        for s in &mut self.servers {
            s.drop_caches();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_keeps_a_directory_on_one_server() {
        let mut c = MdsCluster::new(4, DirMode::Embedded, Distribution::Subtree);
        c.mkdir("/proj", false);
        for i in 0..200 {
            c.create("/proj", &format!("f{i}"), 1);
        }
        assert_eq!(c.spread_of("/proj"), 1, "subtree preserves locality");
        assert!(c.stat("/proj", "f42"));
        assert!(!c.stat("/proj", "nope"));
    }

    #[test]
    fn hashed_path_scatters_a_directory() {
        let mut c = MdsCluster::new(4, DirMode::Embedded, Distribution::HashedPath);
        c.mkdir("/proj", false);
        for i in 0..200 {
            c.create("/proj", &format!("f{i}"), 1);
        }
        assert!(c.spread_of("/proj") >= 3, "hashing breaks locality (§IV-D)");
        assert!(c.stat("/proj", "f42"));
    }

    #[test]
    fn striped_dir_spreads_over_every_server() {
        let mut c = MdsCluster::new(4, DirMode::Embedded, Distribution::Subtree);
        c.mkdir("/ckpt", true);
        for i in 0..400 {
            c.create("/ckpt", &format!("rank{i:06}"), 1);
        }
        assert_eq!(c.spread_of("/ckpt"), 4);
        assert!(c.stat("/ckpt", "rank000123"));
    }

    #[test]
    fn hash_index_avoids_subordinate_interrogation() {
        // §IV-C: with the primary's collected hashes a lookup goes straight
        // to the owner; without, the primary probes subordinates.
        let run = |index: bool| {
            let mut c = MdsCluster::new(8, DirMode::Embedded, Distribution::Subtree);
            c.primary_hash_index = index;
            c.mkdir("/big", true);
            for i in 0..400 {
                c.create("/big", &format!("rank{i:06}"), 1);
            }
            let h0 = c.stats().hops;
            for i in 0..400 {
                assert!(c.stat("/big", &format!("rank{i:06}")));
            }
            c.stats().hops - h0
        };
        let with_index = run(true);
        let without = run(false);
        assert!(
            with_index * 2 < without,
            "index {with_index} hops vs broadcast {without}"
        );
    }

    #[test]
    fn missing_name_resolved_at_primary_with_index() {
        let mut c = MdsCluster::new(4, DirMode::Embedded, Distribution::Subtree);
        c.mkdir("/big", true);
        c.create("/big", "exists", 1);
        let h0 = c.stats().hops;
        assert!(!c.stat("/big", "missing"));
        // The primary's index answers the miss without touching anyone:
        // no hop was charged beyond the bookkeeping-free early return.
        assert_eq!(c.stats().hops, h0);
    }

    #[test]
    fn readdir_stat_visits_every_shard() {
        let mut c = MdsCluster::new(4, DirMode::Embedded, Distribution::HashedPath);
        c.mkdir("/p", false);
        for i in 0..100 {
            c.create("/p", &format!("f{i}"), 1);
        }
        let h0 = c.stats().hops;
        c.readdir_stat("/p");
        let hops = c.stats().hops - h0;
        assert_eq!(hops as usize, c.spread_of("/p"));
    }

    #[test]
    fn striped_readdir_charges_one_hop_per_contacted_server() {
        // Regression: the fan-out used to be billed only for shards that
        // happened to hold entries. A striped readdir is a broadcast — the
        // empty shards are contacted too (that is how you learn they are
        // empty), so the bill is exactly one hop per server.
        let mut c = MdsCluster::new(8, DirMode::Embedded, Distribution::Subtree);
        c.mkdir("/ckpt", true);
        // Two entries cannot cover eight shards: some mirrors stay
        // unmaterialized, yet all eight servers answer the broadcast.
        c.create("/ckpt", "a", 1);
        c.create("/ckpt", "b", 1);
        assert!(c.spread_of("/ckpt") < 8, "setup: some shards must be empty");
        let h0 = c.stats().hops;
        c.readdir_stat("/ckpt");
        assert_eq!(c.stats().hops - h0, 8, "broadcast bills every server");
    }

    #[test]
    fn primary_index_savings_hold_against_broadcast_readdir() {
        // Pin the §IV-C economics with the corrected accounting: indexed
        // stats stay at 1–2 hops each, while every enumeration pays the
        // full per-server broadcast. The index's per-lookup saving must
        // not be washed out by honest readdir billing.
        let servers = 8;
        let mut c = MdsCluster::new(servers, DirMode::Embedded, Distribution::Subtree);
        c.mkdir("/big", true);
        for i in 0..64 {
            c.create("/big", &format!("rank{i:04}"), 1);
        }
        let h0 = c.stats().hops;
        for i in 0..64 {
            assert!(c.stat("/big", &format!("rank{i:04}")));
        }
        let stat_hops = c.stats().hops - h0;
        assert!(
            stat_hops <= 2 * 64,
            "indexed stat is at most primary+owner: {stat_hops}"
        );
        let h1 = c.stats().hops;
        c.readdir_stat("/big");
        let readdir_hops = c.stats().hops - h1;
        assert_eq!(readdir_hops as usize, servers);
        // 64 indexed stats average under 2 hops; the same work via
        // broadcast enumeration would pay `servers` hops per round.
        assert!(stat_hops < 64 * servers as u64 / 2);
    }
}
