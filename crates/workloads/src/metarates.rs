//! Metarates workload (§V-D.1, Fig. 8).
//!
//! "We used Metarates application, which was an MPI application that
//! coordinated file system accesses from multiple clients... Metarates
//! application enforced each client to work in its own directory; each
//! single directory contained 5000 subfiles." Clients interleave their
//! operations round-robin, which is what scatters the normal layout's
//! checkpoint writes over many block groups.

use mif_mds::{DirMode, InodeNo, Mds, MdsConfig, ROOT_INO};
use mif_simdisk::Nanos;

/// Which Metarates phase to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Create,
    Utime,
    Delete,
    ReaddirStat,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Phase::Create => "create",
            Phase::Utime => "utime",
            Phase::Delete => "delete",
            Phase::ReaddirStat => "readdir-stat",
        })
    }
}

/// Parameters of one Metarates run.
#[derive(Debug, Clone)]
pub struct MetaratesParams {
    /// Concurrent clients, each in its own directory (paper: 10).
    pub clients: u32,
    /// Files per directory (paper: 5000).
    pub files_per_dir: u32,
    /// readdir-stat repetitions (it is a single aggregated op per dir).
    pub readdir_repeats: u32,
}

impl Default for MetaratesParams {
    fn default() -> Self {
        Self {
            clients: 10,
            files_per_dir: 5000,
            readdir_repeats: 1,
        }
    }
}

/// Per-phase outcome.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub phase: Phase,
    /// Operations performed.
    pub ops: u64,
    /// Simulated time the phase took on the MDS disk.
    pub elapsed_ns: Nanos,
    /// Disk accesses (dispatched commands) during the phase — the paper's
    /// bar graph quantity.
    pub disk_accesses: u64,
}

impl PhaseResult {
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Full-run outcome: one result per phase, in execution order.
#[derive(Debug, Clone)]
pub struct MetaratesResult {
    pub phases: Vec<PhaseResult>,
}

impl MetaratesResult {
    pub fn phase(&self, p: Phase) -> &PhaseResult {
        self.phases
            .iter()
            .find(|r| r.phase == p)
            .expect("phase was run")
    }
}

/// Run the standard create → utime → readdir-stat → delete sequence on a
/// fresh MDS in the given directory mode.
pub fn run(mode: DirMode, params: &MetaratesParams) -> MetaratesResult {
    let mut mds = Mds::new(MdsConfig::with_mode(mode));
    run_on(&mut mds, params)
}

/// Run on an existing MDS (the aging harness pre-conditions it first).
pub fn run_on(mds: &mut Mds, params: &MetaratesParams) -> MetaratesResult {
    let dirs: Vec<InodeNo> = (0..params.clients)
        .map(|c| mds.mkdir(ROOT_INO, &format!("client{c}")))
        .collect();
    mds.sync();

    let mut phases = Vec::new();
    let fname = |i: u32| format!("file{i:05}");

    // ---- create ---------------------------------------------------------
    phases.push(run_phase(mds, Phase::Create, params, |mds| {
        let mut ops = 0;
        for i in 0..params.files_per_dir {
            for &dir in &dirs {
                mds.create(dir, &fname(i), 1);
                ops += 1;
            }
        }
        ops
    }));

    // ---- utime -----------------------------------------------------------
    phases.push(run_phase(mds, Phase::Utime, params, |mds| {
        let mut ops = 0;
        for i in 0..params.files_per_dir {
            for &dir in &dirs {
                mds.utime(dir, &fname(i));
                ops += 1;
            }
        }
        ops
    }));

    // ---- readdir-stat (cold cache, like a fresh ls -l) -------------------
    mds.drop_caches();
    phases.push(run_phase(mds, Phase::ReaddirStat, params, |mds| {
        let mut ops = 0;
        for _ in 0..params.readdir_repeats {
            for &dir in &dirs {
                mds.readdir_stat(dir);
                ops += 1;
            }
        }
        ops
    }));

    // ---- delete -----------------------------------------------------------
    phases.push(run_phase(mds, Phase::Delete, params, |mds| {
        let mut ops = 0;
        for i in 0..params.files_per_dir {
            for &dir in &dirs {
                mds.unlink(dir, &fname(i));
                ops += 1;
            }
        }
        ops
    }));

    MetaratesResult { phases }
}

fn run_phase(
    mds: &mut Mds,
    phase: Phase,
    _params: &MetaratesParams,
    body: impl FnOnce(&mut Mds) -> u64,
) -> PhaseResult {
    let t0 = mds.elapsed_ns();
    let a0 = mds.disk_stats().dispatched;
    let ops = body(mds);
    mds.sync();
    PhaseResult {
        phase,
        ops,
        elapsed_ns: mds.elapsed_ns() - t0,
        disk_accesses: mds.disk_stats().dispatched - a0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MetaratesParams {
        MetaratesParams {
            clients: 4,
            files_per_dir: 500,
            readdir_repeats: 1,
        }
    }

    #[test]
    fn all_phases_run_and_count_ops() {
        let r = run(DirMode::Normal, &small());
        assert_eq!(r.phases.len(), 4);
        assert_eq!(r.phase(Phase::Create).ops, 2000);
        assert_eq!(r.phase(Phase::Delete).ops, 2000);
        assert!(r.phase(Phase::Create).elapsed_ns > 0);
    }

    #[test]
    fn embedded_reduces_create_disk_accesses() {
        let n = run(DirMode::Normal, &small());
        let e = run(DirMode::Embedded, &small());
        let (na, ea) = (
            n.phase(Phase::Create).disk_accesses,
            e.phase(Phase::Create).disk_accesses,
        );
        assert!(ea < na, "embedded {ea} vs normal {na}");
    }

    #[test]
    fn embedded_improves_readdir_stat_throughput() {
        let n = run(DirMode::Normal, &small());
        let e = run(DirMode::Embedded, &small());
        assert!(
            e.phase(Phase::ReaddirStat).ops_per_sec() > n.phase(Phase::ReaddirStat).ops_per_sec()
        );
    }

    #[test]
    fn delete_reduction_is_smallest() {
        // §V-D.1: "the proportion to the traditional mode of deletion
        // workload is much less than that of the others" (i.e. the access
        // reduction is smallest for delete).
        let n = run(DirMode::Normal, &small());
        let e = run(DirMode::Embedded, &small());
        let prop =
            |p: Phase| e.phase(p).disk_accesses as f64 / n.phase(p).disk_accesses.max(1) as f64;
        let delete = prop(Phase::Delete);
        let create = prop(Phase::Create);
        assert!(
            delete > create,
            "delete proportion {delete:.2} should exceed create {create:.2}"
        );
    }

    #[test]
    fn htree_close_to_normal_when_cached() {
        // The paper: original Redbud (ext3) ≈ Lustre (ext4/htree) before
        // aging, because lookups hit the MDS cache.
        let n = run(DirMode::Normal, &small());
        let h = run(DirMode::Htree, &small());
        let (nc, hc) = (
            n.phase(Phase::Create).elapsed_ns as f64,
            h.phase(Phase::Create).elapsed_ns as f64,
        );
        let ratio = nc / hc;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "normal vs htree create ratio {ratio:.2}"
        );
    }
}
