//! PostMark workload (§V-D.3, Fig. 10).
//!
//! "PostMark is configured by files-counts=100K, transaction-counts=500K
//! and transaction-size is equal to file size; the three applications all
//! use files of linux kernel code" — a small-file, metadata-intensive mix
//! of creations, deletions, reads and appends across per-client
//! directories. Because files are small, the MDS dominates and the data
//! transfer cost (identical across directory modes) is charged with a flat
//! streaming model.

use mif_mds::{DirMode, InodeNo, Mds, MdsConfig, ROOT_INO};
use mif_rng::SmallRng;
use mif_simdisk::Nanos;

/// Parameters of one PostMark run.
#[derive(Debug, Clone)]
pub struct PostmarkParams {
    /// Concurrent clients, one directory each (paper: 10).
    pub clients: u32,
    /// Initial file pool per client.
    pub files_per_client: u32,
    /// Transactions per client.
    pub transactions_per_client: u32,
    /// File/transaction size in bytes (transaction-size == file size).
    pub file_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostmarkParams {
    fn default() -> Self {
        Self {
            clients: 10,
            files_per_client: 10_000,
            transactions_per_client: 50_000,
            file_bytes: 8 * 1024,
            seed: 99,
        }
    }
}

/// Outcome of one PostMark run.
#[derive(Debug, Clone)]
pub struct PostmarkResult {
    /// Metadata time on the MDS disk.
    pub mds_ns: Nanos,
    /// Flat-model data-transfer time (identical across directory modes).
    pub data_ns: Nanos,
    pub transactions: u64,
}

impl PostmarkResult {
    /// Total execution time (the Fig. 10 quantity).
    pub fn exec_ns(&self) -> Nanos {
        self.mds_ns + self.data_ns
    }
}

/// Run PostMark on a fresh MDS in the given mode.
pub fn run(mode: DirMode, params: &PostmarkParams) -> PostmarkResult {
    let mut mds = Mds::new(MdsConfig::with_mode(mode));
    let mut rng = SmallRng::seed_from_u64(params.seed);

    let dirs: Vec<InodeNo> = (0..params.clients)
        .map(|c| mds.mkdir(ROOT_INO, &format!("pm{c}")))
        .collect();

    // ---- pool creation ----------------------------------------------------
    let mut pools: Vec<Vec<String>> = vec![Vec::new(); params.clients as usize];
    let mut serial = 0u64;
    let mut data_bytes: u64 = 0;
    for i in 0..params.files_per_client {
        for (c, &dir) in dirs.iter().enumerate() {
            let name = format!("p{i}_{serial}");
            serial += 1;
            mds.create(dir, &name, 1);
            data_bytes += params.file_bytes;
            pools[c].push(name);
        }
    }
    mds.sync();

    // ---- transactions -------------------------------------------------------
    let mut transactions = 0u64;
    for _ in 0..params.transactions_per_client {
        for (c, &dir) in dirs.iter().enumerate() {
            transactions += 1;
            let pool = &mut pools[c];
            match rng.gen_range(0..4) {
                // create
                0 => {
                    let name = format!("t{serial}");
                    serial += 1;
                    mds.create(dir, &name, 1);
                    data_bytes += params.file_bytes;
                    pool.push(name);
                }
                // delete
                1 if !pool.is_empty() => {
                    let idx = rng.gen_range(0..pool.len());
                    let name = pool.swap_remove(idx);
                    mds.unlink(dir, &name);
                }
                // read: open (getlayout) + data transfer
                2 if !pool.is_empty() => {
                    let name = &pool[rng.gen_range(0..pool.len())];
                    mds.getlayout(dir, name);
                    data_bytes += params.file_bytes;
                }
                // append: lookup + setattr + data transfer
                _ if !pool.is_empty() => {
                    let name = pool[rng.gen_range(0..pool.len())].clone();
                    mds.utime(dir, &name);
                    data_bytes += params.file_bytes;
                }
                _ => {}
            }
        }
    }
    mds.sync();

    // Flat streaming data model: small-file payloads move at media rate
    // (striped over the paper's 8 data disks).
    let data_ns = (data_bytes as f64 / (8.0 * 170.0 * 1024.0 * 1024.0) * 1e9) as Nanos;

    PostmarkResult {
        mds_ns: mds.elapsed_ns(),
        data_ns,
        transactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PostmarkParams {
        PostmarkParams {
            clients: 4,
            files_per_client: 300,
            transactions_per_client: 500,
            ..Default::default()
        }
    }

    #[test]
    fn completes_and_counts_transactions() {
        let r = run(DirMode::Normal, &small());
        assert_eq!(r.transactions, 2000);
        assert!(r.exec_ns() > 0);
    }

    #[test]
    fn embedded_is_faster() {
        let n = run(DirMode::Normal, &small());
        let e = run(DirMode::Embedded, &small());
        assert!(
            e.exec_ns() < n.exec_ns(),
            "embedded {} vs normal {}",
            e.exec_ns(),
            n.exec_ns()
        );
    }

    #[test]
    fn improvement_is_moderate_not_magical() {
        // Fig. 10 shows a 4–13% execution-time reduction; with the data
        // transfer time common to both modes the win must stay bounded.
        let n = run(DirMode::Htree, &small());
        let e = run(DirMode::Embedded, &small());
        let reduction = 1.0 - e.exec_ns() as f64 / n.exec_ns() as f64;
        assert!(
            (0.0..0.9).contains(&reduction),
            "reduction {reduction:.2} out of band"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(DirMode::Normal, &small());
        let b = run(DirMode::Normal, &small());
        assert_eq!(a.exec_ns(), b.exec_ns());
    }
}
