//! A JBOD of independent disks, as used by the paper's IO servers.
//!
//! The file-system layer stripes file data over the array; each disk has its
//! own head, queue and clock. A parallel phase completes when the busiest
//! disk finishes, so elapsed time for a phase is the *maximum* per-disk busy
//! time over that phase — disks genuinely work in parallel.

use crate::disk::Disk;
use crate::fault::{FaultPlan, IoFault};
use crate::geometry::DiskGeometry;
use crate::request::BlockRequest;
use crate::scheduler::SchedulerConfig;
use crate::stats::DiskStats;
use crate::Nanos;

/// A set of independent simulated disks.
#[derive(Debug)]
pub struct DiskArray {
    disks: Vec<Disk>,
}

impl DiskArray {
    /// `n` identical disks with the given geometry.
    pub fn new(n: usize, geometry: DiskGeometry) -> Self {
        assert!(n > 0, "array needs at least one disk");
        Self {
            disks: (0..n).map(|_| Disk::new(geometry.clone())).collect(),
        }
    }

    /// Array with explicit scheduler config and per-disk cache size.
    pub fn with_config(
        n: usize,
        geometry: DiskGeometry,
        sched: SchedulerConfig,
        cache_blocks: usize,
    ) -> Self {
        assert!(n > 0, "array needs at least one disk");
        Self {
            disks: (0..n)
                .map(|_| Disk::with_config(geometry.clone(), sched.clone(), cache_blocks))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.disks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    pub fn disk(&self, i: usize) -> &Disk {
        &self.disks[i]
    }

    pub fn disk_mut(&mut self, i: usize) -> &mut Disk {
        &mut self.disks[i]
    }

    /// Rebuild an array from disks previously taken apart with
    /// [`DiskArray::into_disks`] (the concurrent front-end shards each
    /// member disk behind its own lock, then reassembles on quiesce).
    pub fn from_disks(disks: Vec<Disk>) -> Self {
        assert!(!disks.is_empty(), "array needs at least one disk");
        Self { disks }
    }

    /// Take the array apart into its member disks.
    pub fn into_disks(self) -> Vec<Disk> {
        self.disks
    }

    /// Submit one batch per disk (empty batches allowed); returns the
    /// elapsed wall time of the parallel round = max per-disk service time.
    pub fn submit_round(&mut self, batches: Vec<Vec<BlockRequest>>) -> Nanos {
        assert_eq!(batches.len(), self.disks.len(), "one batch per disk");
        batches
            .into_iter()
            .zip(self.disks.iter_mut())
            .map(|(batch, disk)| disk.submit_batch(batch))
            .max()
            .unwrap_or(0)
    }

    /// Fallible variant of [`DiskArray::submit_round`]: every member disk
    /// gets its batch (the disks are independent — one member faulting
    /// does not stop the others), then the first fault is reported with
    /// the index of the disk that raised it. The surviving members' IO has
    /// been serviced and persists.
    pub fn try_submit_round(
        &mut self,
        batches: Vec<Vec<BlockRequest>>,
    ) -> Result<Nanos, (usize, IoFault)> {
        assert_eq!(batches.len(), self.disks.len(), "one batch per disk");
        let mut elapsed: Nanos = 0;
        let mut first_fault = None;
        for (i, (batch, disk)) in batches.into_iter().zip(self.disks.iter_mut()).enumerate() {
            match disk.try_submit_batch(batch) {
                Ok(t) => elapsed = elapsed.max(t),
                Err(f) => {
                    if first_fault.is_none() {
                        first_fault = Some((i, f));
                    }
                }
            }
        }
        match first_fault {
            Some(f) => Err(f),
            None => Ok(elapsed),
        }
    }

    /// Install the same fault plan on every member disk, reseeded per disk
    /// (`seed + disk index`) so members fault independently but the whole
    /// array replays from one `u64`.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for (i, d) in self.disks.iter_mut().enumerate() {
            let mut p = plan.clone();
            p.seed = plan.seed.wrapping_add(i as u64);
            d.install_faults(p);
        }
    }

    /// Remove fault injectors from every member disk.
    pub fn clear_faults(&mut self) {
        for d in &mut self.disks {
            d.clear_faults();
        }
    }

    /// Restore power on every member disk after injected power cuts.
    pub fn power_restore(&mut self) {
        for d in &mut self.disks {
            d.power_restore();
        }
    }

    /// Aggregate statistics over all member disks.
    pub fn stats_total(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            total.absorb(d.stats());
        }
        total
    }

    /// Per-disk snapshot of statistics.
    pub fn stats_per_disk(&self) -> Vec<DiskStats> {
        self.disks.iter().map(|d| d.stats().clone()).collect()
    }

    /// Drop every disk's cache (cold restart between phases).
    pub fn drop_caches(&mut self) {
        for d in &mut self.disks {
            d.drop_caches();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_elapsed_is_max_of_disks() {
        let mut a = DiskArray::new(2, DiskGeometry::default());
        // Disk 0 does a big transfer, disk 1 a tiny one.
        let t = a.submit_round(vec![
            vec![BlockRequest::write(0, 1024)],
            vec![BlockRequest::write(0, 1)],
        ]);
        let t0 = a.disk(0).clock();
        let t1 = a.disk(1).clock();
        assert_eq!(t, t0.max(t1));
        assert!(t0 > t1);
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let mut a = DiskArray::new(3, DiskGeometry::default());
        assert_eq!(a.submit_round(vec![vec![], vec![], vec![]]), 0);
    }

    #[test]
    fn stats_aggregate_across_disks() {
        let mut a = DiskArray::new(2, DiskGeometry::default());
        a.submit_round(vec![
            vec![BlockRequest::write(0, 4)],
            vec![BlockRequest::write(0, 4)],
        ]);
        let s = a.stats_total();
        assert_eq!(s.dispatched, 2);
        assert_eq!(s.bytes_written, 2 * 4 * 4096);
    }

    #[test]
    #[should_panic(expected = "one batch per disk")]
    fn batch_count_must_match_disks() {
        let mut a = DiskArray::new(2, DiskGeometry::default());
        a.submit_round(vec![vec![]]);
    }

    #[test]
    fn striping_across_more_disks_is_faster() {
        // The same 8 MiB written over 1 disk vs striped over 4.
        let blocks = 2048u64;
        let mut one = DiskArray::new(1, DiskGeometry::default());
        let t1 = one.submit_round(vec![vec![BlockRequest::write(0, blocks)]]);

        let mut four = DiskArray::new(4, DiskGeometry::default());
        let t4 = four.submit_round(
            (0..4)
                .map(|_| vec![BlockRequest::write(0, blocks / 4)])
                .collect(),
        );
        assert!(t4 < t1, "striping must reduce elapsed time");
    }
}
