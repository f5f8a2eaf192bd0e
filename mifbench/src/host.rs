//! What the host tells us about this process: CPU time, memory, threads.
//! All of it comes from `/proc/self`, so the benchmark is Linux-only.

use std::fs;

fn proc_file(name: &str) -> String {
    fs::read_to_string(format!("/proc/self/{name}"))
        .unwrap_or_else(|e| panic!("mifbench needs /proc/self/{name}: {e}"))
}

/// CPU time of the process: the on-CPU nanoseconds the scheduler accounts
/// to each of its threads (`/proc/self/task/<tid>/schedstat`), summed. The
/// user + system times of `/proc/self/stat` tick every 10 ms, too coarse
/// for an epoch of a second. The threads are listed once, when the clock is
/// made: make it when the threads of the timed section exist.
pub struct CpuClock {
    /// Each thread's schedstat file and the last reading of it. A thread
    /// that has ended (a joined worker may linger in `/proc` for a moment
    /// and so get listed) keeps its last reading.
    tasks: Vec<(String, u64)>,
}

impl CpuClock {
    pub fn new() -> Self {
        let tasks = fs::read_dir("/proc/self/task")
            .expect("mifbench needs /proc/self/task")
            .map(|entry| {
                let tid = entry.expect("reading /proc/self/task").file_name();
                let path = format!("/proc/self/task/{}/schedstat", tid.to_string_lossy());
                (path, 0)
            })
            .collect();
        CpuClock { tasks }
    }

    /// Microseconds of CPU the clock's threads have used so far.
    pub fn read_us(&mut self) -> u64 {
        for (path, last_ns) in &mut self.tasks {
            let on_cpu_ns = fs::read_to_string(&*path).ok().and_then(|stat| {
                stat.split_ascii_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
            });
            if let Some(ns) = on_cpu_ns {
                *last_ns = ns;
            }
        }
        self.tasks.iter().map(|(_, ns)| ns).sum::<u64>() / 1000
    }
}

fn status_field(key: &str) -> u64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}

/// Peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// OS threads this process has right now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Cores the process may run on.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
        assert!(nproc() >= 1);
        let mut clock = CpuClock::new();
        let before = clock.read_us();
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 20 {
            std::hint::black_box(0u64);
        }
        let used = clock.read_us() - before;
        // Other tests may be running on other threads of this process.
        assert!(used >= 5_000, "{used} us of CPU in 20 ms of spinning");
    }
}
