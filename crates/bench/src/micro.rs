//! A minimal wall-clock micro-bench harness (no external dependencies).
//!
//! Each case runs `setup` outside the timed region and `routine` inside
//! it, repeating until both a minimum iteration count and a minimum total
//! runtime are met, then prints min/median/mean. The numbers are for
//! relative comparison between cases in one run — this is deliberately a
//! fraction of what criterion does, in exchange for building hermetically.

use std::hint::black_box;
use std::time::{Duration, Instant};

const MIN_ITERS: usize = 10;
const MIN_TOTAL: Duration = Duration::from_millis(200);
const MAX_ITERS: usize = 1000;

/// Time `routine` over fresh `setup` state; print one summary line and
/// return the median.
pub fn bench<S, R, T>(name: &str, mut setup: S, mut routine: R) -> Duration
where
    S: FnMut() -> T,
    R: FnMut(T) -> T,
{
    let mut samples: Vec<Duration> = Vec::new();
    let mut total = Duration::ZERO;
    while (samples.len() < MIN_ITERS || total < MIN_TOTAL) && samples.len() < MAX_ITERS {
        let state = setup();
        let t0 = Instant::now();
        let out = routine(black_box(state));
        let dt = t0.elapsed();
        black_box(out);
        samples.push(dt);
        total += dt;
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = total / samples.len() as u32;
    println!(
        "{name:<48} min {:>10}  median {:>10}  mean {:>10}  ({} iters)",
        fmt(min),
        fmt(median),
        fmt(mean),
        samples.len()
    );
    median
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_returns() {
        // Just exercise the loop; output goes to stdout.
        bench("noop", || 0u64, |x| x + 1);
    }
}
