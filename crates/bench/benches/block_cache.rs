//! What one call into the block cache costs. Two seeded request patterns
//! drive a `BlockCache` the way `Disk` does — a read probes the cache, a
//! hit tops the readahead runway up, a miss inserts the request plus a
//! readahead window, a write inserts its blocks:
//!
//! * restart-like, on the service's 65 536-block cache: 8-block reads from
//!   256 streams that read on sequentially and jump one read in 16, and
//!   2-block random writes, 70/30, over four times the cache;
//! * streaming, on an 8 192-block cache: 1 024-block writes appended in
//!   order, each followed by 16 64-block reads of the last 16 384 blocks.
//!
//! Each case replays 20 000 requests on a cache warmed by 50 000 others and
//! prints the median time per cache call after the harness line.

use mif_bench::micro::bench;
use mif_rng::SmallRng;
use mif_simdisk::BlockCache;

const WARM: usize = 50_000;
const OPS: usize = 20_000;
/// A ramped stream's readahead window, in blocks.
const RA: u64 = 64;

enum Req {
    Read(u64, u64),
    Write(u64, u64),
}

/// Serve one request as `Disk` does; returns the cache calls it made.
fn serve(c: &mut BlockCache, req: &Req) -> u64 {
    match *req {
        Req::Write(at, len) => {
            c.insert_range(at, len);
            1
        }
        Req::Read(at, len) if c.contains_range(at, len) => {
            let runway = c.cached_run_len(at + len, RA);
            if runway >= RA / 2 {
                return 2;
            }
            c.insert_range(at + len + runway, RA - runway);
            3
        }
        Req::Read(at, len) => {
            c.insert_range(at, len + RA);
            2
        }
    }
}

fn restart_like(seed: u64, n: usize) -> Vec<Req> {
    let span = 4 * 65_536u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut streams = [0u64; 256];
    (0..n)
        .map(|_| {
            if rng.gen_range(0u32..10) < 3 {
                return Req::Write(rng.gen_range(0..span), 2);
            }
            let s = &mut streams[rng.gen_range(0usize..256)];
            if *s == 0 || rng.gen_range(0u32..16) == 0 {
                *s = rng.gen_range(0..span);
            }
            *s += 8;
            Req::Read(*s - 8, 8)
        })
        .collect()
}

fn streaming(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut head = 16_384u64;
    (0..n)
        .map(|i| {
            if i % 17 == 0 {
                head += 1_024;
                Req::Write(head - 1_024, 1_024)
            } else {
                Req::Read(head - rng.gen_range(64u64..16_384), 64)
            }
        })
        .collect()
}

fn case(name: &str, capacity: usize, pattern: fn(u64, usize) -> Vec<Req>) {
    let (warm, trace) = (pattern(1, WARM), pattern(2, OPS));
    let warmed = || {
        let mut c = BlockCache::new(capacity);
        for r in &warm {
            serve(&mut c, r);
        }
        c
    };
    let mut dry = warmed();
    let calls: u64 = trace.iter().map(|r| serve(&mut dry, r)).sum();
    let median = bench(name, warmed, |mut c| {
        for r in &trace {
            serve(&mut c, r);
        }
        c
    });
    println!(
        "{:<48} {:.1} ns per call ({calls} calls)",
        "",
        median.as_nanos() as f64 / calls as f64
    );
}

fn main() {
    case(
        "block_cache/restart-like, 65 536 blocks",
        65_536,
        restart_like,
    );
    case("block_cache/streaming, 8 192 blocks", 8_192, streaming);
}
