//! Micro-benches for the allocation substrate: the per-extend cost of each
//! policy and the bitmap search primitives.

use mif_alloc::{
    AllocPolicy, BlockBitmap, FileId, GroupedAllocator, OnDemandPolicy, ReservationPolicy,
    StreamId, VanillaPolicy,
};
use mif_bench::micro::bench;

fn bitmap() {
    bench(
        "bitmap/alloc_run 64 blocks in 1M",
        || BlockBitmap::new(1 << 20),
        |mut bm| {
            for i in 0..512u64 {
                bm.alloc_run(i * 128, 64).unwrap();
            }
            bm
        },
    );
    bench(
        "bitmap/alloc_chunks on swiss cheese",
        || {
            let mut bm = BlockBitmap::new(1 << 16);
            for i in (0..(1 << 16)).step_by(8) {
                bm.set_range(i, 5);
            }
            bm
        },
        |mut bm| {
            bm.alloc_chunks(0, 1024);
            bm
        },
    );
}

fn drive(policy: &mut dyn AllocPolicy, alloc: &GroupedAllocator, streams: &[StreamId]) {
    for round in 0..128u64 {
        for (i, &s) in streams.iter().enumerate() {
            policy.extend(alloc, FileId(1), s, i as u64 * 10_000 + round * 4, 4);
        }
    }
}

fn policies() {
    let streams: Vec<StreamId> = (0..8).map(|i| StreamId::new(i, 0)).collect();
    bench(
        "policy/extend 8 streams x 128 appends/vanilla",
        || (GroupedAllocator::new(1 << 20, 16), VanillaPolicy::default()),
        |(alloc, mut p)| {
            drive(&mut p, &alloc, &streams);
            (alloc, p)
        },
    );
    bench(
        "policy/extend 8 streams x 128 appends/reservation",
        || {
            (
                GroupedAllocator::new(1 << 20, 16),
                ReservationPolicy::default(),
            )
        },
        |(alloc, mut p)| {
            drive(&mut p, &alloc, &streams);
            (alloc, p)
        },
    );
    bench(
        "policy/extend 8 streams x 128 appends/on-demand",
        || {
            (
                GroupedAllocator::new(1 << 20, 16),
                OnDemandPolicy::default(),
            )
        },
        |(alloc, mut p)| {
            drive(&mut p, &alloc, &streams);
            (alloc, p)
        },
    );
}

fn main() {
    bitmap();
    policies();
}
