//! What one record costs in the group-commit WAL, from `append` to durable
//! on its media image. Each iteration stages 262 144 write records into a
//! fresh `GroupCommitWal` with a 1 024-slot slab, in two patterns:
//!
//! * the engine's: appends only, so the slab drains itself whenever it
//!   fills, and one `commit_all` at the end;
//! * the server's: a `commit` of the newest record after every 64, as a
//!   worker does at the end of each batch.
//!
//! Each case prints the harness line, then the median ns per record.

use mif_bench::micro::bench;
use mif_mds::{encode_write_record, GroupCommitWal, WriteCommit};

const RECORDS: u64 = 262_144;
const SLAB: usize = 1024;
const SERVER_BATCH: u64 = 64;

fn record(seq: u64, i: u64) -> [u8; mif_mds::WAL_RECORD_BYTES] {
    let w = WriteCommit {
        file: 1 + i % 8,
        stream: i % 512,
        offset: i * 16,
        len: 16,
    };
    encode_write_record(seq, &w)
}

fn case(name: &str, commit_every: Option<u64>) {
    let median = bench(
        name,
        || GroupCommitWal::new(SLAB),
        |wal| {
            for i in 1..=RECORDS {
                let seq = wal.append(|seq| record(seq, i));
                if commit_every.is_some_and(|every| i % every == 0) {
                    wal.commit(seq);
                }
            }
            wal.commit_all();
            wal
        },
    );
    println!(
        "    {:.1} ns per record",
        median.as_nanos() as f64 / RECORDS as f64
    );
}

fn main() {
    case("wal/262k records, engine (slab drains itself)", None);
    case(
        "wal/262k records, server (commit every 64)",
        Some(SERVER_BATCH),
    );
}
