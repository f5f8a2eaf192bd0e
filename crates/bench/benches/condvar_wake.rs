//! What a condvar signal costs when nobody waits. std's `notify_one` /
//! `notify_all` make a `FUTEX_WAKE` syscall whether or not a thread sleeps,
//! so `mif-server` counts its sleepers under the lock it already holds and
//! signals only when one exists (docs/SERVER.md, "Who wakes whom"). Each
//! case makes 10 000 calls; divide its time by 10 000 for one call.

use std::sync::{Condvar, Mutex};

use mif_bench::micro::bench;

const CALLS: usize = 10_000;

fn main() {
    let (lock, cv) = (Mutex::new(0usize), Condvar::new());
    bench(
        "condvar/10k notify_one, nobody waits",
        || (),
        |()| {
            for _ in 0..CALLS {
                cv.notify_one();
            }
        },
    );
    bench(
        "condvar/10k notify_all, nobody waits",
        || (),
        |()| {
            for _ in 0..CALLS {
                cv.notify_all();
            }
        },
    );
    // The tail of a push before and after counting sleepers: the lock is
    // taken for the push either way.
    bench(
        "condvar/10k lock + unlock + notify_one",
        || (),
        |()| {
            for _ in 0..CALLS {
                drop(lock.lock().unwrap());
                cv.notify_one();
            }
        },
    );
    bench(
        "condvar/10k lock + read sleepers + unlock",
        || (),
        |()| {
            for _ in 0..CALLS {
                let wake = *lock.lock().unwrap() > 0;
                if wake {
                    cv.notify_one();
                }
            }
        },
    );
}
