//! A fast hasher for maps keyed by integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the integer-keyed maps a request probes: the engine's file
/// and stream maps (keyed by `FileId` and `StreamId`), the block cache's
/// bucket index and the disk's readahead contexts. Each integer is folded
/// in with one widening multiply (high half xor low half, so bucket and
/// tag bits both depend on every key bit). Std's SipHash costs more than
/// the rest of a cached window lookup. Like std's, the iteration order it
/// gives is unspecified. It does not resist crafted collisions:
/// `StreamId::pid` is client-chosen, and the worst a client gains is
/// slower window lookups on files it writes (and, as a readahead context
/// is derived from the stream, slower context lookups on disks it reads).
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        let wide = (self.0 ^ n) as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
