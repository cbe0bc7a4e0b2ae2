//! The one hash behind every table keyed by a guest address or page: the
//! DBT's L1 index and L2 code cache, failed set, page registry, queues
//! and sweep memo, and the recording protocol's roots.
//!
//! `std`'s default, SipHash, resists keys crafted to collide. The keys
//! here come from the guest binary, but the worst a colliding guest can
//! do is slow its own simulation. A translation probes these tables
//! 16–19 times, and that bookkeeping was about a fifth of a commit-bound
//! run on SipHash (EXPERIMENTS.md). [`AddrHasher`] multiplies the key by
//! a 64-bit odd constant and folds the high half onto the low one.
//! hashbrown takes the bucket from the low bits of the hash and a 7-bit
//! tag from the top ones, so both ends must depend on every key bit: a
//! bare multiply leaves the low bits of aligned addresses at zero, and a
//! hash narrower than 64 bits gives every key one tag. Multi-part keys
//! (the memo's `(address, shape)`) chain their parts through the same
//! multiply; a byte slice (a recorded shape's path) folds byte by byte,
//! FNV-1a style.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by guest address or page, on [`AddrHasher`].
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// A set of guest addresses or pages, on [`AddrHasher`].
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

/// Multiply-and-fold hashing for guest addresses (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

/// FxHash's odd 64-bit multiplier. Folded at 32 it spreads each key set
/// of the tests below over ≥ 1,005 of 1,024 buckets; 2^64 / φ reached
/// only 848 on 16-byte-aligned addresses.
const MUL: u64 = 0x517C_C1B7_2722_0A95;
/// The FNV-1a prime, for the byte path.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl AddrHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(MUL);
    }
}

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    /// Also an enum's discriminant and a slice's length.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// How many of the 1,024 low-10-bit bucket values and of the 128
    /// top-7-bit tags `hash` reaches over `keys`.
    fn spread(keys: &[u32], hash: impl Fn(u32) -> u64) -> (usize, usize) {
        let (mut low, mut top) = (vec![false; 1 << 10], vec![false; 1 << 7]);
        for &k in keys {
            let h = hash(k);
            low[(h & 0x3FF) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        let count = |seen: Vec<bool>| seen.into_iter().filter(|&s| s).count();
        (count(low), count(top))
    }

    /// Word-aligned code addresses, 16-byte-aligned ones and consecutive
    /// page numbers, 4,096 of each.
    fn key_sets() -> [(&'static str, Vec<u32>); 3] {
        let n = 4096u32;
        [
            (
                "word-aligned",
                (0..n).map(|i| 0x0800_0000 + 4 * i).collect(),
            ),
            (
                "16-byte-aligned",
                (0..n).map(|i| 0x0800_0000 + 16 * i).collect(),
            ),
            ("pages", (0..n).map(|i| 0x0800_0000 / 4096 + i).collect()),
        ]
    }

    fn meets_the_bar((low, top): (usize, usize)) -> bool {
        low >= 900 && top == 128
    }

    #[test]
    fn the_address_hash_spreads_over_buckets_and_tags() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        for (name, keys) in key_sets() {
            let s = spread(&keys, |k| build.hash_one(k));
            assert!(meets_the_bar(s), "{name}: {s:?} of (1024, 128)");
        }
    }

    #[test]
    fn the_spread_bar_rejects_a_narrow_or_unfolded_hash() {
        // A 32-bit Fibonacci multiply shifted to 25 bits (one tag for
        // every key) and a bare 64-bit multiply (aligned keys leave its
        // low bits zero) each miss the bar on some key set, so the test
        // above tells them apart.
        let bare = |k: u32| u64::from(k).wrapping_mul(MUL);
        let fib25 = |k: u32| u64::from(k.wrapping_mul(0x9E37_79B1) >> 7);
        for hash in [&bare as &dyn Fn(u32) -> u64, &fib25] {
            let all = key_sets().map(|(_, keys)| meets_the_bar(spread(&keys, hash)));
            assert!(all.contains(&false), "{all:?}");
        }
    }

    #[test]
    fn a_byte_path_key_hashes_by_value() {
        // A recorded shape hashes its path as raw bytes: equal paths
        // hash equal, and a one-entry difference moves the hash.
        let build = BuildHasherDefault::<AddrHasher>::default();
        let path = |last: u32| -> std::sync::Arc<[u32]> { vec![0x0800_0010, last].into() };
        let key = |last| (0x0800_0000u32, path(last));
        assert_eq!(build.hash_one(key(0x20)), build.hash_one(key(0x20)));
        assert_ne!(build.hash_one(key(0x20)), build.hash_one(key(0x24)));
    }
}
