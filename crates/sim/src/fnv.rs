//! The one digest of the workspace: every frozen simulated value that is
//! a hash (a [`Stats`](crate::Stats) fingerprint, a sweep digest, a
//! digested series) is 64-bit FNV-1a, so it is stable across builds,
//! processes and hosts and can be frozen in a file.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// let mut h = vta_sim::Fnv1a::default();
/// h.eat(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The digest of no bytes (the FNV offset basis).
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest, in order.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of every byte eaten so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
