//! Deterministic multiply-rotate hasher for the WPQ's line index.
//!
//! The std `HashMap` defaults to SipHash with per-instance random keys —
//! robust against adversarial keys, but an order of magnitude slower than
//! needed for [`crate::Wpq`]'s line → queue-slot map (at most 64 entries,
//! probed when a miss fills and when a writeback is accepted). Keys are
//! trusted internal integers (cacheline numbers), so an FxHash-style word
//! multiply is enough. The hasher carries no random state: hashing is
//! identical across instances and runs, which is *stronger* determinism
//! than the std default (no code may depend on map iteration order either
//! way). The per-access lookups — cache residency, TLB membership — do
//! not hash at all: see `directory.rs`.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (same constant rustc's FxHash uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word multiply-xor hasher for integer keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — stateless, so identical everywhere.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_across_instances() {
        let mut a = FxHashMap::<u64, u32>::default();
        let mut b = FxHashMap::<u64, u32>::default();
        for i in 0..1000u64 {
            a.insert(i * 7, i as u32);
            b.insert(i * 7, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(a.get(&(i * 7)), b.get(&(i * 7)));
        }
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn distributes_sequential_keys() {
        // Sequential line numbers must not collide into one bucket chain:
        // check the hash spreads the low bits.
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(bh.hash_one(i) & 63);
        }
        assert!(low_bits.len() > 32, "low bits collapse: {}", low_bits.len());
    }
}
