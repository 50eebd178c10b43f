//! Key/value generation helpers shared by the workloads and the driver.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Deterministic key stream: a seeded permutation-ish generator that can
/// re-produce the exact sequence for validation.
#[derive(Debug, Clone)]
pub struct KeyGen {
    rng: SmallRng,
    next_fresh: u64,
    salt: u64,
}

impl KeyGen {
    /// Creates a generator from a seed. Generators with different seeds
    /// produce disjoint fresh-key streams (multi-threaded drivers give each
    /// thread its own seed).
    pub fn new(seed: u64) -> Self {
        KeyGen {
            rng: SmallRng::seed_from_u64(seed),
            next_fresh: 1,
            salt: seed,
        }
    }

    /// A key never produced before by *any* generator with a different
    /// seed (the map is a bijection of `counter + salt·2³²`).
    pub fn fresh(&mut self) -> u64 {
        let k = self.next_fresh + (self.salt << 32);
        self.next_fresh += 1;
        // Odd-constant multiplication: bijective on u64, and spreads keys
        // so ordered structures don't degenerate into a stick.
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// One draw for a rank below `len`; no draw when `len` is zero.
    fn pick_rank(&mut self, len: usize) -> Option<usize> {
        (len > 0).then(|| self.rng.gen_range(0..len))
    }

    /// Picks a pseudo-random element of `live` (for deletes); `None` when
    /// empty.
    pub fn pick(&mut self, live: &BTreeSet<u64>) -> Option<u64> {
        let rank = self.pick_rank(live.len())?;
        live.iter().nth(rank).copied()
    }

    /// [`KeyGen::pick`] over a [`LiveKeys`]: the same single draw and the
    /// same rank, without walking the set to reach it.
    pub fn pick_live(&mut self, live: &LiveKeys) -> Option<u64> {
        live.nth(self.pick_rank(live.len())?)
    }

    /// A value size in `[lo, hi]` (Redis uses 240–492, microbenchmarks a
    /// constant 128).
    pub fn value_size(&mut self, lo: usize, hi: usize) -> usize {
        if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// Raw u64 from the stream.
    pub fn raw(&mut self) -> u64 {
        self.rng.gen()
    }
}

/// The drivers' live-key set: an ordered set of `u64` with rank-select, so
/// picking the idx-th smallest key ([`KeyGen::pick_live`]) does not walk
/// idx tree nodes the way `BTreeSet::iter().nth(idx)` does — at 15 k keys
/// per thread that walk was a quarter of the mt driver's host time.
///
/// Keys sit in sorted blocks of at most [`LiveKeys::BLOCK_MAX`]; a lookup
/// binary-searches for the block and then within it, select skips whole
/// blocks by their lengths.
#[derive(Debug, Clone, Default)]
pub struct LiveKeys {
    /// Non-empty sorted blocks; every key of a block is below every key
    /// of the next.
    blocks: Vec<Vec<u64>>,
    len: usize,
}

impl LiveKeys {
    const BLOCK_MAX: usize = 512;

    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first block whose last key is `>= key`.
    fn block_for(&self, key: u64) -> usize {
        self.blocks
            .partition_point(|b| b.last().is_some_and(|&last| last < key))
    }

    /// Adds `key`, returning whether it was new.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::with_capacity(Self::BLOCK_MAX + 1));
        }
        // A key above every block's last extends the last block.
        let b = self.block_for(key).min(self.blocks.len() - 1);
        let block = &mut self.blocks[b];
        let Err(at) = block.binary_search(&key) else {
            return false;
        };
        block.insert(at, key);
        if block.len() > Self::BLOCK_MAX {
            let upper = block.split_off(Self::BLOCK_MAX / 2);
            self.blocks.insert(b + 1, upper);
        }
        self.len += 1;
        true
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let b = self.block_for(key);
        let Some(block) = self.blocks.get_mut(b) else {
            return false;
        };
        let Ok(at) = block.binary_search(&key) else {
            return false;
        };
        block.remove(at);
        if block.is_empty() {
            self.blocks.remove(b);
        }
        self.len -= 1;
        true
    }

    /// The `idx`-th smallest key (0-based).
    pub fn nth(&self, mut idx: usize) -> Option<u64> {
        for block in &self.blocks {
            if let Some(&key) = block.get(idx) {
                return Some(key);
            }
            idx -= block.len();
        }
        None
    }

    /// Keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().flatten().copied()
    }

    /// The same keys as a `BTreeSet` (what [`crate::Workload::validate`]
    /// and the key-set oracles take).
    pub fn to_btree_set(&self) -> BTreeSet<u64> {
        self.iter().collect()
    }
}

/// Fills `buf` with a deterministic pattern derived from `key`, so
/// validators can re-derive and compare stored values.
pub fn value_pattern(key: u64, buf: &mut [u8]) {
    let mut x = key ^ 0xD6E8_FEB8_6659_FD93;
    for chunk in buf.chunks_mut(8) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let b = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&b[..n]);
    }
}

/// Verifies `buf` matches [`value_pattern`] for `key`.
pub fn value_matches(key: u64, buf: &[u8]) -> bool {
    let mut expect = vec![0u8; buf.len()];
    value_pattern(key, &mut expect);
    expect.as_slice() == buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_keys_are_unique() {
        let mut g = KeyGen::new(1);
        let keys: BTreeSet<u64> = (0..10_000).map(|_| g.fresh()).collect();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = KeyGen::new(7);
        let mut b = KeyGen::new(7);
        for _ in 0..100 {
            assert_eq!(a.fresh(), b.fresh());
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn pick_returns_member() {
        let mut g = KeyGen::new(3);
        let live: BTreeSet<u64> = [5, 9, 12].into_iter().collect();
        for _ in 0..20 {
            let k = g.pick(&live).expect("non-empty");
            assert!(live.contains(&k));
        }
        assert_eq!(g.pick(&BTreeSet::new()), None);
    }

    /// 20 k mixed driver-shaped ops: `LiveKeys` and a `BTreeSet` hold the
    /// same keys in the same order, and two generators on the same seed
    /// pick the same victim from each after the same draws — through
    /// block splits (growth past `BLOCK_MAX`) and block removals (the
    /// delete-heavy tail empties them).
    #[test]
    fn live_keys_rank_select_matches_btree_nth() {
        let (mut ga, mut gb) = (KeyGen::new(11), KeyGen::new(11));
        let mut fast = LiveKeys::new();
        let mut slow: BTreeSet<u64> = BTreeSet::new();
        let mut deletes = 0;
        for op in 0..20_000u64 {
            // Grow to ~4 k keys, churn, shrink; the tail loop drains.
            let insert = match op {
                0..=5_999 => op % 6 != 5,
                6_000..=13_999 => op % 2 == 0,
                _ => op % 4 == 0,
            };
            if insert || slow.is_empty() {
                let (ka, kb) = (ga.fresh(), gb.fresh());
                assert_eq!(ka, kb);
                assert!(fast.insert(ka) && slow.insert(kb));
                assert!(!fast.insert(ka), "duplicate insert");
            } else {
                let (ka, kb) = (ga.pick_live(&fast), gb.pick(&slow));
                assert_eq!(ka, kb, "op {op}: different victim");
                let k = ka.expect("non-empty");
                assert!(fast.remove(k) && slow.remove(&k));
                assert!(!fast.remove(k), "double remove");
                deletes += 1;
            }
            assert_eq!(fast.len(), slow.len());
            assert_eq!(ga.raw(), gb.raw(), "op {op}: rng draws diverged");
            if op % 997 == 0 {
                assert!(fast.iter().eq(slow.iter().copied()));
                assert_eq!(fast.to_btree_set(), slow);
                assert!(fast.blocks.iter().all(|b| !b.is_empty()));
            }
        }
        assert!(deletes > 8_000);
        assert_eq!(fast.nth(fast.len()), None);
        while let Some(k) = ga.pick_live(&fast) {
            assert_eq!(gb.pick(&slow), Some(k));
            assert!(fast.remove(k) && slow.remove(&k));
        }
        assert!(fast.blocks.is_empty() && slow.is_empty());
        assert_eq!(ga.pick_live(&LiveKeys::new()), None);
        assert!(!LiveKeys::new().remove(1));
    }

    #[test]
    fn value_pattern_roundtrip() {
        let mut buf = [0u8; 100];
        value_pattern(42, &mut buf);
        assert!(value_matches(42, &buf));
        assert!(!value_matches(43, &buf));
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn value_size_bounds() {
        let mut g = KeyGen::new(9);
        for _ in 0..100 {
            let s = g.value_size(240, 492);
            assert!((240..=492).contains(&s));
        }
        assert_eq!(g.value_size(128, 128), 128);
    }
}
