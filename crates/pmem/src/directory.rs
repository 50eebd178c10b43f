//! Radix directory: dense integer key → position in a dense vector.
//!
//! [`crate::CacheSim`] and both [`crate::Tlb`] levels keep their residents
//! in a dense vector (victims are picked *by position*) and need "where is
//! line/page `k`?" on every simulated access. Line and page numbers are
//! small dense integers bounded by the media length, so the lookup is two
//! array indexings, as in the hardware the structures model — no hashing,
//! no probing. Like a page table, the directory is two levels deep and a
//! leaf exists only once a key under it has been inserted: building one is
//! free, and memory follows the lines actually touched (4 bytes each).
//!
//! The directory is pure host-side bookkeeping. It never chooses anything —
//! it only answers where the dense vector already put a key — so no
//! simulated count, cycle or crash image can observe it.

/// Keys per leaf (4 KiB of `u32` slots).
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;

type Leaf = Box<[u32; LEAF_LEN]>;

/// Two-level `key → position` table. A slot holds `position + 1`; zero
/// means absent, so a fresh (zeroed) leaf is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Directory {
    /// Indexed by `key >> LEAF_BITS`; grows to the highest key inserted.
    leaves: Vec<Option<Leaf>>,
}

impl Directory {
    #[inline]
    fn split(key: u64) -> (usize, usize) {
        ((key >> LEAF_BITS) as usize, key as usize & (LEAF_LEN - 1))
    }

    /// Position stored for `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<usize> {
        let (hi, lo) = Self::split(key);
        match self.leaves.get(hi)?.as_deref()?[lo] {
            0 => None,
            stored => Some(stored as usize - 1),
        }
    }

    /// Maps `key` to `pos`, replacing any previous position.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, pos: usize) {
        let (hi, lo) = Self::split(key);
        if hi >= self.leaves.len() {
            self.leaves.resize(hi + 1, None);
        }
        let stored = u32::try_from(pos + 1).expect("dense-vector position fits the directory slot");
        self.leaves[hi].get_or_insert_with(|| Box::new([0; LEAF_LEN]))[lo] = stored;
    }

    /// Forgets `key` (no-op when absent). The leaf stays allocated.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) {
        let (hi, lo) = Self::split(key);
        if let Some(Some(leaf)) = self.leaves.get_mut(hi) {
            leaf[lo] = 0;
        }
    }

    /// Forgets every key and frees the leaves.
    pub(crate) fn clear(&mut self) {
        self.leaves.clear();
    }

    /// Leaves currently allocated.
    #[cfg(test)]
    pub(crate) fn leaves_allocated(&self) -> usize {
        self.leaves.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn leaves_appear_on_first_insert_only() {
        let mut d = Directory::default();
        assert_eq!(d.get(5), None);
        assert_eq!(d.get(u64::MAX >> 8), None, "far beyond the root");
        assert_eq!(d.leaves_allocated(), 0);
        d.remove(5);
        assert_eq!(d.leaves_allocated(), 0, "remove never allocates");
        d.insert(5, 0);
        d.insert(LEAF_LEN as u64 - 1, 7);
        assert_eq!(d.leaves_allocated(), 1);
        d.insert(LEAF_LEN as u64, 8);
        assert_eq!(d.leaves_allocated(), 2);
        assert_eq!(d.get(5), Some(0), "position 0 is distinct from absent");
        assert_eq!(d.get(LEAF_LEN as u64 - 1), Some(7));
        assert_eq!(d.get(LEAF_LEN as u64), Some(8));
        d.clear();
        assert_eq!(d.get(5), None);
        assert_eq!(d.leaves_allocated(), 0);
    }

    /// Largest key a 64 MiB pool produces: its last cacheline number (the
    /// last page number is smaller still).
    const MAX_KEY: u64 = (64 << 20) / crate::addr::CACHELINE_BYTES - 1;

    /// Keys on both sides of every leaf edge up to [`MAX_KEY`], plus
    /// arbitrary ones in between.
    fn key() -> impl Strategy<Value = u64> {
        let edges = MAX_KEY >> LEAF_BITS;
        prop_oneof![
            (0..=edges, 0u64..2).prop_map(|(leaf, side)| {
                ((leaf << LEAF_BITS) + side).saturating_sub(1).min(MAX_KEY)
            }),
            (0..=edges).prop_map(|leaf| (leaf << LEAF_BITS) + (LEAF_LEN as u64 - 1)),
            0..=MAX_KEY,
            Just(MAX_KEY),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The directory agrees with a `HashMap` after every operation —
        /// and so does a clone taken mid-run, which must not share leaves
        /// with the original (`Tlb` derives `Clone`).
        #[test]
        fn matches_hash_map_oracle(
            ops in proptest::collection::vec((0u8..10, key(), 0usize..49_152), 1..300),
            clone_at in 0usize..300,
        ) {
            let mut dir = Directory::default();
            let mut oracle: HashMap<u64, usize> = HashMap::new();
            let mut snapshot: Option<(Directory, HashMap<u64, usize>)> = None;
            let mut touched = vec![MAX_KEY];
            for (i, (kind, k, pos)) in ops.into_iter().enumerate() {
                if i == clone_at {
                    snapshot = Some((dir.clone(), oracle.clone()));
                }
                touched.push(k);
                match kind {
                    0..=4 => {
                        dir.insert(k, pos);
                        oracle.insert(k, pos);
                    }
                    5..=7 => {
                        dir.remove(k);
                        oracle.remove(&k);
                    }
                    8 => {}
                    _ => {
                        dir.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(dir.get(k), oracle.get(&k).copied());
            }
            for (d, o) in snapshot.into_iter().chain([(dir, oracle)]) {
                for &k in &touched {
                    prop_assert_eq!(d.get(k), o.get(&k).copied(), "key {}", k);
                    prop_assert_eq!(d.get(k ^ 1), o.get(&(k ^ 1)).copied(), "key {}", k ^ 1);
                }
            }
        }
    }
}
