//! FPTree — the hybrid SCM-DRAM B-tree (Oukid et al., SIGMOD'16).
//!
//! FPTree's signature design: **inner nodes live in DRAM** (rebuilt on
//! restart), only leaves are persistent; each leaf carries a *fingerprint*
//! byte per slot so lookups touch one cacheline before probing keys. We
//! model the DRAM layer as a volatile `BTreeMap` of separator → leaf
//! pointer; cached leaf pointers pass through [`DefragHeap::resolve`] (the
//! read barrier) before use, and [`Workload::reopen`] rebuilds the index by
//! walking the persistent leaf chain — exactly what FPTree does after a
//! crash.
//!
//! Leaf layout (payload 560): `next@0, fps[32]@8..40 (1 B each),
//! keys[32]@48..304, vals[32]@304..560`; a slot is live iff its value
//! reference is non-null.
//!
//! Every update commits with one persisted store ([`PathCopy`]): a slot
//! insert or delete with its value-reference store, a split — both halves
//! written fresh — by swinging the predecessor's `next` (or the root).

use std::collections::{BTreeMap, BTreeSet};

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, checked_header, in_data, PathCopy, Workload};

const SLOTS: usize = 32;

const L_NEXT: u64 = 0;
const L_FPS: u64 = 8;
const L_KEYS: u64 = 48;
const L_VALS: u64 = 304;
const LEAF_SIZE: u64 = 560;

const V_KEY: u64 = 0;
const V_BYTES: u64 = 8;

const T_LEAF: TypeId = TypeId(0);
const T_VALUE: TypeId = TypeId(1);

/// The FPTree hybrid index.
#[derive(Debug, Default)]
pub struct FpTree {
    /// DRAM inner layer: lower bound → leaf (a *cached* persistent pointer,
    /// resolved through the barrier on every use).
    index: BTreeMap<u64, PmPtr>,
    /// GC epoch at which the index was last (re)built. After a cycle
    /// terminates, the forwarding table is gone, so every cached pointer
    /// must be re-derived from PM — same as FPTree's restart path.
    epoch: u64,
}

impl FpTree {
    /// Creates the workload.
    pub fn new() -> Self {
        FpTree::default()
    }

    fn fingerprint(key: u64) -> u8 {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
    }

    /// Rebuilds the DRAM index if a defragmentation cycle completed since
    /// it was built (cached pointers may no longer be resolvable).
    fn refresh_epoch(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let e = heap.gc_epoch();
        if e != self.epoch {
            self.rebuild_index(heap, ctx);
            self.epoch = e;
        }
    }

    fn rebuild_index(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.index.clear();
        let mut leaf = heap.root(ctx);
        let mut first = true;
        // A wild link in a crash image ends the chain; `validate` reports it.
        while !leaf.is_null() && in_data(heap, leaf, LEAF_SIZE) {
            let mut min_key = u64::MAX;
            for i in 0..SLOTS {
                if !heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8).is_null() {
                    min_key = min_key.min(heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8));
                }
            }
            let bound = if first { 0 } else { min_key };
            if bound != u64::MAX {
                self.index.insert(bound, leaf);
            }
            first = false;
            leaf = heap.load_ref(ctx, leaf, L_NEXT);
        }
    }

    /// DRAM index lookup + barrier resolution; updates the cached pointer.
    /// Returns the leaf's lower bound too.
    fn leaf_for(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> (u64, PmPtr) {
        let (&bound, &ptr) = self
            .index
            .range(..=key)
            .next_back()
            .expect("index always has the 0 bound");
        let resolved = heap.resolve(ctx, ptr);
        if resolved != ptr {
            self.index.insert(bound, resolved);
        }
        (bound, resolved)
    }

    /// The field holding the persistent link to the leaf at `bound`: the
    /// root for the first leaf, else its chain predecessor's `next`, found
    /// from the index's previous leaf (empty leaves are not indexed).
    fn link_to(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        bound: u64,
        leaf: PmPtr,
    ) -> Option<(PmPtr, u64)> {
        let (_, &prev) = self.index.range(..bound).next_back()?;
        let mut pred = heap.resolve(ctx, prev);
        loop {
            let next = heap.load_ref(ctx, pred, L_NEXT);
            if next == leaf {
                return Some((pred, L_NEXT));
            }
            assert!(!next.is_null(), "FPTree: indexed leaf is off the chain");
            pred = next;
        }
    }

    /// Reads a leaf's live `(key, fingerprint, value)` entries.
    fn entries(heap: &DefragHeap, ctx: &mut Ctx, leaf: PmPtr) -> Vec<(u64, u8, PmPtr)> {
        let mut entries = Vec::new();
        for i in 0..SLOTS as u64 {
            let v = heap.load_ref(ctx, leaf, L_VALS + i * 8);
            if !v.is_null() {
                let k = heap.read_u64(ctx, leaf, L_KEYS + i * 8);
                let mut fp = [0u8; 1];
                heap.read_bytes(ctx, leaf, L_FPS + i, &mut fp);
                entries.push((k, fp[0], v));
            }
        }
        entries
    }

    fn slot_scan(heap: &DefragHeap, ctx: &mut Ctx, leaf: PmPtr, key: u64) -> Option<usize> {
        let fp = Self::fingerprint(key);
        for i in 0..SLOTS {
            let mut b = [0u8; 1];
            heap.read_bytes(ctx, leaf, L_FPS + i as u64, &mut b);
            if b[0] != fp {
                continue;
            }
            let v = heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8);
            if v.is_null() {
                continue;
            }
            if heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8) == key {
                return Some(i);
            }
        }
        None
    }

    fn free_slot(heap: &DefragHeap, ctx: &mut Ctx, leaf: PmPtr) -> Option<usize> {
        (0..SLOTS).find(|&i| heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8).is_null())
    }

    /// Writes a fresh, persisted leaf holding `entries` and linking `next`.
    fn write_leaf(
        pc: &mut PathCopy<'_>,
        ctx: &mut Ctx,
        entries: &[(u64, u8, PmPtr)],
        next: PmPtr,
    ) -> PmPtr {
        let heap = pc.heap;
        let leaf = pc.alloc(ctx, T_LEAF, LEAF_SIZE);
        heap.write_u64(ctx, leaf, L_NEXT, next.raw());
        for i in 0..SLOTS {
            let (k, fp, v) = entries.get(i).copied().unwrap_or((0, 0, PmPtr::NULL));
            let i = i as u64;
            heap.write_u64(ctx, leaf, L_KEYS + i * 8, k);
            heap.write_bytes(ctx, leaf, L_FPS + i, &[fp]);
            heap.write_u64(ctx, leaf, L_VALS + i * 8, v.raw());
        }
        heap.persist(ctx, leaf, 0, LEAF_SIZE);
        leaf
    }
}

impl Workload for FpTree {
    fn name(&self) -> &'static str {
        "FPTree"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let mut refs: Vec<u32> = vec![L_NEXT as u32];
        refs.extend((0..SLOTS as u32).map(|i| L_VALS as u32 + i * 8));
        reg.register(TypeDesc::new("fp_leaf", LEAF_SIZE as u32, &refs));
        reg.register(TypeDesc::new("fp_value", 0, &[]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let mut pc = PathCopy::new(heap);
        let leaf = Self::write_leaf(&mut pc, ctx, &[], PmPtr::NULL);
        pc.commit(ctx, None, leaf);
        self.index.clear();
        self.index.insert(0, leaf);
    }

    fn reopen(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        // FPTree's restart path: rebuild the DRAM inner layer by scanning
        // the persistent leaf chain.
        self.rebuild_index(heap, ctx);
        self.epoch = heap.gc_epoch();
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            self.refresh_epoch(heap, ctx);
            let val = heap
                .alloc(ctx, T_VALUE, V_BYTES + value_size as u64)
                .expect("value");
            heap.write_u64(ctx, val, V_KEY, key);
            let mut bytes = vec![0u8; value_size];
            value_pattern(key, &mut bytes);
            heap.write_bytes(ctx, val, V_BYTES, &bytes);
            heap.persist(ctx, val, 0, V_BYTES + value_size as u64);

            let mut pc = PathCopy::new(heap);
            let (bound, leaf) = self.leaf_for(heap, ctx, key);
            let entry = (key, Self::fingerprint(key), val);
            if let Some(slot) = Self::free_slot(heap, ctx, leaf) {
                // Key and fingerprint go to a free slot, invisible until
                // the value-ref store commits them.
                let slot = slot as u64;
                heap.write_u64(ctx, leaf, L_KEYS + slot * 8, key);
                heap.write_bytes(ctx, leaf, L_FPS + slot, &[entry.1]);
                heap.persist(ctx, leaf, L_KEYS + slot * 8, 8);
                heap.persist(ctx, leaf, L_FPS + slot, 1);
                pc.commit(ctx, Some((leaf, L_VALS + slot * 8)), val);
                return;
            }
            // Split: both halves, the new entry included, are fresh leaves
            // replacing the full one in the chain with one link store.
            let mut entries = Self::entries(heap, ctx, leaf);
            entries.push(entry);
            entries.sort_by_key(|&(k, _, _)| k);
            let (lo, hi) = entries.split_at(entries.len() / 2);
            let next = heap.load_ref(ctx, leaf, L_NEXT);
            let right = Self::write_leaf(&mut pc, ctx, hi, next);
            let left = Self::write_leaf(&mut pc, ctx, lo, right);
            let link = self.link_to(heap, ctx, bound, leaf);
            pc.retire(leaf);
            pc.commit(ctx, link, left);
            self.index.insert(bound, left);
            self.index.insert(hi[0].0, right);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            self.refresh_epoch(heap, ctx);
            let (_, leaf) = self.leaf_for(heap, ctx, key);
            let Some(i) = Self::slot_scan(heap, ctx, leaf, key) else {
                return false;
            };
            let field = L_VALS + i as u64 * 8;
            let mut pc = PathCopy::new(heap);
            pc.retire(heap.load_ref(ctx, leaf, field));
            pc.commit(ctx, Some((leaf, field)), PmPtr::NULL);
            true
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            self.refresh_epoch(heap, ctx);
            let (_, leaf) = self.leaf_for(heap, ctx, key);
            Self::slot_scan(heap, ctx, leaf, key).is_some()
        })
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        // Validate from PM alone (ignore the DRAM index): walk the chain.
        let mut got = BTreeSet::new();
        let mut leaf = heap.root(ctx);
        let mut hops = 0;
        while !leaf.is_null() {
            if !in_data(heap, leaf, LEAF_SIZE) {
                return Err(format!("FPTree: wild leaf {leaf}"));
            }
            for i in 0..SLOTS {
                let v = heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8);
                if v.is_null() {
                    continue;
                }
                let key = heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8);
                let mut fp = [0u8; 1];
                heap.read_bytes(ctx, leaf, L_FPS + i as u64, &mut fp);
                if fp[0] != Self::fingerprint(key) {
                    return Err(format!("FPTree: stale fingerprint for key {key}"));
                }
                let Some((_, size)) = checked_header(heap, ctx, v, V_BYTES) else {
                    return Err(format!("FPTree: wild value {v} for key {key}"));
                };
                if heap.read_u64(ctx, v, V_KEY) != key {
                    return Err(format!("FPTree: value key mismatch at {key}"));
                }
                let mut bytes = vec![0u8; (size - V_BYTES) as usize];
                heap.read_bytes(ctx, v, V_BYTES, &mut bytes);
                if !value_matches(key, &bytes) {
                    return Err(format!("FPTree: corrupted value for key {key}"));
                }
                if !got.insert(key) {
                    return Err(format!("FPTree: duplicate key {key}"));
                }
            }
            hops += 1;
            if hops > 1_000_000 {
                return Err("FPTree: leaf chain cycle".to_owned());
            }
            leaf = heap.load_ref(ctx, leaf, L_NEXT);
        }
        check_key_set("FPTree", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn split_and_lookup_through_dram_index() {
        let mut w = FpTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (0..300u64).map(|i| i * 19 % 2003).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 40);
        }
        for &k in &expected {
            assert!(w.contains(&h, &mut ctx, k), "missing {k}");
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("leaves consistent");
    }

    #[test]
    fn reopen_rebuilds_the_dram_layer() {
        let mut w = FpTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (0..120u64).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 40);
        }
        // Simulate restart: a FRESH FpTree instance (empty index) against
        // the same persistent heap.
        let mut w2 = FpTree::new();
        w2.reopen(&h, &mut ctx);
        for &k in &expected {
            assert!(w2.contains(&h, &mut ctx, k), "index rebuild lost {k}");
        }
        w2.validate(&h, &mut ctx, &expected)
            .expect("consistent after rebuild");
    }

    #[test]
    fn stale_index_refreshes_after_gc_epoch_change() {
        let mut w = FpTree::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..600u64 {
            w.insert(&h, &mut ctx, k, 40);
            expected.insert(k);
            if k % 2 == 0 && k > 40 {
                w.delete(&h, &mut ctx, k - 40);
                expected.remove(&(k - 40));
            }
        }
        // Run whole GC cycles to completion: leaves move, PMFT disappears,
        // the cached index must rebuild via the epoch check.
        while h.maybe_defrag(&mut ctx) {
            while h.step_compaction(&mut ctx, 64) {}
        }
        for &k in expected.iter().take(64) {
            assert!(w.contains(&h, &mut ctx, k), "stale index after GC for {k}");
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("consistent after epochs");
    }
}
