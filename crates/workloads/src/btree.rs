//! BT — the B+tree microbenchmark.
//!
//! A B+tree with 7-key inner nodes and 13-entry leaves; values live in
//! separate variable-sized objects referenced from the leaves. Deletion is
//! lazy (no leaf merging) — matching the paper's observation that BT sees
//! the *smallest* defragmentation benefit because of internal node
//! fragmentation ("one node can store 4 values", §7.2).
//!
//! Inner node (payload 128): `nkeys@0, keys[7]@8..64, children[8]@64..128`.
//! Leaf (payload 224): `next@0, nkeys@8, keys[13]@16..120, vals[13]@120..224`.
//! Value object: `key@0, bytes@8…`.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, Workload};

const INNER_KEYS: usize = 7;
const LEAF_KEYS: usize = 13;

const T_INNER: TypeId = TypeId(0);
const T_LEAF: TypeId = TypeId(1);
const T_VALUE: TypeId = TypeId(2);

// Inner layout.
const I_NKEYS: u64 = 0;
const I_KEYS: u64 = 8;
const I_CHILD: u64 = 64;
const INNER_SIZE: u64 = 128;

// Leaf layout.
const L_NEXT: u64 = 0;
const L_NKEYS: u64 = 8;
const L_KEYS: u64 = 16;
const L_VALS: u64 = 120;
const LEAF_SIZE: u64 = 224;

// Value layout.
const V_KEY: u64 = 0;
const V_BYTES: u64 = 8;

/// The BT microbenchmark.
#[derive(Debug, Default)]
pub struct BplusTree;

impl BplusTree {
    /// Creates the workload.
    pub fn new() -> Self {
        BplusTree
    }
}

struct Ops<'a> {
    heap: &'a DefragHeap,
}

enum Descend {
    Done,
    Split { sep: u64, right: PmPtr },
}

impl<'a> Ops<'a> {
    fn is_leaf(&self, ctx: &mut Ctx, n: PmPtr) -> bool {
        self.heap.object_header(ctx, n).0 == T_LEAF
    }

    fn new_leaf(&self, ctx: &mut Ctx) -> PmPtr {
        let leaf = self.heap.alloc(ctx, T_LEAF, LEAF_SIZE).expect("leaf");
        self.heap.store_ref(ctx, leaf, L_NEXT, PmPtr::NULL);
        self.heap.write_u64(ctx, leaf, L_NKEYS, 0);
        for i in 0..LEAF_KEYS as u64 {
            self.heap.store_ref(ctx, leaf, L_VALS + i * 8, PmPtr::NULL);
        }
        self.heap.persist(ctx, leaf, 0, LEAF_SIZE);
        leaf
    }

    fn new_inner(&self, ctx: &mut Ctx) -> PmPtr {
        let inner = self.heap.alloc(ctx, T_INNER, INNER_SIZE).expect("inner");
        self.heap.write_u64(ctx, inner, I_NKEYS, 0);
        for i in 0..=INNER_KEYS as u64 {
            self.heap
                .store_ref(ctx, inner, I_CHILD + i * 8, PmPtr::NULL);
        }
        self.heap.persist(ctx, inner, 0, INNER_SIZE);
        inner
    }

    fn leaf_insert(&self, ctx: &mut Ctx, leaf: PmPtr, key: u64, val: PmPtr) -> Descend {
        let heap = self.heap;
        let n = heap.read_u64(ctx, leaf, L_NKEYS) as usize;
        if n < LEAF_KEYS {
            // Shift and insert sorted.
            let mut pos = n;
            while pos > 0 && heap.read_u64(ctx, leaf, L_KEYS + (pos as u64 - 1) * 8) > key {
                let k = heap.read_u64(ctx, leaf, L_KEYS + (pos as u64 - 1) * 8);
                let v = heap.load_ref(ctx, leaf, L_VALS + (pos as u64 - 1) * 8);
                heap.write_u64(ctx, leaf, L_KEYS + pos as u64 * 8, k);
                heap.store_ref(ctx, leaf, L_VALS + pos as u64 * 8, v);
                pos -= 1;
            }
            heap.write_u64(ctx, leaf, L_KEYS + pos as u64 * 8, key);
            heap.store_ref(ctx, leaf, L_VALS + pos as u64 * 8, val);
            heap.write_u64(ctx, leaf, L_NKEYS, n as u64 + 1);
            heap.persist(ctx, leaf, 0, LEAF_SIZE);
            return Descend::Done;
        }
        // Split: right leaf takes the upper half.
        let right = self.new_leaf(ctx);
        let half = LEAF_KEYS / 2;
        let mut moved = 0u64;
        for i in half..LEAF_KEYS {
            let k = heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8);
            let v = heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8);
            heap.write_u64(ctx, right, L_KEYS + moved * 8, k);
            heap.store_ref(ctx, right, L_VALS + moved * 8, v);
            moved += 1;
        }
        heap.write_u64(ctx, right, L_NKEYS, moved);
        heap.write_u64(ctx, leaf, L_NKEYS, half as u64);
        // Null the vacated value refs: typed marking walks every ref slot
        // of the node, so stale references would resurrect freed values.
        for i in half..LEAF_KEYS {
            heap.store_ref(ctx, leaf, L_VALS + i as u64 * 8, PmPtr::NULL);
        }
        let old_next = heap.load_ref(ctx, leaf, L_NEXT);
        heap.store_ref(ctx, right, L_NEXT, old_next);
        heap.persist(ctx, right, 0, LEAF_SIZE);
        heap.store_ref(ctx, leaf, L_NEXT, right);
        heap.persist(ctx, leaf, 0, LEAF_SIZE);
        let sep = heap.read_u64(ctx, right, L_KEYS);
        // Re-insert into the proper side.
        if key >= sep {
            self.leaf_insert(ctx, right, key, val);
        } else {
            self.leaf_insert(ctx, leaf, key, val);
        }
        Descend::Split { sep, right }
    }

    fn insert_rec(&self, ctx: &mut Ctx, node: PmPtr, key: u64, val: PmPtr) -> Descend {
        let heap = self.heap;
        if self.is_leaf(ctx, node) {
            return self.leaf_insert(ctx, node, key, val);
        }
        let n = heap.read_u64(ctx, node, I_NKEYS) as usize;
        let mut idx = 0usize;
        while idx < n && key >= heap.read_u64(ctx, node, I_KEYS + idx as u64 * 8) {
            idx += 1;
        }
        let child = heap.load_ref(ctx, node, I_CHILD + idx as u64 * 8);
        match self.insert_rec(ctx, child, key, val) {
            Descend::Done => Descend::Done,
            Descend::Split { sep, right } => {
                if n < INNER_KEYS {
                    // Shift keys/children right of idx.
                    let mut i = n;
                    while i > idx {
                        let k = heap.read_u64(ctx, node, I_KEYS + (i as u64 - 1) * 8);
                        heap.write_u64(ctx, node, I_KEYS + i as u64 * 8, k);
                        let c = heap.load_ref(ctx, node, I_CHILD + i as u64 * 8);
                        heap.store_ref(ctx, node, I_CHILD + (i as u64 + 1) * 8, c);
                        i -= 1;
                    }
                    heap.write_u64(ctx, node, I_KEYS + idx as u64 * 8, sep);
                    heap.store_ref(ctx, node, I_CHILD + (idx as u64 + 1) * 8, right);
                    heap.write_u64(ctx, node, I_NKEYS, n as u64 + 1);
                    heap.persist(ctx, node, 0, INNER_SIZE);
                    return Descend::Done;
                }
                // Split the inner node.
                let mut keys: Vec<u64> = (0..n)
                    .map(|i| heap.read_u64(ctx, node, I_KEYS + i as u64 * 8))
                    .collect();
                let mut kids: Vec<PmPtr> = (0..=n)
                    .map(|i| heap.load_ref(ctx, node, I_CHILD + i as u64 * 8))
                    .collect();
                keys.insert(idx, sep);
                kids.insert(idx + 1, right);
                let mid = keys.len() / 2;
                let up = keys[mid];
                let rnode = self.new_inner(ctx);
                let rkeys = &keys[mid + 1..];
                let rkids = &kids[mid + 1..];
                for (i, &k) in rkeys.iter().enumerate() {
                    heap.write_u64(ctx, rnode, I_KEYS + i as u64 * 8, k);
                }
                for (i, &c) in rkids.iter().enumerate() {
                    heap.store_ref(ctx, rnode, I_CHILD + i as u64 * 8, c);
                }
                heap.write_u64(ctx, rnode, I_NKEYS, rkeys.len() as u64);
                heap.persist(ctx, rnode, 0, INNER_SIZE);
                for (i, &k) in keys[..mid].iter().enumerate() {
                    heap.write_u64(ctx, node, I_KEYS + i as u64 * 8, k);
                }
                for (i, &c) in kids[..=mid].iter().enumerate() {
                    heap.store_ref(ctx, node, I_CHILD + i as u64 * 8, c);
                }
                for i in mid + 1..=INNER_KEYS {
                    heap.store_ref(ctx, node, I_CHILD + i as u64 * 8, PmPtr::NULL);
                }
                heap.write_u64(ctx, node, I_NKEYS, mid as u64);
                heap.persist(ctx, node, 0, INNER_SIZE);
                Descend::Split {
                    sep: up,
                    right: rnode,
                }
            }
        }
    }

    fn find_leaf(&self, ctx: &mut Ctx, key: u64) -> PmPtr {
        let mut node = self.heap.root(ctx);
        while !node.is_null() && !self.is_leaf(ctx, node) {
            let n = self.heap.read_u64(ctx, node, I_NKEYS) as usize;
            let mut idx = 0usize;
            while idx < n && key >= self.heap.read_u64(ctx, node, I_KEYS + idx as u64 * 8) {
                idx += 1;
            }
            node = self.heap.load_ref(ctx, node, I_CHILD + idx as u64 * 8);
        }
        node
    }
}

impl Workload for BplusTree {
    fn name(&self) -> &'static str {
        "BT"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let inner_refs: Vec<u32> = (0..=INNER_KEYS as u32)
            .map(|i| I_CHILD as u32 + i * 8)
            .collect();
        reg.register(TypeDesc::new("bt_inner", INNER_SIZE as u32, &inner_refs));
        let mut leaf_refs: Vec<u32> = vec![L_NEXT as u32];
        leaf_refs.extend((0..LEAF_KEYS as u32).map(|i| L_VALS as u32 + i * 8));
        reg.register(TypeDesc::new("bt_leaf", LEAF_SIZE as u32, &leaf_refs));
        reg.register(TypeDesc::new("bt_value", 0, &[]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let ops = Ops { heap };
        let leaf = ops.new_leaf(ctx);
        heap.set_root(ctx, leaf);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let val = heap
                .alloc(ctx, T_VALUE, V_BYTES + value_size as u64)
                .expect("value");
            heap.write_u64(ctx, val, V_KEY, key);
            let mut bytes = vec![0u8; value_size];
            value_pattern(key, &mut bytes);
            heap.write_bytes(ctx, val, V_BYTES, &bytes);
            heap.persist(ctx, val, 0, V_BYTES + value_size as u64);
            let ops = Ops { heap };
            let root = heap.root(ctx);
            match ops.insert_rec(ctx, root, key, val) {
                Descend::Done => {}
                Descend::Split { sep, right } => {
                    let new_root = ops.new_inner(ctx);
                    heap.write_u64(ctx, new_root, I_NKEYS, 1);
                    heap.write_u64(ctx, new_root, I_KEYS, sep);
                    let old_root = heap.root(ctx);
                    heap.store_ref(ctx, new_root, I_CHILD, old_root);
                    heap.store_ref(ctx, new_root, I_CHILD + 8, right);
                    heap.persist(ctx, new_root, 0, INNER_SIZE);
                    heap.set_root(ctx, new_root);
                }
            }
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let ops = Ops { heap };
            let leaf = ops.find_leaf(ctx, key);
            if leaf.is_null() {
                return false;
            }
            let n = heap.read_u64(ctx, leaf, L_NKEYS) as usize;
            for i in 0..n {
                if heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8) == key {
                    let val = heap.load_ref(ctx, leaf, L_VALS + i as u64 * 8);
                    for j in i..n - 1 {
                        let k = heap.read_u64(ctx, leaf, L_KEYS + (j as u64 + 1) * 8);
                        let v = heap.load_ref(ctx, leaf, L_VALS + (j as u64 + 1) * 8);
                        heap.write_u64(ctx, leaf, L_KEYS + j as u64 * 8, k);
                        heap.store_ref(ctx, leaf, L_VALS + j as u64 * 8, v);
                    }
                    heap.store_ref(ctx, leaf, L_VALS + (n as u64 - 1) * 8, PmPtr::NULL);
                    heap.write_u64(ctx, leaf, L_NKEYS, n as u64 - 1);
                    heap.persist(ctx, leaf, 0, LEAF_SIZE);
                    heap.free(ctx, val).expect("free value");
                    return true;
                }
            }
            false
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let ops = Ops { heap };
            let leaf = ops.find_leaf(ctx, key);
            if leaf.is_null() {
                return false;
            }
            let n = heap.read_u64(ctx, leaf, L_NKEYS) as usize;
            (0..n).any(|i| heap.read_u64(ctx, leaf, L_KEYS + i as u64 * 8) == key)
        })
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        // Walk the leaf chain from the leftmost leaf.
        let ops = Ops { heap };
        let mut node = heap.root(ctx);
        if node.is_null() {
            return check_key_set("BT", &BTreeSet::new(), expected);
        }
        while !ops.is_leaf(ctx, node) {
            node = heap.load_ref(ctx, node, I_CHILD);
        }
        let mut got = BTreeSet::new();
        let mut last: Option<u64> = None;
        let mut leaves = 0u64;
        while !node.is_null() {
            let n = heap.read_u64(ctx, node, L_NKEYS) as usize;
            for i in 0..n {
                let key = heap.read_u64(ctx, node, L_KEYS + i as u64 * 8);
                if last.is_some_and(|l| key <= l) {
                    return Err(format!("BT: leaf chain out of order at key {key}"));
                }
                last = Some(key);
                let val = heap.load_ref(ctx, node, L_VALS + i as u64 * 8);
                if val.is_null() {
                    return Err(format!("BT: null value for key {key}"));
                }
                if heap.read_u64(ctx, val, V_KEY) != key {
                    return Err(format!("BT: value key mismatch at {key}"));
                }
                let (_, size) = heap.object_header(ctx, val);
                let mut bytes = vec![0u8; size as usize - V_BYTES as usize];
                heap.read_bytes(ctx, val, V_BYTES, &mut bytes);
                if !value_matches(key, &bytes) {
                    return Err(format!("BT: corrupted value for key {key}"));
                }
                got.insert(key);
            }
            leaves += 1;
            if leaves > 10_000_000 {
                return Err("BT: leaf chain cycle".to_owned());
            }
            node = heap.load_ref(ctx, node, L_NEXT);
        }
        check_key_set("BT", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use std::collections::BTreeSet;

    #[test]
    fn splits_produce_ordered_leaf_chain() {
        let mut w = BplusTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        // Enough keys to force leaf and inner splits (root growth ≥ 2 levels).
        let keys: Vec<u64> = (0..600).map(|i| i * 13 % 7919).collect();
        let expected: BTreeSet<u64> = keys.iter().copied().collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 48);
        }
        w.validate(&h, &mut ctx, &expected).expect("ordered chain");
        for &k in &expected {
            assert!(w.contains(&h, &mut ctx, k));
        }
    }

    #[test]
    fn lazy_delete_keeps_chain_consistent() {
        let mut w = BplusTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..300u64 {
            w.insert(&h, &mut ctx, k, 48);
            expected.insert(k);
        }
        for k in (0..300u64).step_by(3) {
            assert!(w.delete(&h, &mut ctx, k));
            expected.remove(&k);
        }
        assert!(!w.delete(&h, &mut ctx, 0), "already deleted");
        w.validate(&h, &mut ctx, &expected)
            .expect("consistent after lazy deletes");
    }

    #[test]
    fn survives_interleaved_defragmentation() {
        let mut w = BplusTree::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..500u64 {
            w.insert(&h, &mut ctx, k * 7 % 4096, 48);
            expected.insert(k * 7 % 4096);
            if k % 2 == 0 && k > 20 {
                let victim = (k - 20) * 7 % 4096;
                if expected.remove(&victim) {
                    w.delete(&h, &mut ctx, victim);
                }
            }
            if k % 16 == 0 {
                h.maybe_defrag(&mut ctx);
            }
            h.step_compaction(&mut ctx, 8);
        }
        h.exit(&mut ctx);
        w.validate(&h, &mut ctx, &expected)
            .expect("valid through GC");
        ffccd::validate_heap(&h).expect("heap consistent");
    }
}
