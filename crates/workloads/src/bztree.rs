//! BzTree — a latch-free PM range index (Arulraj et al., VLDB'18).
//!
//! The two allocation behaviours that matter for fragmentation (paper
//! §7.3): **internal nodes are copy-on-write** and **leaves are append-only
//! logs** that consolidate when full — "creating less fragmentation", which
//! is why BzTree benefits less from defragmentation than chain-based
//! stores. We reproduce exactly that structure:
//!
//! * inner node (immutable once written): `nkeys@0, keys[31]@8,
//!   children[32]@256` — any child change rebuilds the path (COW);
//! * leaf: `count@0, entries[24]@8` where an entry is `(key, value_ref)`
//!   and a null value ref is a tombstone — inserts and deletes *append*;
//!   full leaves consolidate (and split) with a COW path update.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, checked_header, Workload};

const FANOUT: usize = 32;
const LEAF_CAP: usize = 24;

const T_INNER: TypeId = TypeId(0);
const T_LEAF: TypeId = TypeId(1);
const T_VALUE: TypeId = TypeId(2);

const I_NKEYS: u64 = 0;
const I_KEYS: u64 = 8;
const I_CHILD: u64 = 256;
const INNER_SIZE: u64 = 512;

const L_COUNT: u64 = 0;
const L_ENTRIES: u64 = 8;
const LEAF_SIZE: u64 = 8 + (LEAF_CAP as u64) * 16;

const V_KEY: u64 = 0;
const V_BYTES: u64 = 8;

/// The BzTree range index.
#[derive(Debug, Default)]
pub struct BzTree;

impl BzTree {
    /// Creates the workload.
    pub fn new() -> Self {
        BzTree
    }
}

struct Ops<'a> {
    heap: &'a DefragHeap,
}

/// Result of a mutation below: the subtree was replaced by one or two nodes.
enum Replaced {
    One(PmPtr),
    Two(PmPtr, u64, PmPtr), // left, separator, right
    Unchanged,
}

impl<'a> Ops<'a> {
    fn is_leaf(&self, ctx: &mut Ctx, n: PmPtr) -> bool {
        self.heap.object_header(ctx, n).0 == T_LEAF
    }

    fn new_leaf(&self, ctx: &mut Ctx, entries: &[(u64, PmPtr)]) -> PmPtr {
        let heap = self.heap;
        let leaf = heap.alloc(ctx, T_LEAF, LEAF_SIZE).expect("leaf");
        heap.write_u64(ctx, leaf, L_COUNT, entries.len() as u64);
        for i in 0..LEAF_CAP {
            let (k, v) = entries.get(i).copied().unwrap_or((0, PmPtr::NULL));
            heap.write_u64(ctx, leaf, L_ENTRIES + i as u64 * 16, k);
            heap.store_ref(ctx, leaf, L_ENTRIES + i as u64 * 16 + 8, v);
        }
        heap.persist(ctx, leaf, 0, LEAF_SIZE);
        leaf
    }

    fn new_inner(&self, ctx: &mut Ctx, keys: &[u64], children: &[PmPtr]) -> PmPtr {
        debug_assert_eq!(children.len(), keys.len() + 1);
        debug_assert!(children.len() <= FANOUT);
        let heap = self.heap;
        let inner = heap.alloc(ctx, T_INNER, INNER_SIZE).expect("inner");
        heap.write_u64(ctx, inner, I_NKEYS, keys.len() as u64);
        for (i, &k) in keys.iter().enumerate() {
            heap.write_u64(ctx, inner, I_KEYS + i as u64 * 8, k);
        }
        for i in 0..FANOUT {
            let c = children.get(i).copied().unwrap_or(PmPtr::NULL);
            heap.store_ref(ctx, inner, I_CHILD + i as u64 * 8, c);
        }
        heap.persist(ctx, inner, 0, INNER_SIZE);
        inner
    }

    fn inner_contents(&self, ctx: &mut Ctx, n: PmPtr) -> (Vec<u64>, Vec<PmPtr>) {
        let heap = self.heap;
        let nkeys = heap.read_u64(ctx, n, I_NKEYS) as usize;
        let keys = (0..nkeys)
            .map(|i| heap.read_u64(ctx, n, I_KEYS + i as u64 * 8))
            .collect();
        let children = (0..=nkeys)
            .map(|i| heap.load_ref(ctx, n, I_CHILD + i as u64 * 8))
            .collect();
        (keys, children)
    }

    /// Latest live entries of a leaf's append log (last record wins,
    /// tombstones drop), sorted by key.
    fn live_entries(&self, ctx: &mut Ctx, leaf: PmPtr) -> Vec<(u64, PmPtr)> {
        let heap = self.heap;
        let count = heap.read_u64(ctx, leaf, L_COUNT) as usize;
        let mut map = std::collections::BTreeMap::new();
        for i in 0..count {
            let k = heap.read_u64(ctx, leaf, L_ENTRIES + i as u64 * 16);
            let v = heap.load_ref(ctx, leaf, L_ENTRIES + i as u64 * 16 + 8);
            map.insert(k, v);
        }
        map.into_iter().filter(|(_, v)| !v.is_null()).collect()
    }

    /// Appends `(key, val)` to the leaf log; `Replaced` if consolidation
    /// was needed. `dead_values` collects value objects to free.
    fn leaf_mutate(
        &self,
        ctx: &mut Ctx,
        leaf: PmPtr,
        key: u64,
        val: PmPtr,
        dead: &mut Vec<PmPtr>,
    ) -> Replaced {
        let heap = self.heap;
        // Record any value this key previously held (dead after this op).
        let count = heap.read_u64(ctx, leaf, L_COUNT) as usize;
        for i in (0..count).rev() {
            if heap.read_u64(ctx, leaf, L_ENTRIES + i as u64 * 16) == key {
                let old = heap.load_ref(ctx, leaf, L_ENTRIES + i as u64 * 16 + 8);
                if !old.is_null() {
                    // Null the superseded record: typed marking walks every
                    // ref slot, so a stale reference would pin a freed value.
                    heap.store_ref(ctx, leaf, L_ENTRIES + i as u64 * 16 + 8, PmPtr::NULL);
                    dead.push(old);
                }
                break;
            }
        }
        if count < LEAF_CAP {
            // Append in place — BzTree's cheap path.
            heap.write_u64(ctx, leaf, L_ENTRIES + count as u64 * 16, key);
            heap.store_ref(ctx, leaf, L_ENTRIES + count as u64 * 16 + 8, val);
            heap.persist(ctx, leaf, L_ENTRIES + count as u64 * 16, 16);
            heap.write_u64(ctx, leaf, L_COUNT, count as u64 + 1);
            heap.persist(ctx, leaf, L_COUNT, 8);
            return Replaced::Unchanged;
        }
        // Consolidate.
        let mut live = self.live_entries(ctx, leaf);
        live.retain(|&(k, _)| k != key);
        if !val.is_null() {
            live.push((key, val));
            live.sort_by_key(|&(k, _)| k);
        }
        dead.push(leaf); // a leaf is an ordinary object; free the old one
        if live.len() <= LEAF_CAP * 2 / 3 {
            Replaced::One(self.new_leaf(ctx, &live))
        } else {
            let mid = live.len() / 2;
            let sep = live[mid].0;
            let l = self.new_leaf(ctx, &live[..mid]);
            let r = self.new_leaf(ctx, &live[mid..]);
            Replaced::Two(l, sep, r)
        }
    }

    fn mutate(
        &self,
        ctx: &mut Ctx,
        node: PmPtr,
        key: u64,
        val: PmPtr,
        dead: &mut Vec<PmPtr>,
    ) -> Replaced {
        if self.is_leaf(ctx, node) {
            return self.leaf_mutate(ctx, node, key, val, dead);
        }
        let (keys, children) = self.inner_contents(ctx, node);
        let idx = keys.iter().take_while(|&&k| key >= k).count();
        match self.mutate(ctx, children[idx], key, val, dead) {
            Replaced::Unchanged => Replaced::Unchanged,
            Replaced::One(new_child) => {
                // COW: rebuild this inner with the child swapped.
                let mut cs = children;
                cs[idx] = new_child;
                dead.push(node);
                Replaced::One(self.new_inner(ctx, &keys, &cs))
            }
            Replaced::Two(l, sep, r) => {
                let mut ks = keys;
                let mut cs = children;
                cs[idx] = l;
                ks.insert(idx, sep);
                cs.insert(idx + 1, r);
                dead.push(node);
                if cs.len() <= FANOUT {
                    Replaced::One(self.new_inner(ctx, &ks, &cs))
                } else {
                    let mid = ks.len() / 2;
                    let up = ks[mid];
                    let left = self.new_inner(ctx, &ks[..mid], &cs[..=mid]);
                    let right = self.new_inner(ctx, &ks[mid + 1..], &cs[mid + 1..]);
                    Replaced::Two(left, up, right)
                }
            }
        }
    }

    fn apply(&self, ctx: &mut Ctx, key: u64, val: PmPtr) {
        let heap = self.heap;
        let root = heap.root(ctx);
        let mut dead = Vec::new();
        match self.mutate(ctx, root, key, val, &mut dead) {
            Replaced::Unchanged => {}
            Replaced::One(n) => heap.set_root(ctx, n),
            Replaced::Two(l, sep, r) => {
                let new_root = self.new_inner(ctx, &[sep], &[l, r]);
                heap.set_root(ctx, new_root);
            }
        }
        for d in dead {
            heap.free(ctx, d).expect("free COW-replaced node");
        }
    }

    fn find_leaf(&self, ctx: &mut Ctx, key: u64) -> PmPtr {
        let heap = self.heap;
        let mut node = heap.root(ctx);
        while !self.is_leaf(ctx, node) {
            let (keys, children) = self.inner_contents(ctx, node);
            let idx = keys.iter().take_while(|&&k| key >= k).count();
            node = children[idx];
        }
        node
    }
}

impl Workload for BzTree {
    fn name(&self) -> &'static str {
        "BzTree"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let inner_refs: Vec<u32> = (0..FANOUT as u32).map(|i| I_CHILD as u32 + i * 8).collect();
        reg.register(TypeDesc::new("bz_inner", INNER_SIZE as u32, &inner_refs));
        let leaf_refs: Vec<u32> = (0..LEAF_CAP as u32)
            .map(|i| L_ENTRIES as u32 + i * 16 + 8)
            .collect();
        reg.register(TypeDesc::new("bz_leaf", LEAF_SIZE as u32, &leaf_refs));
        reg.register(TypeDesc::new("bz_value", 0, &[]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let ops = Ops { heap };
        let leaf = ops.new_leaf(ctx, &[]);
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
            Ops { heap }.apply(ctx, key, val);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let ops = Ops { heap };
            if !self.contains(heap, ctx, key) {
                return false;
            }
            // A tombstone append; the displaced value is freed inside.
            ops.apply(ctx, key, PmPtr::NULL);
            true
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let ops = Ops { heap };
            let leaf = ops.find_leaf(ctx, key);
            let count = heap.read_u64(ctx, leaf, L_COUNT) as usize;
            for i in (0..count).rev() {
                if heap.read_u64(ctx, leaf, L_ENTRIES + i as u64 * 16) == key {
                    return !heap
                        .load_ref(ctx, leaf, L_ENTRIES + i as u64 * 16 + 8)
                        .is_null();
                }
            }
            false
        })
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        let ops = Ops { heap };
        let mut got = BTreeSet::new();
        let root = heap.root(ctx);
        // A crash before setup's root store drained leaves an empty tree.
        if !root.is_null() {
            validate_rec(heap, ctx, &ops, root, None, None, &mut got, 0)?;
        }
        check_key_set("BzTree", &got, expected)
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_rec(
    heap: &DefragHeap,
    ctx: &mut Ctx,
    ops: &Ops<'_>,
    node: PmPtr,
    lo: Option<u64>,
    hi: Option<u64>,
    got: &mut BTreeSet<u64>,
    depth: u32,
) -> Result<(), String> {
    if depth > 16 {
        return Err("BzTree: runaway depth".to_owned());
    }
    // A crash image can hold any bits in a reference slot or count word.
    let (kind, cap, count_at) = match checked_header(heap, ctx, node, 0) {
        Some((T_LEAF, size)) if size >= LEAF_SIZE => (T_LEAF, LEAF_CAP, L_COUNT),
        Some((T_INNER, size)) if size >= INNER_SIZE => (T_INNER, FANOUT - 1, I_NKEYS),
        _ => return Err(format!("BzTree: wild node {node}")),
    };
    if heap.read_u64(ctx, node, count_at) > cap as u64 {
        return Err(format!("BzTree: node {node} overflows its {cap} entries"));
    }
    if kind == T_LEAF {
        for (key, val) in ops.live_entries(ctx, node) {
            if lo.is_some_and(|l| key < l) || hi.is_some_and(|h| key >= h) {
                return Err(format!("BzTree: key {key} outside its leaf range"));
            }
            let Some((_, size)) = checked_header(heap, ctx, val, V_BYTES) else {
                return Err(format!("BzTree: wild value {val} for key {key}"));
            };
            if heap.read_u64(ctx, val, V_KEY) != key {
                return Err(format!("BzTree: value key mismatch at {key}"));
            }
            let mut bytes = vec![0u8; (size - V_BYTES) as usize];
            heap.read_bytes(ctx, val, V_BYTES, &mut bytes);
            if !value_matches(key, &bytes) {
                return Err(format!("BzTree: corrupted value for key {key}"));
            }
            if !got.insert(key) {
                return Err(format!("BzTree: duplicate key {key}"));
            }
        }
        return Ok(());
    }
    let (keys, children) = ops.inner_contents(ctx, node);
    for w in keys.windows(2) {
        if w[0] >= w[1] {
            return Err("BzTree: inner keys out of order".to_owned());
        }
    }
    for (i, &child) in children.iter().enumerate() {
        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
        validate_rec(heap, ctx, ops, child, clo, chi, got, depth + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use std::collections::BTreeSet;

    #[test]
    fn appends_then_consolidates() {
        let mut w = BzTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        // More inserts than one leaf holds: forces consolidation + split +
        // COW path rebuilds.
        let expected: BTreeSet<u64> = (0..200u64).map(|i| i * 17 % 1499).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 40);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("tree consistent");
        for &k in &expected {
            assert!(w.contains(&h, &mut ctx, k));
        }
    }

    #[test]
    fn tombstones_hide_keys_and_survive_consolidation() {
        let mut w = BzTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..60u64 {
            w.insert(&h, &mut ctx, k, 40);
            expected.insert(k);
        }
        for k in (0..60u64).step_by(2) {
            assert!(w.delete(&h, &mut ctx, k));
            expected.remove(&k);
            assert!(!w.contains(&h, &mut ctx, k), "tombstone must hide {k}");
        }
        // Keep appending so every leaf consolidates at least once.
        for k in 1000..1100u64 {
            w.insert(&h, &mut ctx, k, 40);
            expected.insert(k);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("tombstones dropped");
    }

    #[test]
    fn cow_frees_replaced_nodes() {
        let mut w = BzTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 0..500u64 {
            w.insert(&h, &mut ctx, k, 40);
        }
        let live = h.pool().stats().live_bytes;
        // Rough bound: live must stay within 3x the raw data volume —
        // replaced COW nodes must be freed, not leaked.
        let raw = 500 * (40 + 16 + 16) + 500 * 16;
        assert!(
            live < 3 * raw,
            "COW must free old nodes: live {live} vs raw {raw}"
        );
    }

    #[test]
    fn survives_interleaved_defragmentation() {
        let mut w = BzTree::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..400u64 {
            w.insert(&h, &mut ctx, k, 40);
            expected.insert(k);
            if k % 2 == 1 && k > 30 {
                w.delete(&h, &mut ctx, k - 30);
                expected.remove(&(k - 30));
            }
            if k % 16 == 0 {
                h.maybe_defrag(&mut ctx);
            }
            h.step_compaction(&mut ctx, 8);
        }
        h.exit(&mut ctx);
        w.validate(&h, &mut ctx, &expected)
            .expect("valid through GC");
    }
}
