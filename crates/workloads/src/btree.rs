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
//!
//! Updates are crash-atomic via path copying ([`PathCopy`]): an insert or
//! delete writes a fresh leaf — a split writes both halves and copies each
//! inner node it propagates into — and commits with one persisted store of
//! the topmost copy into its parent's child slot (or the root). A leaf
//! chain would give each leaf a second incoming pointer, which one store
//! cannot swing, so `next` stays in the layout but is always null.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, PathCopy, Workload};

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

/// A node's replacement: the copy, plus the separator and right half when
/// it split.
type Replaced = (PmPtr, Option<(u64, PmPtr)>);

fn is_leaf(heap: &DefragHeap, ctx: &mut Ctx, n: PmPtr) -> bool {
    heap.object_header(ctx, n).0 == T_LEAF
}

/// A leaf's `(key, value)` entries, in order.
fn leaf_entries(heap: &DefragHeap, ctx: &mut Ctx, leaf: PmPtr) -> Vec<(u64, PmPtr)> {
    let n = heap.read_u64(ctx, leaf, L_NKEYS);
    (0..n)
        .map(|i| {
            let k = heap.read_u64(ctx, leaf, L_KEYS + i * 8);
            (k, heap.load_ref(ctx, leaf, L_VALS + i * 8))
        })
        .collect()
}

fn inner_keys(heap: &DefragHeap, ctx: &mut Ctx, node: PmPtr) -> Vec<u64> {
    let n = heap.read_u64(ctx, node, I_NKEYS);
    (0..n)
        .map(|i| heap.read_u64(ctx, node, I_KEYS + i * 8))
        .collect()
}

/// An inner node's keys and children.
fn inner_entries(heap: &DefragHeap, ctx: &mut Ctx, node: PmPtr) -> (Vec<u64>, Vec<PmPtr>) {
    let keys = inner_keys(heap, ctx, node);
    let kids = (0..=keys.len() as u64)
        .map(|i| heap.load_ref(ctx, node, I_CHILD + i * 8))
        .collect();
    (keys, kids)
}

/// The index of the child whose range holds `key`: child `i` holds
/// `keys[i-1] <= k < keys[i]`.
fn child_index(keys: &[u64], key: u64) -> usize {
    keys.partition_point(|&k| k <= key)
}

/// Writes a fresh, persisted leaf holding `entries`.
fn write_leaf(pc: &mut PathCopy<'_>, ctx: &mut Ctx, entries: &[(u64, PmPtr)]) -> PmPtr {
    let heap = pc.heap;
    let leaf = pc.alloc(ctx, T_LEAF, LEAF_SIZE);
    heap.write_u64(ctx, leaf, L_NEXT, PmPtr::NULL.raw());
    heap.write_u64(ctx, leaf, L_NKEYS, entries.len() as u64);
    for i in 0..LEAF_KEYS {
        let (k, v) = entries.get(i).copied().unwrap_or((0, PmPtr::NULL));
        heap.write_u64(ctx, leaf, L_KEYS + i as u64 * 8, k);
        heap.write_u64(ctx, leaf, L_VALS + i as u64 * 8, v.raw());
    }
    heap.persist(ctx, leaf, 0, LEAF_SIZE);
    leaf
}

/// Writes a fresh, persisted inner node holding `keys` and `kids`.
fn write_inner(pc: &mut PathCopy<'_>, ctx: &mut Ctx, keys: &[u64], kids: &[PmPtr]) -> PmPtr {
    let heap = pc.heap;
    let node = pc.alloc(ctx, T_INNER, INNER_SIZE);
    heap.write_u64(ctx, node, I_NKEYS, keys.len() as u64);
    for i in 0..=INNER_KEYS {
        if let Some(&k) = keys.get(i) {
            heap.write_u64(ctx, node, I_KEYS + i as u64 * 8, k);
        }
        let c = kids.get(i).copied().unwrap_or(PmPtr::NULL);
        heap.write_u64(ctx, node, I_CHILD + i as u64 * 8, c.raw());
    }
    heap.persist(ctx, node, 0, INNER_SIZE);
    node
}

/// Retires leaf `old` for fresh leaves holding `entries`: one, or two
/// halves when they overflow it (the right half's first key separates
/// them).
fn replace_leaf(
    pc: &mut PathCopy<'_>,
    ctx: &mut Ctx,
    old: PmPtr,
    entries: &[(u64, PmPtr)],
) -> Replaced {
    pc.retire(old);
    if entries.len() <= LEAF_KEYS {
        return (write_leaf(pc, ctx, entries), None);
    }
    let (lo, hi) = entries.split_at(entries.len() / 2);
    let left = write_leaf(pc, ctx, lo);
    (left, Some((hi[0].0, write_leaf(pc, ctx, hi))))
}

/// Retires inner `old` for fresh nodes holding `keys` and `kids`: one, or
/// two halves when they overflow it (the middle key moves up).
fn replace_inner(
    pc: &mut PathCopy<'_>,
    ctx: &mut Ctx,
    old: PmPtr,
    keys: &[u64],
    kids: &[PmPtr],
) -> Replaced {
    pc.retire(old);
    if keys.len() <= INNER_KEYS {
        return (write_inner(pc, ctx, keys, kids), None);
    }
    let mid = keys.len() / 2;
    let left = write_inner(pc, ctx, &keys[..mid], &kids[..=mid]);
    let right = write_inner(pc, ctx, &keys[mid + 1..], &kids[mid + 1..]);
    (left, Some((keys[mid], right)))
}

/// The inner nodes from the root down to `key`'s leaf, each with the
/// index of the child taken, and the leaf.
fn descend(heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> (Vec<(PmPtr, usize)>, PmPtr) {
    let mut path = Vec::new();
    let mut node = heap.root(ctx);
    while !is_leaf(heap, ctx, node) {
        let idx = child_index(&inner_keys(heap, ctx, node), key);
        path.push((node, idx));
        node = heap.load_ref(ctx, node, I_CHILD + idx as u64 * 8);
    }
    (path, node)
}

/// Commits `copy` in place of the child `path`'s last entry points at,
/// or as the new root when `path` is empty.
fn commit(pc: PathCopy<'_>, ctx: &mut Ctx, path: &[(PmPtr, usize)], copy: PmPtr) {
    let at = path.last().map(|&(p, idx)| (p, I_CHILD + idx as u64 * 8));
    pc.commit(ctx, at, copy);
}

/// The in-order walk behind [`BplusTree::validate`]: every key lies within
/// its separator bounds `[lo, hi)` and exceeds every key before it, and
/// every value matches its key.
fn validate_rec(
    heap: &DefragHeap,
    ctx: &mut Ctx,
    node: PmPtr,
    (lo, hi): (Option<u64>, Option<u64>),
    got: &mut BTreeSet<u64>,
    depth: u64,
) -> Result<(), String> {
    if node.is_null() {
        return Err("BT: null child".to_owned());
    }
    if depth > 64 {
        return Err("BT: runaway depth (cycle?)".to_owned());
    }
    let outside = |k: u64| lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h);
    if !is_leaf(heap, ctx, node) {
        if heap.read_u64(ctx, node, I_NKEYS) > INNER_KEYS as u64 {
            return Err("BT: inner node overfull".to_owned());
        }
        let (keys, kids) = inner_entries(heap, ctx, node);
        if keys.windows(2).any(|w| w[0] >= w[1]) || keys.iter().any(|&k| outside(k)) {
            return Err(format!("BT: separators {keys:?} out of order"));
        }
        for (i, &kid) in kids.iter().enumerate() {
            let bounds = (
                i.checked_sub(1).map_or(lo, |j| Some(keys[j])),
                keys.get(i).copied().or(hi),
            );
            validate_rec(heap, ctx, kid, bounds, got, depth + 1)?;
        }
        return Ok(());
    }
    if !heap.load_ref(ctx, node, L_NEXT).is_null() {
        return Err("BT: leaf links a sibling".to_owned());
    }
    if heap.read_u64(ctx, node, L_NKEYS) > LEAF_KEYS as u64 {
        return Err("BT: leaf overfull".to_owned());
    }
    for (key, val) in leaf_entries(heap, ctx, node) {
        if outside(key) {
            return Err(format!("BT: key {key} outside its separator bounds"));
        }
        if got.last().is_some_and(|&l| key <= l) {
            return Err(format!("BT: keys out of order at key {key}"));
        }
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
    Ok(())
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
        let mut pc = PathCopy::new(heap);
        let leaf = write_leaf(&mut pc, ctx, &[]);
        pc.commit(ctx, None, leaf);
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
            let mut pc = PathCopy::new(heap);
            let (mut path, leaf) = descend(heap, ctx, key);
            let mut entries = leaf_entries(heap, ctx, leaf);
            let pos = entries.partition_point(|&(k, _)| k < key);
            entries.insert(pos, (key, val));
            let (mut copy, mut split) = replace_leaf(&mut pc, ctx, leaf, &entries);
            // A split copies the parent too, up to the first node that
            // absorbs it; above that only one child pointer changes.
            while let Some((sep, right)) = split {
                let Some((parent, idx)) = path.pop() else {
                    copy = write_inner(&mut pc, ctx, &[sep], &[copy, right]);
                    break;
                };
                let (mut keys, mut kids) = inner_entries(heap, ctx, parent);
                kids[idx] = copy;
                keys.insert(idx, sep);
                kids.insert(idx + 1, right);
                (copy, split) = replace_inner(&mut pc, ctx, parent, &keys, &kids);
            }
            commit(pc, ctx, &path, copy);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let (path, leaf) = descend(heap, ctx, key);
            let mut entries = leaf_entries(heap, ctx, leaf);
            let Some(pos) = entries.iter().position(|&(k, _)| k == key) else {
                return false;
            };
            let mut pc = PathCopy::new(heap);
            pc.retire(entries.remove(pos).1);
            let (copy, _) = replace_leaf(&mut pc, ctx, leaf, &entries);
            commit(pc, ctx, &path, copy);
            true
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let (_, leaf) = descend(heap, ctx, key);
            let n = heap.read_u64(ctx, leaf, L_NKEYS);
            (0..n).any(|i| heap.read_u64(ctx, leaf, L_KEYS + i * 8) == key)
        })
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        let root = heap.root(ctx);
        let mut got = BTreeSet::new();
        if !root.is_null() {
            validate_rec(heap, ctx, root, (None, None), &mut got, 0)?;
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
