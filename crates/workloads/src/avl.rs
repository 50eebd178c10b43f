//! AVL — the balanced-BST microbenchmark.
//!
//! A textbook AVL tree with full insert *and* delete rebalancing, living
//! entirely in the PMOP. Node layout:
//!
//! ```text
//! +0   left    (persistent pointer)
//! +8   right   (persistent pointer)
//! +16  key     u64
//! +24  height  u64
//! +32… value   value_size bytes
//! ```
//!
//! Deletion uses successor *splicing* (pointer surgery), never copying
//! values between nodes — values are variable-sized.
//!
//! Updates are crash-atomic via path copying ([`PathCopy`]): every node on
//! the search path (plus rotation participants) is cloned, the clones are
//! linked up and persisted while still unreachable, and the operation
//! commits with a single persisted root store.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, PathCopy, Workload};

const LEFT: u64 = 0;
const RIGHT: u64 = 8;
const KEY: u64 = 16;
const HEIGHT: u64 = 24;
const VAL: u64 = 32;

const T_NODE: TypeId = TypeId(0);

/// The AVL microbenchmark.
#[derive(Debug, Default)]
pub struct AvlTree;

impl AvlTree {
    /// Creates the workload.
    pub fn new() -> Self {
        AvlTree
    }
}

struct Ops<'a> {
    heap: &'a DefragHeap,
    pc: PathCopy<'a>,
}

/// AVL's node-copy body for [`PathCopy::shadow`].
fn copy_node(heap: &DefragHeap, ctx: &mut Ctx, n: PmPtr, c: PmPtr, size: u64) {
    let l = heap.load_ref(ctx, n, LEFT);
    let r = heap.load_ref(ctx, n, RIGHT);
    heap.store_ref(ctx, c, LEFT, l);
    heap.store_ref(ctx, c, RIGHT, r);
    let key = heap.read_u64(ctx, n, KEY);
    let h = heap.read_u64(ctx, n, HEIGHT);
    heap.write_u64(ctx, c, KEY, key);
    heap.write_u64(ctx, c, HEIGHT, h);
    let mut val = vec![0u8; (size - VAL) as usize];
    heap.read_bytes(ctx, n, VAL, &mut val);
    heap.write_bytes(ctx, c, VAL, &val);
}

impl<'a> Ops<'a> {
    fn new(heap: &'a DefragHeap) -> Self {
        Ops {
            heap,
            pc: PathCopy::new(heap),
        }
    }

    fn shadow(&mut self, ctx: &mut Ctx, n: PmPtr) -> PmPtr {
        self.pc.shadow(ctx, n, copy_node)
    }

    fn height(&self, ctx: &mut Ctx, n: PmPtr) -> u64 {
        if n.is_null() {
            0
        } else {
            self.heap.read_u64(ctx, n, HEIGHT)
        }
    }

    fn update_height(&self, ctx: &mut Ctx, n: PmPtr) {
        let l = self.heap.load_ref(ctx, n, LEFT);
        let r = self.heap.load_ref(ctx, n, RIGHT);
        let h = 1 + self.height(ctx, l).max(self.height(ctx, r));
        self.heap.write_u64(ctx, n, HEIGHT, h);
        self.heap.persist(ctx, n, HEIGHT, 8);
    }

    fn balance(&self, ctx: &mut Ctx, n: PmPtr) -> i64 {
        let l = self.heap.load_ref(ctx, n, LEFT);
        let r = self.heap.load_ref(ctx, n, RIGHT);
        self.height(ctx, l) as i64 - self.height(ctx, r) as i64
    }

    /// `y` must be fresh; the pivot is shadowed before it is mutated.
    fn rotate_right(&mut self, ctx: &mut Ctx, y: PmPtr) -> PmPtr {
        let x = self.heap.load_ref(ctx, y, LEFT);
        let x = self.shadow(ctx, x);
        let t2 = self.heap.load_ref(ctx, x, RIGHT);
        self.heap.store_ref(ctx, y, LEFT, t2);
        self.heap.store_ref(ctx, x, RIGHT, y);
        self.update_height(ctx, y);
        self.update_height(ctx, x);
        x
    }

    /// `x` must be fresh; the pivot is shadowed before it is mutated.
    fn rotate_left(&mut self, ctx: &mut Ctx, x: PmPtr) -> PmPtr {
        let y = self.heap.load_ref(ctx, x, RIGHT);
        let y = self.shadow(ctx, y);
        let t2 = self.heap.load_ref(ctx, y, LEFT);
        self.heap.store_ref(ctx, x, RIGHT, t2);
        self.heap.store_ref(ctx, y, LEFT, x);
        self.update_height(ctx, x);
        self.update_height(ctx, y);
        y
    }

    /// `n` must be fresh.
    fn rebalance(&mut self, ctx: &mut Ctx, n: PmPtr) -> PmPtr {
        self.update_height(ctx, n);
        let b = self.balance(ctx, n);
        if b > 1 {
            let l = self.heap.load_ref(ctx, n, LEFT);
            if self.balance(ctx, l) < 0 {
                let l = self.shadow(ctx, l);
                let nl = self.rotate_left(ctx, l);
                self.heap.store_ref(ctx, n, LEFT, nl);
            }
            return self.rotate_right(ctx, n);
        }
        if b < -1 {
            let r = self.heap.load_ref(ctx, n, RIGHT);
            if self.balance(ctx, r) > 0 {
                let r = self.shadow(ctx, r);
                let nr = self.rotate_right(ctx, r);
                self.heap.store_ref(ctx, n, RIGHT, nr);
            }
            return self.rotate_left(ctx, n);
        }
        n
    }

    fn insert(&mut self, ctx: &mut Ctx, n: PmPtr, key: u64, node: PmPtr) -> PmPtr {
        if n.is_null() {
            return node;
        }
        let c = self.shadow(ctx, n);
        let nk = self.heap.read_u64(ctx, c, KEY);
        if key < nk {
            let l = self.heap.load_ref(ctx, c, LEFT);
            let nl = self.insert(ctx, l, key, node);
            self.heap.store_ref(ctx, c, LEFT, nl);
        } else {
            let r = self.heap.load_ref(ctx, c, RIGHT);
            let nr = self.insert(ctx, r, key, node);
            self.heap.store_ref(ctx, c, RIGHT, nr);
        }
        self.rebalance(ctx, c)
    }

    /// Removes the minimum node of the subtree; returns (new root, min).
    /// The min itself is *not* shadowed — the caller splices a clone of it.
    fn take_min(&mut self, ctx: &mut Ctx, n: PmPtr) -> (PmPtr, PmPtr) {
        let l = self.heap.load_ref(ctx, n, LEFT);
        if l.is_null() {
            let r = self.heap.load_ref(ctx, n, RIGHT);
            return (r, n);
        }
        let c = self.shadow(ctx, n);
        let l = self.heap.load_ref(ctx, c, LEFT);
        let (nl, min) = self.take_min(ctx, l);
        self.heap.store_ref(ctx, c, LEFT, nl);
        (self.rebalance(ctx, c), min)
    }

    /// Deletes `key`; returns (new root, Some(removed node)). A miss clones
    /// nothing and leaves the tree untouched.
    fn delete(&mut self, ctx: &mut Ctx, n: PmPtr, key: u64) -> (PmPtr, Option<PmPtr>) {
        if n.is_null() {
            return (n, None);
        }
        let nk = self.heap.read_u64(ctx, n, KEY);
        if key < nk {
            let l = self.heap.load_ref(ctx, n, LEFT);
            let (nl, rm) = self.delete(ctx, l, key);
            if rm.is_none() {
                return (n, None);
            }
            let c = self.shadow(ctx, n);
            self.heap.store_ref(ctx, c, LEFT, nl);
            return (self.rebalance(ctx, c), rm);
        }
        if key > nk {
            let r = self.heap.load_ref(ctx, n, RIGHT);
            let (nr, rm) = self.delete(ctx, r, key);
            if rm.is_none() {
                return (n, None);
            }
            let c = self.shadow(ctx, n);
            self.heap.store_ref(ctx, c, RIGHT, nr);
            return (self.rebalance(ctx, c), rm);
        }
        // Found. Splice a clone of the successor into the deleted position.
        let l = self.heap.load_ref(ctx, n, LEFT);
        let r = self.heap.load_ref(ctx, n, RIGHT);
        if l.is_null() {
            return (r, Some(n));
        }
        if r.is_null() {
            return (l, Some(n));
        }
        let (nr, succ) = self.take_min(ctx, r);
        let s = self.shadow(ctx, succ);
        self.heap.store_ref(ctx, s, LEFT, l);
        self.heap.store_ref(ctx, s, RIGHT, nr);
        (self.rebalance(ctx, s), Some(n))
    }
}

impl Workload for AvlTree {
    fn name(&self) -> &'static str {
        "AVL"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.register(TypeDesc::new("avl_node", 0, &[LEFT as u32, RIGHT as u32]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        heap.set_root(ctx, PmPtr::NULL);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let mut ops = Ops::new(heap);
            let node = ops.pc.alloc(ctx, T_NODE, VAL + value_size as u64);
            heap.store_ref(ctx, node, LEFT, PmPtr::NULL);
            heap.store_ref(ctx, node, RIGHT, PmPtr::NULL);
            heap.write_u64(ctx, node, KEY, key);
            heap.write_u64(ctx, node, HEIGHT, 1);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, node, VAL, &val);
            heap.persist(ctx, node, 0, VAL + value_size as u64);
            let root = heap.root(ctx);
            let new_root = ops.insert(ctx, root, key, node);
            ops.pc.commit(ctx, None, new_root);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let mut ops = Ops::new(heap);
            let root = heap.root(ctx);
            let (new_root, removed) = ops.delete(ctx, root, key);
            match removed {
                Some(n) => {
                    ops.pc.retire(n);
                    ops.pc.commit(ctx, None, new_root);
                    true
                }
                None => false,
            }
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let mut cur = heap.root(ctx);
            while !cur.is_null() {
                let k = heap.read_u64(ctx, cur, KEY);
                if k == key {
                    return true;
                }
                cur = heap.load_ref(ctx, cur, if key < k { LEFT } else { RIGHT });
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
        let mut got = BTreeSet::new();
        let root = heap.root(ctx);
        let mut max_h = 0u64;
        validate_rec(heap, ctx, root, None, None, &mut got, &mut max_h, 0)?;
        if !got.is_empty() {
            // AVL height bound: h ≤ 1.44 log2(n+2).
            let bound = (1.45 * ((got.len() + 2) as f64).log2()).ceil() as u64 + 1;
            if max_h > bound {
                return Err(format!(
                    "AVL: height {max_h} exceeds bound {bound} for {} nodes",
                    got.len()
                ));
            }
        }
        check_key_set("AVL", &got, expected)
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_rec(
    heap: &DefragHeap,
    ctx: &mut Ctx,
    n: PmPtr,
    lo: Option<u64>,
    hi: Option<u64>,
    got: &mut BTreeSet<u64>,
    max_h: &mut u64,
    depth: u64,
) -> Result<(), String> {
    if n.is_null() {
        return Ok(());
    }
    if depth > 64 {
        return Err("AVL: runaway depth (cycle?)".to_owned());
    }
    *max_h = (*max_h).max(depth + 1);
    let key = heap.read_u64(ctx, n, KEY);
    if lo.is_some_and(|l| key <= l) || hi.is_some_and(|h| key >= h) {
        return Err(format!("AVL: BST order violated at key {key}"));
    }
    let (_, size) = heap.object_header(ctx, n);
    let mut val = vec![0u8; size as usize - VAL as usize];
    heap.read_bytes(ctx, n, VAL, &mut val);
    if !value_matches(key, &val) {
        return Err(format!("AVL: corrupted value for key {key}"));
    }
    if !got.insert(key) {
        return Err(format!("AVL: duplicate key {key}"));
    }
    let l = heap.load_ref(ctx, n, LEFT);
    let r = heap.load_ref(ctx, n, RIGHT);
    validate_rec(heap, ctx, l, lo, Some(key), got, max_h, depth + 1)?;
    validate_rec(heap, ctx, r, Some(key), hi, got, max_h, depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use std::collections::BTreeSet;

    #[test]
    fn insert_search_delete_roundtrip() {
        let mut w = AvlTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let keys: Vec<u64> = (0..200).map(|i| i * 37 % 1009).collect();
        for &k in &keys {
            w.insert(&h, &mut ctx, k, 64);
        }
        for &k in &keys {
            assert!(w.contains(&h, &mut ctx, k), "missing {k}");
        }
        assert!(!w.contains(&h, &mut ctx, 99_999));
        let expected: BTreeSet<u64> = keys.iter().copied().collect();
        w.validate(&h, &mut ctx, &expected).expect("valid tree");
        for &k in keys.iter().step_by(2) {
            assert!(w.delete(&h, &mut ctx, k));
            assert!(!w.contains(&h, &mut ctx, k));
        }
        assert!(!w.delete(&h, &mut ctx, keys[0]), "double delete");
        let expected: BTreeSet<u64> = keys.iter().skip(1).step_by(2).copied().collect();
        w.validate(&h, &mut ctx, &expected)
            .expect("valid after deletes");
    }

    #[test]
    fn stays_balanced_under_sorted_inserts() {
        // Sorted insertion is the classic AVL stress: without rotations the
        // tree becomes a stick and the validator's height bound fires.
        let mut w = AvlTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 0..512u64 {
            w.insert(&h, &mut ctx, k, 32);
        }
        let expected: BTreeSet<u64> = (0..512).collect();
        w.validate(&h, &mut ctx, &expected).expect("balanced");
    }

    #[test]
    fn delete_with_two_children_splices_successor() {
        let mut w = AvlTree::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in [50u64, 25, 75, 12, 37, 62, 87, 31, 43] {
            w.insert(&h, &mut ctx, k, 32);
        }
        assert!(w.delete(&h, &mut ctx, 25)); // two children
        let expected: BTreeSet<u64> = [50u64, 75, 12, 37, 62, 87, 31, 43].into_iter().collect();
        w.validate(&h, &mut ctx, &expected).expect("splice correct");
    }

    #[test]
    fn survives_interleaved_defragmentation() {
        let mut w = AvlTree::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..400u64 {
            w.insert(&h, &mut ctx, k, 64);
            expected.insert(k);
            if k % 3 == 0 && k > 10 {
                w.delete(&h, &mut ctx, k - 10);
                expected.remove(&(k - 10));
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
