//! DQ — a detectable keyed queue (memento-style detectability).
//!
//! A singly-linked FIFO chain with tail insertion and keyed removal whose
//! per-operation completion is *decidable* from persistent state alone —
//! the property the detectable-persistent-object literature (Memento,
//! detectable CAS / Michael-Scott queues) builds lock-free PM structures
//! around. Where the other workloads leave a crashed operation ambiguous
//! ("either it happened or it didn't"), this one answers exactly, so the
//! thread-crash checker can demand a single key set instead of accepting
//! two.
//!
//! Root layout (one root object per root-directory slot):
//!
//! ```text
//! +0   head      (persistent pointer: oldest node)
//! +8   tail      (persistent pointer: newest node; may lag or dangle
//!                 logically after a crash — repaired by `reopen`)
//! +16  enq_seq   u64 checkpoint: seq of the last *completed* enqueue
//! +24  enq_key   u64 key of that enqueue (completion record)
//! +32  deq_seq   u64 checkpoint: count of completed removals
//! +40  deq_key   u64 intent record: key the in-flight removal targets
//! ```
//!
//! Node layout:
//!
//! ```text
//! +0   next    (persistent pointer)
//! +8   key     u64
//! +16  seq     u64 — strictly increasing along the chain
//! +24… value   value_size bytes (deterministic pattern)
//! ```
//!
//! # The detectability argument
//!
//! *Enqueue* allocates and fully persists the node (seq = checkpoint + 1),
//! links it at the tail (**linearization point** — `store_ref` persists the
//! link), swings `tail`, then persists the `(enq_seq, enq_key)` completion
//! record. Keys are unique for a run, so a crash anywhere inside the op is
//! decided by chain reachability of the key; the checkpoint lets recovery
//! cross-check which side of the linearization point the thread died on.
//!
//! *Remove* persists the `deq_key` intent record, unlinks the node
//! (**linearization point**), repairs `tail` if the victim was last, bumps
//! the `deq_seq` checkpoint, and only then frees the node. A crash after
//! unlink but before free strands the node — unreachable but allocated.
//! [`DetectableQueue::reopen`] completes such an operation when `tail`
//! still names the stranded node (frees it, repairs `tail`); a stranded
//! *mid-chain* victim is unreferenced and stays leaked, which heap
//! validation tolerates (it walks reachable objects) — the price of
//! detectability without an integrated recovering allocator.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, Workload};

const HEAD: u64 = 0;
const TAIL: u64 = 8;
const ENQ_SEQ: u64 = 16;
const ENQ_KEY: u64 = 24;
const DEQ_SEQ: u64 = 32;
const DEQ_KEY: u64 = 40;
const ROOT_BYTES: u64 = 48;

const NEXT: u64 = 0;
const KEY: u64 = 8;
const SEQ: u64 = 16;
const VAL: u64 = 24;

const T_ROOT: TypeId = TypeId(0);
const T_NODE: TypeId = TypeId(1);

/// The detectable queue workload.
#[derive(Debug, Default)]
pub struct DetectableQueue {
    /// Next enqueue sequence number (volatile; reconstructed by `reopen`
    /// as max chain seq + 1 — monotone along the chain is all the
    /// invariant needs).
    next_seq: u64,
}

impl DetectableQueue {
    /// Creates the workload.
    pub fn new() -> Self {
        DetectableQueue { next_seq: 1 }
    }

    /// Walks the chain, returning `(last_node, max_seq, nodes_visited)`.
    fn walk_last(heap: &DefragHeap, ctx: &mut Ctx, root: PmPtr) -> (PmPtr, u64, u64) {
        let mut last = PmPtr::NULL;
        let mut max_seq = 0u64;
        let mut n = 0u64;
        let mut cur = heap.load_ref(ctx, root, HEAD);
        while !cur.is_null() {
            max_seq = heap.read_u64(ctx, cur, SEQ);
            last = cur;
            n += 1;
            cur = heap.load_ref(ctx, cur, NEXT);
        }
        (last, max_seq, n)
    }

    fn reachable(heap: &DefragHeap, ctx: &mut Ctx, root: PmPtr, key: u64) -> bool {
        let mut cur = heap.load_ref(ctx, root, HEAD);
        while !cur.is_null() {
            if heap.read_u64(ctx, cur, KEY) == key {
                return true;
            }
            cur = heap.load_ref(ctx, cur, NEXT);
        }
        false
    }
}

impl Workload for DetectableQueue {
    fn name(&self) -> &'static str {
        "DQ"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.register(TypeDesc::new(
            "dq_root",
            ROOT_BYTES as u32,
            &[HEAD as u32, TAIL as u32],
        ));
        reg.register(TypeDesc::new("dq_node", 0, &[NEXT as u32]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let root = heap.alloc(ctx, T_ROOT, ROOT_BYTES).expect("dq root");
        heap.store_ref(ctx, root, HEAD, PmPtr::NULL);
        heap.store_ref(ctx, root, TAIL, PmPtr::NULL);
        heap.write_u64(ctx, root, ENQ_SEQ, 0);
        heap.write_u64(ctx, root, ENQ_KEY, 0);
        heap.write_u64(ctx, root, DEQ_SEQ, 0);
        heap.write_u64(ctx, root, DEQ_KEY, 0);
        heap.persist(ctx, root, ENQ_SEQ, ROOT_BYTES - ENQ_SEQ);
        heap.set_root(ctx, root);
        self.next_seq = 1;
    }

    fn reopen(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let root = heap.root(ctx);
        if root.is_null() {
            self.next_seq = 1;
            return;
        }
        let (last, max_seq, _) = Self::walk_last(heap, ctx, root);
        self.next_seq = max_seq.max(heap.read_u64(ctx, root, ENQ_SEQ)) + 1;
        let tail = heap.load_ref(ctx, root, TAIL);
        if tail != last {
            // Either an enqueue died between link and tail swing (tail
            // lags inside the chain), or a removal died between unlink
            // and free (tail names the stranded victim). Membership
            // distinguishes them; completing the dead op means repairing
            // the tail — and, for the removal, freeing the victim.
            let stranded = !tail.is_null()
                && !{
                    let mut member = false;
                    let mut cur = heap.load_ref(ctx, root, HEAD);
                    while !cur.is_null() {
                        if cur == tail {
                            member = true;
                            break;
                        }
                        cur = heap.load_ref(ctx, cur, NEXT);
                    }
                    member
                };
            heap.store_ref(ctx, root, TAIL, last);
            if stranded {
                heap.free(ctx, tail).expect("free stranded dq victim");
            }
        }
        if heap.read_u64(ctx, root, ENQ_SEQ) < max_seq {
            // The last enqueue linked its node but died before its
            // completion record; finish the checkpoint on its behalf.
            // (Only ever raised — removing the max-seq node legitimately
            // leaves the checkpoint above the chain max.)
            heap.write_u64(ctx, root, ENQ_SEQ, max_seq);
            heap.persist(ctx, root, ENQ_SEQ, 8);
        }
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let root = heap.root(ctx);
            let seq = self.next_seq;
            self.next_seq += 1;
            let node = heap
                .alloc(ctx, T_NODE, VAL + value_size as u64)
                .expect("dq node");
            heap.write_u64(ctx, node, KEY, key);
            heap.write_u64(ctx, node, SEQ, seq);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, node, VAL, &val);
            heap.store_ref(ctx, node, NEXT, PmPtr::NULL);
            heap.persist(ctx, node, 0, VAL + value_size as u64);
            let tail = heap.load_ref(ctx, root, TAIL);
            // Linearization point: the link store persists before returning.
            if tail.is_null() {
                heap.store_ref(ctx, root, HEAD, node);
            } else {
                heap.store_ref(ctx, tail, NEXT, node);
            }
            heap.store_ref(ctx, root, TAIL, node);
            // Completion record.
            heap.write_u64(ctx, root, ENQ_SEQ, seq);
            heap.write_u64(ctx, root, ENQ_KEY, key);
            heap.persist(ctx, root, ENQ_SEQ, 16);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let root = heap.root(ctx);
            let mut prev = PmPtr::NULL;
            let mut cur = heap.load_ref(ctx, root, HEAD);
            while !cur.is_null() {
                let next = heap.load_ref(ctx, cur, NEXT);
                if heap.read_u64(ctx, cur, KEY) == key {
                    // Intent record: which key the in-flight removal targets.
                    heap.write_u64(ctx, root, DEQ_KEY, key);
                    heap.persist(ctx, root, DEQ_KEY, 8);
                    // Linearization point.
                    if prev.is_null() {
                        heap.store_ref(ctx, root, HEAD, next);
                    } else {
                        heap.store_ref(ctx, prev, NEXT, next);
                    }
                    if heap.load_ref(ctx, root, TAIL) == cur {
                        heap.store_ref(ctx, root, TAIL, prev);
                    }
                    // Completion record, then reclamation.
                    let done = heap.read_u64(ctx, root, DEQ_SEQ) + 1;
                    heap.write_u64(ctx, root, DEQ_SEQ, done);
                    heap.persist(ctx, root, DEQ_SEQ, 8);
                    heap.free(ctx, cur).expect("free dq node");
                    return true;
                }
                prev = cur;
                cur = next;
            }
            false
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let root = heap.root(ctx);
            if root.is_null() {
                return false;
            }
            Self::reachable(heap, ctx, root, key)
        })
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        let root = heap.root(ctx);
        if root.is_null() {
            return if expected.is_empty() {
                Ok(())
            } else {
                Err("DQ: null root".to_owned())
            };
        }
        let mut got = BTreeSet::new();
        let mut last = PmPtr::NULL;
        let mut prev_seq = 0u64;
        let mut cur = heap.load_ref(ctx, root, HEAD);
        let mut hops = 0u64;
        while !cur.is_null() {
            let key = heap.read_u64(ctx, cur, KEY);
            let seq = heap.read_u64(ctx, cur, SEQ);
            if seq <= prev_seq {
                return Err(format!(
                    "DQ: chain seq not strictly increasing ({prev_seq} -> {seq} at key {key})"
                ));
            }
            prev_seq = seq;
            let (_, size) = heap.object_header(ctx, cur);
            let mut val = vec![0u8; size as usize - VAL as usize];
            heap.read_bytes(ctx, cur, VAL, &mut val);
            if !value_matches(key, &val) {
                return Err(format!("DQ: corrupted value for key {key}"));
            }
            if !got.insert(key) {
                return Err(format!("DQ: duplicate key {key}"));
            }
            last = cur;
            hops += 1;
            if hops > 1_000_000 {
                return Err("DQ: cycle in chain".to_owned());
            }
            cur = heap.load_ref(ctx, cur, NEXT);
        }
        let tail = heap.load_ref(ctx, root, TAIL);
        if tail != last {
            return Err(format!(
                "DQ: tail {tail} does not name the last node {last}"
            ));
        }
        // Removal of the max-seq node leaves the checkpoint above the
        // chain max, so `>=` is the invariant (a checkpoint *below* the
        // max would mean an enqueue's completion record ran backwards).
        if heap.read_u64(ctx, root, ENQ_SEQ) < prev_seq {
            return Err(format!(
                "DQ: enqueue checkpoint {} behind max chain seq {prev_seq}",
                heap.read_u64(ctx, root, ENQ_SEQ)
            ));
        }
        check_key_set("DQ", &got, expected)
    }

    fn decide_inflight(
        &mut self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        key: u64,
        insert: bool,
    ) -> Option<bool> {
        let root = heap.root(ctx);
        if root.is_null() {
            // Nothing durable at all: an insert cannot have completed; a
            // delete against a missing structure cannot even start.
            return Some(false);
        }
        let reachable = Self::reachable(heap, ctx, root, key);
        // Keys are unique for a run, and both ops linearize at a single
        // persisted link store, so reachability *is* the decision: a
        // crashed enqueue completed iff its node joined the chain; a
        // crashed removal completed iff its node left it.
        Some(if insert { reachable } else { !reachable })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn fifo_chain_roundtrips_and_validates() {
        let mut w = DetectableQueue::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (1..=200u64).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 48);
        }
        w.validate(&h, &mut ctx, &expected).expect("chain intact");
        // Remove head, middle, tail — the three unlink shapes.
        for k in [1u64, 100, 200] {
            assert!(w.contains(&h, &mut ctx, k));
            assert!(w.delete(&h, &mut ctx, k));
            assert!(!w.contains(&h, &mut ctx, k));
        }
        let expected: BTreeSet<u64> = expected
            .into_iter()
            .filter(|k| ![1, 100, 200].contains(k))
            .collect();
        w.validate(&h, &mut ctx, &expected).expect("relinked");
        assert!(!w.delete(&h, &mut ctx, 100), "already removed");
    }

    #[test]
    fn tail_removal_repairs_tail_and_appends_continue() {
        let mut w = DetectableQueue::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 1..=3u64 {
            w.insert(&h, &mut ctx, k, 32);
        }
        assert!(w.delete(&h, &mut ctx, 3));
        w.insert(&h, &mut ctx, 4, 32);
        let expected: BTreeSet<u64> = [1, 2, 4].into_iter().collect();
        w.validate(&h, &mut ctx, &expected).expect("tail repaired");
        // Draining to empty and refilling exercises the null-tail link.
        for k in [1u64, 2, 4] {
            assert!(w.delete(&h, &mut ctx, k));
        }
        w.validate(&h, &mut ctx, &BTreeSet::new()).expect("empty");
        w.insert(&h, &mut ctx, 9, 32);
        let expected: BTreeSet<u64> = [9].into_iter().collect();
        w.validate(&h, &mut ctx, &expected).expect("refilled");
    }

    #[test]
    fn decide_inflight_answers_from_reachability() {
        let mut w = DetectableQueue::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 1..=10u64 {
            w.insert(&h, &mut ctx, k, 32);
        }
        assert!(w.delete(&h, &mut ctx, 5));
        assert_eq!(w.decide_inflight(&h, &mut ctx, 5, false), Some(true));
        assert_eq!(w.decide_inflight(&h, &mut ctx, 7, false), Some(false));
        assert_eq!(w.decide_inflight(&h, &mut ctx, 7, true), Some(true));
        assert_eq!(w.decide_inflight(&h, &mut ctx, 11, true), Some(false));
    }

    #[test]
    fn reopen_is_read_only_on_a_consistent_chain() {
        let mut w = DetectableQueue::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (1..=64u64).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 48);
        }
        let mut w2 = DetectableQueue::new();
        w2.reopen(&h, &mut ctx);
        assert_eq!(w2.next_seq, 65, "seq reconstructed from the chain");
        w2.validate(&h, &mut ctx, &expected).expect("untouched");
        w2.insert(&h, &mut ctx, 65, 48);
        let expected: BTreeSet<u64> = (1..=65u64).collect();
        w2.validate(&h, &mut ctx, &expected)
            .expect("appends resume");
    }
}
