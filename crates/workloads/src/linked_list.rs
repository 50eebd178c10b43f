//! LL — the linked-list microbenchmark.
//!
//! A 256-way directory of singly-linked lists (a pure single list makes
//! deletion O(n), which the cycle-level simulation cannot afford at
//! evaluation scale; the allocation/free churn — what fragmentation cares
//! about — is identical). Node layout:
//!
//! ```text
//! +0   next    (persistent pointer)
//! +8   key     u64
//! +16… value   value_size bytes (deterministic pattern)
//! ```

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, Workload};

const WAYS: u64 = 256;
const NEXT: u64 = 0;
const KEY: u64 = 8;
const VAL: u64 = 16;

const T_DIR: TypeId = TypeId(0);
const T_NODE: TypeId = TypeId(1);

/// The LL microbenchmark.
#[derive(Debug, Default)]
pub struct LinkedList;

impl LinkedList {
    /// Creates the workload.
    pub fn new() -> Self {
        LinkedList
    }

    fn bucket_slot(key: u64) -> u64 {
        (key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 32) % WAYS
    }

    fn bucket_off(key: u64) -> u64 {
        Self::bucket_slot(key) * 8
    }
}

impl Workload for LinkedList {
    fn name(&self) -> &'static str {
        "LL"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let dir_refs: Vec<u32> = (0..WAYS as u32).map(|i| i * 8).collect();
        reg.register(TypeDesc::new("ll_dir", (WAYS * 8) as u32, &dir_refs));
        reg.register(TypeDesc::new("ll_node", 0, &[NEXT as u32]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let dir = heap.alloc(ctx, T_DIR, WAYS * 8).expect("directory");
        for i in 0..WAYS {
            heap.store_ref(ctx, dir, i * 8, PmPtr::NULL);
        }
        heap.set_root(ctx, dir);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let dir = heap.root(ctx);
            let node = heap
                .alloc(ctx, T_NODE, VAL + value_size as u64)
                .expect("node");
            let head = heap.load_ref(ctx, dir, Self::bucket_off(key));
            heap.write_u64(ctx, node, KEY, key);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, node, VAL, &val);
            heap.store_ref(ctx, node, NEXT, head);
            heap.persist(ctx, node, 0, VAL + value_size as u64);
            heap.store_ref(ctx, dir, Self::bucket_off(key), node);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let dir = heap.root(ctx);
            let slot = Self::bucket_off(key);
            let mut prev: Option<PmPtr> = None;
            let mut cur = heap.load_ref(ctx, dir, slot);
            while !cur.is_null() {
                let next = heap.load_ref(ctx, cur, NEXT);
                if heap.read_u64(ctx, cur, KEY) == key {
                    match prev {
                        Some(p) => heap.store_ref(ctx, p, NEXT, next),
                        None => heap.store_ref(ctx, dir, slot, next),
                    }
                    heap.free(ctx, cur).expect("free list node");
                    return true;
                }
                prev = Some(cur);
                cur = next;
            }
            false
        })
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let dir = heap.root(ctx);
            let mut cur = heap.load_ref(ctx, dir, Self::bucket_off(key));
            while !cur.is_null() {
                if heap.read_u64(ctx, cur, KEY) == key {
                    return true;
                }
                cur = heap.load_ref(ctx, cur, NEXT);
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
        let dir = heap.root(ctx);
        if dir.is_null() {
            // A crash captured before setup's directory store ever drained
            // recovers to an empty pool: legitimate iff nothing was
            // expected to be durable yet.
            return if expected.is_empty() {
                Ok(())
            } else {
                Err("LL: null directory".to_owned())
            };
        }
        let mut got = BTreeSet::new();
        for way in 0..WAYS {
            let mut cur = heap.load_ref(ctx, dir, way * 8);
            let mut hops = 0u64;
            while !cur.is_null() {
                let key = heap.read_u64(ctx, cur, KEY);
                let (_, size) = heap.object_header(ctx, cur);
                let mut val = vec![0u8; size as usize - VAL as usize];
                heap.read_bytes(ctx, cur, VAL, &mut val);
                if !value_matches(key, &val) {
                    return Err(format!("LL: corrupted value for key {key}"));
                }
                if Self::bucket_slot(key) != way {
                    return Err(format!("LL: key {key} chained in wrong bucket {way}"));
                }
                if !got.insert(key) {
                    return Err(format!("LL: duplicate key {key}"));
                }
                hops += 1;
                if hops > 1_000_000 {
                    return Err("LL: cycle in chain".to_owned());
                }
                cur = heap.load_ref(ctx, cur, NEXT);
            }
        }
        check_key_set("LL", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::heap;
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn chains_route_by_bucket_and_roundtrip() {
        let mut w = LinkedList::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (0..500u64).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 64);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("chains consistent");
        for &k in expected.iter().step_by(7) {
            assert!(w.contains(&h, &mut ctx, k));
            assert!(w.delete(&h, &mut ctx, k));
            assert!(!w.contains(&h, &mut ctx, k));
        }
        assert!(
            !w.delete(&h, &mut ctx, 7),
            "7 was already deleted in the sweep"
        );
    }

    #[test]
    fn delete_middle_of_chain_relinks() {
        let mut w = LinkedList::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        // Three keys guaranteed to share a bucket: probe keys until three
        // collide.
        let mut by_bucket: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let mut triple = None;
        for k in 0..100_000u64 {
            let b = LinkedList::bucket_slot(k);
            let v = by_bucket.entry(b).or_default();
            v.push(k);
            if v.len() == 3 {
                triple = Some(v.clone());
                break;
            }
        }
        let triple = triple.expect("collisions exist");
        for &k in &triple {
            w.insert(&h, &mut ctx, k, 64);
        }
        // Delete the middle insertion (chain-middle element).
        assert!(w.delete(&h, &mut ctx, triple[1]));
        assert!(w.contains(&h, &mut ctx, triple[0]));
        assert!(w.contains(&h, &mut ctx, triple[2]));
        let expected: BTreeSet<u64> = [triple[0], triple[2]].into_iter().collect();
        w.validate(&h, &mut ctx, &expected).expect("relinked");
    }
}
