//! Echo — the WHISPER key-value store (paper §6, Figure 1).
//!
//! Echo's defining allocation behaviour is a *single large bucket array*
//! backing its hash table: "it uses a hash table and hence allocates memory
//! with an array. This array cannot be released until all keys are removed"
//! (§7.3) — which is why Echo sees the smallest fragmentation reduction.
//! We model it with one huge (multi-frame, never-compacted) bucket array
//! plus chained entry objects:
//!
//! ```text
//! array:  4096 bucket references (32 KiB huge allocation)
//! entry:  next@0, key@8, value@16…
//! ```

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, checked_header, in_data, Workload};

const DEFAULT_BUCKETS: u64 = 4096;
const NEXT: u64 = 0;
const KEY: u64 = 8;
const VAL: u64 = 16;

const T_ARRAY: TypeId = TypeId(0);
const T_ENTRY: TypeId = TypeId(1);

/// The Echo key-value store.
#[derive(Debug)]
pub struct Echo {
    buckets: u64,
}

impl Default for Echo {
    fn default() -> Self {
        Self::new()
    }
}

impl Echo {
    /// Creates the workload with the default table size.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates the workload with `buckets` hash buckets — the bucket array
    /// is one huge, never-compacted allocation of `8 × buckets` bytes, so a
    /// larger table pins a larger share of the heap (the paper's reason
    /// Echo benefits least from defragmentation).
    pub fn with_buckets(buckets: u64) -> Self {
        Echo {
            buckets: buckets.max(16),
        }
    }

    fn bucket(&self, key: u64) -> u64 {
        (key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 24) % self.buckets
    }
}

impl Workload for Echo {
    fn name(&self) -> &'static str {
        "Echo"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let refs: Vec<u32> = (0..self.buckets as u32).map(|i| i * 8).collect();
        reg.register(TypeDesc::new(
            "echo_array",
            (self.buckets * 8) as u32,
            &refs,
        ));
        reg.register(TypeDesc::new("echo_entry", 0, &[NEXT as u32]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let arr = heap
            .alloc(ctx, T_ARRAY, self.buckets * 8)
            .expect("bucket array");
        for i in 0..self.buckets {
            heap.store_ref(ctx, arr, i * 8, PmPtr::NULL);
        }
        heap.set_root(ctx, arr);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let arr = heap.root(ctx);
            let slot = self.bucket(key) * 8;
            let entry = heap
                .alloc(ctx, T_ENTRY, VAL + value_size as u64)
                .expect("entry");
            let head = heap.load_ref(ctx, arr, slot);
            heap.write_u64(ctx, entry, KEY, key);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, entry, VAL, &val);
            heap.store_ref(ctx, entry, NEXT, head);
            heap.persist(ctx, entry, 0, VAL + value_size as u64);
            heap.store_ref(ctx, arr, slot, entry);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let arr = heap.root(ctx);
            let slot = self.bucket(key) * 8;
            let mut prev: Option<PmPtr> = None;
            let mut cur = heap.load_ref(ctx, arr, slot);
            while !cur.is_null() {
                let next = heap.load_ref(ctx, cur, NEXT);
                if heap.read_u64(ctx, cur, KEY) == key {
                    match prev {
                        Some(p) => heap.store_ref(ctx, p, NEXT, next),
                        None => heap.store_ref(ctx, arr, slot, next),
                    }
                    heap.free(ctx, cur).expect("free entry");
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
            let arr = heap.root(ctx);
            let mut cur = heap.load_ref(ctx, arr, self.bucket(key) * 8);
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
        let arr = heap.root(ctx);
        let mut got = BTreeSet::new();
        if arr.is_null() {
            // Crashed before setup's root store persisted: an empty store.
            return check_key_set("Echo", &got, expected);
        }
        if !in_data(heap, arr, self.buckets * 8) {
            return Err(format!("Echo: bucket array {arr} outside the data region"));
        }
        for b in 0..self.buckets {
            let mut cur = heap.load_ref(ctx, arr, b * 8);
            let mut hops = 0;
            while !cur.is_null() {
                let Some((_, size)) = checked_header(heap, ctx, cur, VAL) else {
                    return Err(format!("Echo: entry {cur} outside the data region"));
                };
                let key = heap.read_u64(ctx, cur, KEY);
                if self.bucket(key) != b {
                    return Err(format!("Echo: key {key} in wrong bucket"));
                }
                let mut val = vec![0u8; (size - VAL) as usize];
                heap.read_bytes(ctx, cur, VAL, &mut val);
                if !value_matches(key, &val) {
                    return Err(format!("Echo: corrupted value for key {key}"));
                }
                if !got.insert(key) {
                    return Err(format!("Echo: duplicate key {key}"));
                }
                hops += 1;
                if hops > 1_000_000 {
                    return Err("Echo: bucket chain cycle".to_owned());
                }
                cur = heap.load_ref(ctx, cur, NEXT);
            }
        }
        check_key_set("Echo", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::heap;
    use crate::workload::Workload;
    use ffccd_pmop::FrameKind;
    use std::collections::BTreeSet;

    #[test]
    fn bucket_array_is_a_huge_uncompactable_allocation() {
        let mut w = Echo::with_buckets(4096); // 32 KiB array: spans 8+ frames
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let root = h.root(&mut ctx);
        let frame = h.pool().layout().frame_of(root.offset()).expect("frame");
        assert_eq!(
            h.pool().frame_state(frame).kind,
            FrameKind::Huge,
            "Echo's array must be a huge allocation (never compacted)"
        );
    }

    #[test]
    fn hash_roundtrip_and_validate() {
        let mut w = Echo::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..300u64 {
            w.insert(&h, &mut ctx, k, 96);
            expected.insert(k);
        }
        for k in (0..300u64).step_by(2) {
            assert!(w.delete(&h, &mut ctx, k));
            expected.remove(&k);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("chains consistent");
    }

    #[test]
    fn a_bucket_pointer_off_the_media_is_an_error_not_a_panic() {
        let mut w = Echo::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let arr = h.root(&mut ctx);
        let bogus = PmPtr::new(
            h.pool().pool_id(),
            h.pool().layout().total_bytes + (1 << 20),
        );
        h.store_ref(&mut ctx, arr, 3 * 8, bogus);
        let err = w
            .validate(&h, &mut ctx, &BTreeSet::new())
            .expect_err("a pointer past the pool must fail validation");
        assert!(err.contains("outside the data region"), "{err}");
    }
}
