//! SS — the string-swap microbenchmark.
//!
//! A hash-chained directory of immutable string objects. Every insert also
//! *swaps* one existing string: it reallocates the string and relinks it
//! (copy-on-write, the idiomatic PM update), which is the allocation churn
//! the paper's SS microbenchmark stresses. String layout:
//!
//! ```text
//! +0   next    (persistent pointer, hash chain)
//! +8   key     u64
//! +16  gen     u64 (bumped on every swap)
//! +24… bytes   value_size bytes
//! ```

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, checked_header, in_data, Workload};

const WAYS: u64 = 256;
const NEXT: u64 = 0;
const KEY: u64 = 8;
const GEN: u64 = 16;
const VAL: u64 = 24;

const T_DIR: TypeId = TypeId(0);
const T_STR: TypeId = TypeId(1);

/// The SS microbenchmark.
#[derive(Debug, Default)]
pub struct StringSwap {
    swap_cursor: u64,
}

impl StringSwap {
    /// Creates the workload.
    pub fn new() -> Self {
        StringSwap::default()
    }

    fn bucket(key: u64) -> u64 {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % WAYS
    }
}

impl Workload for StringSwap {
    fn name(&self) -> &'static str {
        "SS"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let dir_refs: Vec<u32> = (0..WAYS as u32).map(|i| i * 8).collect();
        reg.register(TypeDesc::new("ss_dir", (WAYS * 8) as u32, &dir_refs));
        reg.register(TypeDesc::new("ss_str", 0, &[NEXT as u32]));
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
            let slot = Self::bucket(key) * 8;
            let s = heap
                .alloc(ctx, T_STR, VAL + value_size as u64)
                .expect("string");
            let head = heap.load_ref(ctx, dir, slot);
            heap.write_u64(ctx, s, KEY, key);
            heap.write_u64(ctx, s, GEN, 0);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, s, VAL, &val);
            heap.store_ref(ctx, s, NEXT, head);
            heap.persist(ctx, s, 0, VAL + value_size as u64);
            heap.store_ref(ctx, dir, slot, s);

            // The swap half: reallocate the head string of a rotating bucket.
            self.swap_cursor = (self.swap_cursor + 1) % WAYS;
            let victim_slot = self.swap_cursor * 8;
            let victim = heap.load_ref(ctx, dir, victim_slot);
            if victim.is_null() || victim == s {
                return;
            }
            let vkey = heap.read_u64(ctx, victim, KEY);
            let vgen = heap.read_u64(ctx, victim, GEN);
            let (_, vsize) = heap.object_header(ctx, victim);
            let next = heap.load_ref(ctx, victim, NEXT);
            let fresh = heap.alloc(ctx, T_STR, vsize as u64).expect("swap string");
            heap.write_u64(ctx, fresh, KEY, vkey);
            heap.write_u64(ctx, fresh, GEN, vgen + 1);
            let mut val = vec![0u8; vsize as usize - VAL as usize];
            value_pattern(vkey, &mut val);
            heap.write_bytes(ctx, fresh, VAL, &val);
            heap.store_ref(ctx, fresh, NEXT, next);
            heap.persist(ctx, fresh, 0, vsize as u64);
            heap.store_ref(ctx, dir, victim_slot, fresh);
            heap.free(ctx, victim).expect("free swapped string");
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let dir = heap.root(ctx);
            let slot = Self::bucket(key) * 8;
            let mut prev: Option<PmPtr> = None;
            let mut cur = heap.load_ref(ctx, dir, slot);
            while !cur.is_null() {
                let next = heap.load_ref(ctx, cur, NEXT);
                if heap.read_u64(ctx, cur, KEY) == key {
                    match prev {
                        Some(p) => heap.store_ref(ctx, p, NEXT, next),
                        None => heap.store_ref(ctx, dir, slot, next),
                    }
                    heap.free(ctx, cur).expect("free string");
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
            let mut cur = heap.load_ref(ctx, dir, Self::bucket(key) * 8);
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
        let mut got = BTreeSet::new();
        if dir.is_null() {
            // Crashed before setup's root store persisted: an empty store.
            return check_key_set("SS", &got, expected);
        }
        if !in_data(heap, dir, WAYS * 8) {
            return Err(format!("SS: directory {dir} outside the data region"));
        }
        for way in 0..WAYS {
            let mut cur = heap.load_ref(ctx, dir, way * 8);
            let mut hops = 0;
            while !cur.is_null() {
                let Some((_, size)) = checked_header(heap, ctx, cur, VAL) else {
                    return Err(format!("SS: string {cur} outside the data region"));
                };
                let key = heap.read_u64(ctx, cur, KEY);
                let mut val = vec![0u8; (size - VAL) as usize];
                heap.read_bytes(ctx, cur, VAL, &mut val);
                if !value_matches(key, &val) {
                    return Err(format!("SS: corrupted string for key {key}"));
                }
                if !got.insert(key) {
                    return Err(format!("SS: duplicate key {key}"));
                }
                hops += 1;
                if hops > 1_000_000 {
                    return Err("SS: cycle in chain".to_owned());
                }
                cur = heap.load_ref(ctx, cur, NEXT);
            }
        }
        check_key_set("SS", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::heap;
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn swap_churn_preserves_key_set_and_values() {
        let mut w = StringSwap::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (0..400u64).collect();
        for &k in &expected {
            // Every insert also swaps an existing string (COW), so this
            // exercises generation bumps heavily.
            w.insert(&h, &mut ctx, k, 96);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("values intact after swaps");
    }

    #[test]
    fn swaps_reallocate_without_leaking() {
        let mut w = StringSwap::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 0..64u64 {
            w.insert(&h, &mut ctx, k, 96);
        }
        let live_before = h.pool().stats().live_bytes;
        // Pure churn: insert+delete pairs swap strings but net zero keys.
        for k in 1000..1400u64 {
            w.insert(&h, &mut ctx, k, 96);
            assert!(w.delete(&h, &mut ctx, k));
        }
        let live_after = h.pool().stats().live_bytes;
        assert_eq!(live_before, live_after, "swap churn must not leak");
    }

    #[test]
    fn a_directory_pointer_off_the_media_is_an_error_not_a_panic() {
        let mut w = StringSwap::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.validate(&h, &mut ctx, &BTreeSet::new())
            .expect("a null root is an empty store");
        w.setup(&h, &mut ctx);
        let bogus = PmPtr::new(
            h.pool().pool_id(),
            h.pool().layout().total_bytes + (1 << 20),
        );
        h.set_root(&mut ctx, bogus);
        let err = w
            .validate(&h, &mut ctx, &BTreeSet::new())
            .expect_err("a directory past the pool must fail validation");
        assert!(err.contains("outside the data region"), "{err}");
    }
}
