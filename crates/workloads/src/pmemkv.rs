//! pmemkv — Intel's PM key-value store (cmap-style engine).
//!
//! Unlike Echo, pmemkv's hash directory is built from *chunked, movable*
//! node objects rather than one huge array, so nearly its entire footprint
//! is compactable — matching its table-4 position as the biggest
//! fragmentation-reduction winner (46.4 %).
//!
//! ```text
//! chunk:  next@0, 255 bucket references @8…2048   (chained directory)
//! entry:  next@0, key@8, value@16…
//! ```

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeDesc, TypeId, TypeRegistry};

use crate::util::{value_matches, value_pattern};
use crate::workload::{check_key_set, Workload};

const CHUNKS: u64 = 8;
const SLOTS_PER_CHUNK: u64 = 255;
const BUCKETS: u64 = CHUNKS * SLOTS_PER_CHUNK;

const C_NEXT: u64 = 0;
const C_SLOTS: u64 = 8;
const CHUNK_SIZE: u64 = 8 + SLOTS_PER_CHUNK * 8;

const E_NEXT: u64 = 0;
const E_KEY: u64 = 8;
const E_VAL: u64 = 16;

const T_CHUNK: TypeId = TypeId(0);
const T_ENTRY: TypeId = TypeId(1);

/// The pmemkv key-value store.
#[derive(Debug, Default)]
pub struct Pmemkv;

impl Pmemkv {
    /// Creates the workload.
    pub fn new() -> Self {
        Pmemkv
    }

    fn bucket(key: u64) -> u64 {
        (key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 20) % BUCKETS
    }

    /// Resolves a global bucket to (chunk ptr, slot offset).
    fn slot_of(heap: &DefragHeap, ctx: &mut Ctx, bucket: u64) -> (PmPtr, u64) {
        let mut chunk = heap.root(ctx);
        for _ in 0..bucket / SLOTS_PER_CHUNK {
            chunk = heap.load_ref(ctx, chunk, C_NEXT);
        }
        (chunk, C_SLOTS + (bucket % SLOTS_PER_CHUNK) * 8)
    }
}

impl Workload for Pmemkv {
    fn name(&self) -> &'static str {
        "pmemkv"
    }

    fn registry(&self) -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        let mut refs: Vec<u32> = vec![C_NEXT as u32];
        refs.extend((0..SLOTS_PER_CHUNK as u32).map(|i| C_SLOTS as u32 + i * 8));
        reg.register(TypeDesc::new("kv_chunk", CHUNK_SIZE as u32, &refs));
        reg.register(TypeDesc::new("kv_entry", 0, &[E_NEXT as u32]));
        reg
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let mut head = PmPtr::NULL;
        for _ in 0..CHUNKS {
            let chunk = heap.alloc(ctx, T_CHUNK, CHUNK_SIZE).expect("chunk");
            for i in 0..SLOTS_PER_CHUNK {
                heap.store_ref(ctx, chunk, C_SLOTS + i * 8, PmPtr::NULL);
            }
            heap.store_ref(ctx, chunk, C_NEXT, head);
            head = chunk;
        }
        heap.set_root(ctx, head);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let (chunk, slot) = Self::slot_of(heap, ctx, Self::bucket(key));
            let entry = heap
                .alloc(ctx, T_ENTRY, E_VAL + value_size as u64)
                .expect("entry");
            let head = heap.load_ref(ctx, chunk, slot);
            heap.write_u64(ctx, entry, E_KEY, key);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, entry, E_VAL, &val);
            heap.store_ref(ctx, entry, E_NEXT, head);
            heap.persist(ctx, entry, 0, E_VAL + value_size as u64);
            heap.store_ref(ctx, chunk, slot, entry);
        })
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        heap.critical(|| {
            let (chunk, slot) = Self::slot_of(heap, ctx, Self::bucket(key));
            let mut prev: Option<PmPtr> = None;
            let mut cur = heap.load_ref(ctx, chunk, slot);
            while !cur.is_null() {
                let next = heap.load_ref(ctx, cur, E_NEXT);
                if heap.read_u64(ctx, cur, E_KEY) == key {
                    match prev {
                        Some(p) => heap.store_ref(ctx, p, E_NEXT, next),
                        None => heap.store_ref(ctx, chunk, slot, next),
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
            let (chunk, slot) = Self::slot_of(heap, ctx, Self::bucket(key));
            let mut cur = heap.load_ref(ctx, chunk, slot);
            while !cur.is_null() {
                if heap.read_u64(ctx, cur, E_KEY) == key {
                    return true;
                }
                cur = heap.load_ref(ctx, cur, E_NEXT);
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
        let mut chunk = heap.root(ctx);
        let mut chunk_idx = 0u64;
        while !chunk.is_null() {
            for i in 0..SLOTS_PER_CHUNK {
                let mut cur = heap.load_ref(ctx, chunk, C_SLOTS + i * 8);
                let mut hops = 0;
                while !cur.is_null() {
                    let key = heap.read_u64(ctx, cur, E_KEY);
                    let b = Self::bucket(key);
                    if b / SLOTS_PER_CHUNK != chunk_idx || b % SLOTS_PER_CHUNK != i {
                        return Err(format!("pmemkv: key {key} in wrong bucket"));
                    }
                    let (_, size) = heap.object_header(ctx, cur);
                    let mut val = vec![0u8; size as usize - E_VAL as usize];
                    heap.read_bytes(ctx, cur, E_VAL, &mut val);
                    if !value_matches(key, &val) {
                        return Err(format!("pmemkv: corrupted value for key {key}"));
                    }
                    if !got.insert(key) {
                        return Err(format!("pmemkv: duplicate key {key}"));
                    }
                    hops += 1;
                    if hops > 1_000_000 {
                        return Err("pmemkv: chain cycle".to_owned());
                    }
                    cur = heap.load_ref(ctx, cur, E_NEXT);
                }
            }
            chunk = heap.load_ref(ctx, chunk, C_NEXT);
            chunk_idx += 1;
            if chunk_idx > CHUNKS {
                return Err("pmemkv: chunk chain too long".to_owned());
            }
        }
        check_key_set("pmemkv", &got, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::test_util::{defrag_heap, heap};
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn chunked_directory_routes_all_buckets() {
        let mut w = Pmemkv::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let expected: BTreeSet<u64> = (0..600u64).collect();
        for &k in &expected {
            w.insert(&h, &mut ctx, k, 96);
        }
        w.validate(&h, &mut ctx, &expected)
            .expect("all buckets consistent");
    }

    #[test]
    fn directory_chunks_are_movable_by_gc() {
        // Unlike Echo, pmemkv's directory chunks are ordinary objects: a
        // full defragmentation cycle may relocate them, and the store keeps
        // working — this is why pmemkv benefits most in Table 4.
        let mut w = Pmemkv::new();
        let h = defrag_heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        let mut expected = BTreeSet::new();
        for k in 0..500u64 {
            w.insert(&h, &mut ctx, k, 96);
            expected.insert(k);
        }
        // Delete 80% so whole pages become sparse enough to evacuate.
        for k in 0..500u64 {
            if k % 5 != 0 {
                w.delete(&h, &mut ctx, k);
                expected.remove(&k);
            }
        }
        while h.maybe_defrag(&mut ctx) {
            while h.step_compaction(&mut ctx, 64) {}
        }
        assert!(h.gc_stats().objects_relocated > 0);
        w.validate(&h, &mut ctx, &expected)
            .expect("consistent after relocation");
    }
}
