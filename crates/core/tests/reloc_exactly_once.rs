//! First-touch relocation is exactly-once: the relocation stripe plus the
//! double-checked moved bit is the only mechanism keeping free-running
//! mutator threads that race `ensure_relocated` on slots sharing a
//! moved-bitmap byte from relocating an object twice.
//!
//! Exactly-once is observable from the outside: `objects_relocated` is
//! bumped once per relocation, so a double relocation inflates the
//! counter above the single-threaded ground truth for the same heap, and
//! a lost relocation (or a copy racing a reference fixup) corrupts the
//! list digest or the validator.

use std::sync::Arc;

use proptest::prelude::*;

use ffccd::{validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::{Ctx, MachineConfig};
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeRegistry};

const NODE_SIZE: u64 = 128;
const NEXT_OFF: u64 = 120;
const VAL_OFF: u64 = 0;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_SIZE as u32, &[NEXT_OFF as u32]));
    reg
}

fn heap_with(scheme: Scheme, seed: u64) -> DefragHeap {
    let pool_cfg = PoolConfig {
        data_bytes: 2 << 20,
        os_page_size: 4096,
        machine: MachineConfig {
            seed,
            ..MachineConfig::default()
        },
    };
    DefragHeap::create(pool_cfg, registry(), DefragConfig::normal(scheme)).expect("create heap")
}

/// Builds a fragmented armed heap: insert `n`, keep every `keep`-th, arm a
/// cycle. Adjacent survivors sit 5 slots apart within a frame, so distinct
/// live objects share moved-bitmap bytes — racing walkers contend on the
/// same stripe and the same byte's read-modify-write.
fn armed(scheme: Scheme, seed: u64, n: u64) -> (DefragHeap, (u64, u64)) {
    let heap = heap_with(scheme, seed);
    let mut ctx = heap.ctx();
    for i in 0..n {
        let node = heap
            .alloc(&mut ctx, ffccd_pmop::TypeId(0), NODE_SIZE)
            .expect("alloc");
        heap.write_u64(&mut ctx, node, VAL_OFF, i);
        let head = heap.root(&mut ctx);
        heap.store_ref(&mut ctx, node, NEXT_OFF, head);
        heap.persist(&mut ctx, node, 0, NODE_SIZE);
        heap.set_root(&mut ctx, node);
    }
    // Unlink all but every 5th in one pass (pointers stay fresh: no cycle
    // is armed yet, so no relocation can move nodes mid-unlink).
    let mut prev = PmPtr::NULL;
    let mut cur = heap.root(&mut ctx);
    let mut idx = 0u64;
    while !cur.is_null() {
        let next = heap.load_ref(&mut ctx, cur, NEXT_OFF);
        if !idx.is_multiple_of(5) {
            if prev.is_null() {
                heap.set_root(&mut ctx, next);
            } else {
                heap.store_ref(&mut ctx, prev, NEXT_OFF, next);
            }
            heap.free(&mut ctx, cur).expect("free");
        } else {
            prev = cur;
        }
        idx += 1;
        cur = next;
    }
    let digest = walk_digest(&heap, &mut ctx);
    assert!(heap.defrag_now(&mut ctx), "cycle must arm");
    (heap, digest)
}

/// Sum + count of list values through the read barrier.
fn walk_digest(heap: &DefragHeap, ctx: &mut Ctx) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut cur = heap.root(ctx);
    while !cur.is_null() {
        sum += heap.read_u64(ctx, cur, VAL_OFF);
        count += 1;
        cur = heap.load_ref(ctx, cur, NEXT_OFF);
    }
    (sum, count)
}

/// Ground truth: the single-threaded walk of the same heap geometry.
/// Returns (digest, relocated).
fn single_threaded_walk(scheme: Scheme, seed: u64, n: u64) -> ((u64, u64), u64) {
    let (heap, digest) = armed(scheme, seed, n);
    let mut ctx = heap.ctx();
    let walked = walk_digest(&heap, &mut ctx);
    assert_eq!(walked, digest, "the lone walk must preserve the list");
    while heap.step_compaction(&mut ctx, 4) {}
    (digest, heap.gc_stats().objects_relocated)
}

/// `threads` free-running walkers race the whole list through the
/// barrier; returns the relocation count afterwards.
fn racing_walk(
    scheme: Scheme,
    seed: u64,
    n: u64,
    threads: usize,
    expect_digest: (u64, u64),
) -> u64 {
    let (heap, digest) = armed(scheme, seed, n);
    assert_eq!(digest, expect_digest, "same geometry as the ground truth");
    let heap = Arc::new(heap);
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let mut ctx = heap.ctx();
                walk_digest(&heap, &mut ctx)
            })
        })
        .collect();
    for h in handles {
        let d = h.join().expect("walker");
        assert_eq!(d, digest, "every racing walk sees the intact list");
    }
    let mut ctx = heap.ctx();
    let after = walk_digest(&heap, &mut ctx);
    assert_eq!(after, digest, "list intact after all relocations");
    // Finish the cycle (drain the pending queue — already-moved objects
    // are skipped by the double-checked moved bits — and tear down), then
    // the whole heap must validate.
    while heap.step_compaction(&mut ctx, 4) {}
    validate_heap(&heap).expect("heap validates after racing relocation");
    heap.gc_stats().objects_relocated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Racing mutators over byte-sharing slots relocate each object
    /// exactly once: the count matches the single-threaded ground truth
    /// (every live object is on the walked list). The 1-walker case pins
    /// the uncontended stripe path to the same count.
    #[test]
    fn relocation_is_exactly_once_under_races(
        seed in 0u64..1 << 48,
        threads in 2usize..=4,
        n in 400u64..=700,
        scheme_idx in 0usize..3,
    ) {
        let scheme = [Scheme::Sfccd, Scheme::FfccdFenceFree, Scheme::FfccdCheckLookup][scheme_idx];
        let (digest, expected) = single_threaded_walk(scheme, seed, n);
        prop_assert!(expected > 0, "the walk must relocate something");
        for walkers in [1, threads] {
            let got = racing_walk(scheme, seed, n, walkers, digest);
            prop_assert_eq!(got, expected, "{} walkers vs the ground truth", walkers);
        }
    }
}
