//! The world lock under real threads: structure operations hold it once
//! (`DefragHeap::critical`), stop-the-world phases wait them out, and
//! neither side can shut the other out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ffccd::{validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeId, TypeRegistry};

const NODE: TypeId = TypeId(0);
const NODE_SIZE: u64 = 128;
const VAL_OFF: u64 = 0;
const NEXT_OFF: u64 = 120;

fn heap() -> DefragHeap {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_SIZE as u32, &[NEXT_OFF as u32]));
    DefragHeap::create(
        PoolConfig::small_for_tests(),
        reg,
        DefragConfig::normal(Scheme::FfccdCheckLookup),
    )
    .expect("create heap")
}

/// Pushes nodes valued `0..n` at the list head.
fn push_nodes(heap: &DefragHeap, ctx: &mut Ctx, n: u64) {
    for v in 0..n {
        let node = heap.alloc(ctx, NODE, NODE_SIZE).expect("alloc");
        heap.write_u64(ctx, node, VAL_OFF, v);
        let head = heap.root(ctx);
        heap.store_ref(ctx, node, NEXT_OFF, head);
        heap.persist(ctx, node, 0, NODE_SIZE);
        heap.set_root(ctx, node);
    }
}

/// Unlinks and frees every node whose value is not a multiple of `keep`.
fn thin_out(heap: &DefragHeap, ctx: &mut Ctx, keep: u64) {
    let mut prev = PmPtr::NULL;
    let mut cur = heap.root(ctx);
    while !cur.is_null() {
        let next = heap.load_ref(ctx, cur, NEXT_OFF);
        if heap.read_u64(ctx, cur, VAL_OFF).is_multiple_of(keep) {
            prev = cur;
        } else {
            if prev.is_null() {
                heap.set_root(ctx, next);
            } else {
                heap.store_ref(ctx, prev, NEXT_OFF, next);
            }
            heap.free(ctx, cur).expect("free");
        }
        cur = next;
    }
}

/// `(sum, count)` of the list's values, read through the barrier.
fn digest(heap: &DefragHeap, ctx: &mut Ctx) -> (u64, u64) {
    let (mut sum, mut count) = (0, 0);
    let mut cur = heap.root(ctx);
    while !cur.is_null() {
        sum += heap.read_u64(ctx, cur, VAL_OFF);
        count += 1;
        cur = heap.load_ref(ctx, cur, NEXT_OFF);
    }
    (sum, count)
}

/// A mutator runs operations nested three `critical`s deep while another
/// thread arms, pumps and terminates cycles. Within one operation the GC
/// phase must not change, and an object the operation allocated but has
/// not linked yet must survive to its own `free` — a mark/sweep that
/// overlapped the operation would have reclaimed it.
#[test]
fn stop_the_world_phases_never_overlap_a_nested_operation() {
    let heap = heap();
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 600);
    thin_out(&heap, &mut ctx, 5);
    let expected = digest(&heap, &mut ctx);
    assert_eq!(expected.1, 120);

    let collector_done = AtomicBool::new(false);
    let mut cycles_armed = 0;
    std::thread::scope(|s| {
        let mutator = s.spawn(|| {
            let mut ctx = heap.ctx();
            let mut ops = 0u64;
            while !collector_done.load(Ordering::Acquire) {
                heap.critical(|| {
                    let phase = (heap.in_cycle(), heap.gc_epoch());
                    let scratch = heap.alloc(&mut ctx, NODE, NODE_SIZE).expect("alloc");
                    heap.critical(|| {
                        assert_eq!(digest(&heap, &mut ctx), expected);
                        heap.critical(|| heap.write_u64(&mut ctx, scratch, VAL_OFF, ops));
                    });
                    heap.free(&mut ctx, scratch)
                        .expect("the unlinked object outlived the operation");
                    assert_eq!((heap.in_cycle(), heap.gc_epoch()), phase);
                });
                ops += 1;
            }
            ops
        });
        let mut gc_ctx = heap.ctx();
        for _ in 0..40 {
            cycles_armed += heap.defrag_now(&mut gc_ctx) as u32;
            while heap.step_compaction(&mut gc_ctx, 8) {}
        }
        collector_done.store(true, Ordering::Release);
        assert!(mutator.join().expect("mutator") > 0);
    });
    assert!(cycles_armed > 0, "the fragmented list must arm a cycle");
    heap.exit(&mut ctx);
    assert_eq!(digest(&heap, &mut ctx), expected);
    validate_heap(&heap).expect("heap validates");
}

/// Two mutators run operations back to back, so the world lock is almost
/// never without a reader. A stop-the-world request must still get in
/// after the operations already running: an operation's outermost entry
/// queues behind a waiting phase instead of barging past it.
#[test]
fn hammering_operations_cannot_starve_a_stop_the_world_request() {
    const MUTATORS: u64 = 2;
    const REQUESTS: usize = 100;
    let heap = heap();
    let mut ctx = heap.ctx();
    // Long operations with no pause between them: the instants at which
    // both mutators are outside one are too rare to wait for.
    push_nodes(&heap, &mut ctx, 256);
    let expected = digest(&heap, &mut ctx);

    let started = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut overtaken: Vec<u64> = Vec::with_capacity(REQUESTS);
    std::thread::scope(|s| {
        for _ in 0..MUTATORS {
            s.spawn(|| {
                let mut ctx = heap.ctx();
                while !stop.load(Ordering::Acquire) {
                    heap.critical(|| {
                        started.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(digest(&heap, &mut ctx), expected);
                    });
                }
            });
        }
        for _ in 0..REQUESTS {
            let t0 = started.load(Ordering::SeqCst);
            heap.defrag_now(&mut ctx);
            overtaken.push(started.load(Ordering::SeqCst) - t0);
            // Let the mutators back in before asking again.
            let resume = started.load(Ordering::SeqCst) + 4 * MUTATORS;
            while started.load(Ordering::SeqCst) < resume {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
    });
    // The median, because a requester descheduled between reading `started`
    // and queueing sees every operation of that time slice.
    overtaken.sort_unstable();
    let median = overtaken[REQUESTS / 2];
    assert!(
        median <= 2 * MUTATORS,
        "median {median} operations started while a stop-the-world request waited: {overtaken:?}"
    );
}
