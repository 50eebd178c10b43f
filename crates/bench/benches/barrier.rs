//! Criterion ablation: the read barrier under each scheme.
//!
//! Reports both harness wall-time and (to stderr) the *simulated* cycle
//! cost per barrier class: fast-path (non-relocation pointer), forwarded
//! (already-moved object), and first-touch (relocation happens inside the
//! barrier) — the decomposition behind Figures 6/7/9.

use criterion::{criterion_group, criterion_main, Criterion};

use ffccd::{DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::MachineConfig;
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeId, TypeRegistry};

const NODE: TypeId = TypeId(0);
const NEXT: u64 = 0;
const SIZE: u64 = 128;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", SIZE as u32, &[NEXT as u32]));
    reg
}

/// Builds a fragmented heap with an armed compaction cycle and returns the
/// heap plus a list-head pointer whose chain crosses relocation frames.
fn armed_heap(scheme: Scheme) -> (DefragHeap, PmPtr) {
    let cfg = DefragConfig {
        min_live_bytes: 1 << 12,
        ..DefragConfig::normal(scheme)
    };
    let heap = DefragHeap::create(
        PoolConfig {
            data_bytes: 8 << 20,
            os_page_size: 4096,
            machine: MachineConfig::default(),
        },
        registry(),
        cfg,
    )
    .expect("heap");
    let mut ctx = heap.ctx();
    let mut nodes = Vec::new();
    for i in 0..1200u64 {
        let n = heap.alloc(&mut ctx, NODE, SIZE).expect("alloc");
        heap.write_u64(&mut ctx, n, 8, i);
        let head = heap.root(&mut ctx);
        heap.store_ref(&mut ctx, n, NEXT, head);
        heap.persist(&mut ctx, n, 0, SIZE);
        heap.set_root(&mut ctx, n);
        nodes.push(n);
    }
    // Delete 4 of 5 nodes to fragment, then arm a cycle.
    let mut prev = PmPtr::NULL;
    let mut cur = heap.root(&mut ctx);
    let mut idx = 0u64;
    while !cur.is_null() {
        let next = heap.load_ref(&mut ctx, cur, NEXT);
        if !idx.is_multiple_of(5) {
            if prev.is_null() {
                heap.set_root(&mut ctx, next);
            } else {
                heap.store_ref(&mut ctx, prev, NEXT, next);
            }
            heap.free(&mut ctx, cur).expect("free");
        } else {
            prev = cur;
        }
        idx += 1;
        cur = next;
    }
    assert!(heap.defrag_now(&mut ctx), "cycle must arm");
    let head = heap.root(&mut ctx);
    (heap, head)
}

fn barrier_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));

    for scheme in [
        Scheme::Espresso,
        Scheme::Sfccd,
        Scheme::FfccdFenceFree,
        Scheme::FfccdCheckLookup,
    ] {
        let (heap, head) = armed_heap(scheme);
        let mut ctx = heap.ctx();
        // Walk the list through barriers, round-robin.
        let mut cur = head;
        g.bench_function(format!("walk::{scheme}"), |b| {
            b.iter(|| {
                if cur.is_null() {
                    cur = heap.root(&mut ctx);
                }
                cur = heap.load_ref(&mut ctx, cur, NEXT);
            })
        });
        // Simulated-cycle report: whole-list walk through live barriers.
        let (heap, _) = armed_heap(scheme);
        let mut ctx = heap.ctx();
        let c0 = ctx.cycles();
        let inv0 = heap.gc_stats().barrier_invocations;
        let mut cur = heap.root(&mut ctx);
        while !cur.is_null() {
            cur = heap.load_ref(&mut ctx, cur, NEXT);
        }
        let invocations = heap.gc_stats().barrier_invocations - inv0;
        eprintln!(
            "[ablation] {scheme}: {} simulated cycles over {} barrier invocations ({:.1}/barrier)",
            ctx.cycles() - c0,
            invocations,
            (ctx.cycles() - c0) as f64 / invocations.max(1) as f64
        );
    }
    g.finish();
}

criterion_group!(benches, barrier_walk);
criterion_main!(benches);
