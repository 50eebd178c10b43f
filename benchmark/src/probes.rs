//! Isolated per-layer probes: short loops that call one layer's public
//! functions directly, so a layer's per-call cost is known on both clocks
//! without the layers above it. They run after the traced window and take
//! nothing from it but the seed.
//!
//! Every probe gets the same slice of the time budget. A probe reports the
//! mean over all the calls it made; the per-call costs here are tens of ns
//! to a few µs, so even a 0.1 s slice averages thousands of calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ffccd::{DefragConfig, DefragHeap, Scheme};
use ffccd_arch::{relocate, CheckLookupUnit, GcMetaLayout, Pmft, PmftEntry};
use ffccd_pmem::{Ctx, PmEngine};
use ffccd_pmop::{PmPool, PmPtr, PoolLayout, TypeDesc, TypeId, TypeRegistry};
use ffccd_workloads::driver::{self, DriverConfig, PhaseMix};
use ffccd_workloads::{Pmemkv, Workload};

use crate::ops::{churn_trace, ChurnShape, Op};
use crate::report::median;
use crate::workloads::{kv_defrag, kv_round, machine, pool};

/// `(metric name, value)` pairs, names as in `spec::PER_LAYER`.
pub type Readings = Vec<(&'static str, f64)>;

/// Number of equal budget slices [`run_all`] hands out.
const SLICES: u32 = 12;

/// Runs every probe within about `budget` of host time.
pub fn run_all(seed: u64, budget: Duration, shape: ChurnShape) -> Readings {
    let slice = budget / SLICES;
    let mut out = Readings::new();
    out.extend(pmem_engine(seed, slice * 3));
    out.extend(pmop_alloc(seed, slice * 2));
    out.extend(arch_units(seed, slice));
    out.extend(core_barrier(seed, slice * 3));
    out.extend(core_recovery(seed, slice * 2, shape));
    out.extend(driver_overhead(seed, shape));
    out
}

/// Calls whose simulated cycles a probe reports: a fixed count, so the
/// simulated numbers do not depend on how long the probe was given.
const SIM_CALLS: u64 = 4096;

/// Calls `f` in batches of 256 until `budget` is used (and at least
/// [`SIM_CALLS`] times); mean host ns per call over all calls, mean
/// simulated cycles per call over the first [`SIM_CALLS`].
fn per_call(budget: Duration, ctx: &mut Ctx, mut f: impl FnMut(&mut Ctx, u64)) -> (f64, f64) {
    let c0 = ctx.cycles();
    let t0 = Instant::now();
    let mut calls = 0u64;
    let mut sim = 0.0;
    while calls < SIM_CALLS || t0.elapsed() < budget {
        for _ in 0..256 {
            f(ctx, calls);
            calls += 1;
        }
        if calls == SIM_CALLS {
            sim = (ctx.cycles() - c0) as f64 / SIM_CALLS as f64;
        }
    }
    (t0.elapsed().as_nanos() as f64 / calls as f64, sim)
}

/// `pmem`: loads that hit and miss the simulated cache, stores, persists,
/// two threads hitting a banked engine, and `crash_image`.
fn pmem_engine(seed: u64, budget: Duration) -> Readings {
    const LEN: u64 = 32 << 20; // ten times the 3 MiB simulated cache
    const HOT: u64 = 64 << 10;
    let cell = budget / 6;
    let engine = PmEngine::new(machine(seed, 1), LEN);
    let mut ctx = Ctx::new(engine.config());
    for off in (0..HOT).step_by(64) {
        engine.read_u64(&mut ctx, off);
    }
    let (load_hit, _) = per_call(cell, &mut ctx, |ctx, i| {
        black_box(engine.read_u64(ctx, (i * 64) % HOT));
    });
    // A line stride over the whole engine: by the time the walk wraps,
    // the cache has long evicted the line.
    let (load_miss, _) = per_call(cell, &mut ctx, |ctx, i| {
        black_box(engine.read_u64(ctx, (i * 64) % LEN));
    });
    let (store, _) = per_call(cell, &mut ctx, |ctx, i| {
        engine.write_u64(ctx, (i * 64) % HOT, i);
    });
    let (persist, _) = per_call(cell, &mut ctx, |ctx, i| {
        let off = (i * 64) % HOT;
        engine.write_u64(ctx, off, i);
        engine.persist(ctx, off, 8);
    });

    let banked = PmEngine::new(machine(seed, 8), LEN);
    let load_hit_2t = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let banked = &banked;
                s.spawn(move || {
                    let mut ctx = Ctx::new(banked.config());
                    let base = t * HOT;
                    for off in (0..HOT).step_by(64) {
                        banked.read_u64(&mut ctx, base + off);
                    }
                    per_call(cell, &mut ctx, |ctx, i| {
                        black_box(banked.read_u64(ctx, base + (i * 64) % HOT));
                    })
                    .0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .fold(0.0, f64::max)
    });

    let t0 = Instant::now();
    let mut images = 0u32;
    while images < 2 || t0.elapsed() < cell {
        black_box(engine.crash_image());
        images += 1;
    }
    let crash_image_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(images);

    vec![
        ("pmem.load_hit_host_ns", load_hit),
        ("pmem.load_miss_host_ns", load_miss),
        ("pmem.store_host_ns", store),
        ("pmem.persist_host_ns", persist),
        ("pmem.load_hit_2t_host_ns", load_hit_2t),
        ("pmem.crash_image_host_ms", crash_image_ms),
    ]
}

const NODE: TypeId = TypeId(0);
const NODE_BYTES: u64 = 128;

fn node_registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_BYTES as u32, &[0]));
    reg
}

/// 128-byte alloc/free churn on `pool` from arena `arena`: batches of 512
/// allocations then 512 frees. Returns per-call (alloc ns, free ns, alloc
/// cycles, free cycles) and the number of failed allocations; the cycles
/// are the first batch's, so they do not depend on `budget`.
fn alloc_churn(pool: &PmPool, arena: u32, budget: Duration) -> (f64, f64, f64, f64, u64) {
    let mut ctx = Ctx::new(pool.machine());
    ctx.set_arena(arena);
    let mut held: Vec<PmPtr> = Vec::with_capacity(512);
    let (mut alloc_ns, mut free_ns, mut alloc_cy, mut free_cy) = (0u128, 0u128, 0u64, 0u64);
    let (mut calls, mut failures) = (0u64, 0u64);
    let t0 = Instant::now();
    while calls == 0 || t0.elapsed() < budget {
        let (t, c) = (Instant::now(), ctx.cycles());
        for _ in 0..512 {
            match pool.pmalloc(&mut ctx, NODE, NODE_BYTES) {
                Ok(p) => held.push(p),
                Err(_) => failures += 1,
            }
        }
        alloc_ns += t.elapsed().as_nanos();
        if calls == 0 {
            alloc_cy = ctx.cycles() - c;
        }
        let (t, c) = (Instant::now(), ctx.cycles());
        for p in held.drain(..) {
            if pool.pfree(&mut ctx, p).is_err() {
                failures += 1;
            }
        }
        free_ns += t.elapsed().as_nanos();
        if calls == 0 {
            free_cy = ctx.cycles() - c;
        }
        calls += 512;
    }
    let n = calls as f64;
    (
        alloc_ns as f64 / n,
        free_ns as f64 / n,
        alloc_cy as f64 / 512.0,
        free_cy as f64 / 512.0,
        failures,
    )
}

/// `pmop`: `pmalloc`/`pfree` on one thread, on two threads with their own
/// arenas, and `PmPool::stats`.
fn pmop_alloc(seed: u64, budget: Duration) -> Readings {
    let cell = budget / 3;
    let make_pool =
        |banks| PmPool::create(pool(seed, 16 << 20, banks), node_registry()).expect("probe pool");
    let pool = make_pool(1);
    let (alloc_ns, free_ns, alloc_cy, free_cy, failures) = alloc_churn(&pool, 0, cell);
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < cell {
        for _ in 0..256 {
            black_box(pool.stats());
        }
        calls += 256;
    }
    let stats_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    let shared = make_pool(8);
    let (alloc_2t_ns, failures_2t) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let shared = &shared;
                s.spawn(move || alloc_churn(shared, t, cell))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .fold((0.0, 0), |(ns, f), r| (f64::max(ns, r.0), f + r.4))
    });
    vec![
        ("pmop.alloc_host_ns", alloc_ns),
        ("pmop.free_host_ns", free_ns),
        ("pmop.alloc_sim_cycles", alloc_cy),
        ("pmop.free_sim_cycles", free_cy),
        ("pmop.alloc_2t_host_ns", alloc_2t_ns),
        ("pmop.stats_host_ns", stats_ns),
        ("pmop.alloc_failures", (failures + failures_2t) as f64),
    ]
}

/// `arch`: `checklookup` over 64 armed relocation frames (four times the
/// 16-entry PMFTLB, so both its hit and its refill path run), the
/// `relocate` copy of one 144-byte object, and the software PMFT walk the
/// non-checklookup schemes pay instead.
fn arch_units(seed: u64, budget: Duration) -> Readings {
    const BASE: u64 = 0x5000_0000_0000;
    const FRAMES: u64 = 64;
    let cell = budget / 3;
    let layout = PoolLayout::compute(16 << 20, 4096);
    let meta = GcMetaLayout::from_pool(&layout);
    let engine = PmEngine::new(machine(seed, 1), layout.total_bytes);
    let mut ctx = Ctx::new(engine.config());
    let pmft = Pmft::new(meta);
    let entries: Vec<PmftEntry> = (0..FRAMES)
        .map(|f| {
            let mut e = PmftEntry::new(f, f + FRAMES);
            for obj in 0..16usize {
                e.map(obj * 16, (obj * 9) as u8);
            }
            pmft.store(&mut ctx, &engine, &e);
            e
        })
        .collect();
    let soft = Pmft::new(meta);
    let unit = CheckLookupUnit::new(pmft);
    unit.begin_cycle(&engine, BASE, &entries, false);
    let va = |i: u64| BASE + meta.data_start + (i % FRAMES) * 4096 + ((i / FRAMES) % 16) * 256;

    let (cl_ns, cl_cy) = per_call(cell, &mut ctx, |ctx, i| {
        black_box(unit.checklookup(ctx, &engine, va(i)));
    });
    let (reloc_ns, _) = per_call(cell, &mut ctx, |ctx, i| {
        let src = meta.data_start + (i % FRAMES) * 4096 + ((i / FRAMES) % 16) * 256;
        relocate(ctx, &engine, src, src + FRAMES * 4096, 144);
    });
    let (soft_ns, _) = per_call(cell, &mut ctx, |ctx, i| {
        black_box(soft.soft_lookup(ctx, &engine, i % FRAMES, ((i / FRAMES) % 16) as usize * 16));
    });
    vec![
        ("arch.checklookup_host_ns", cl_ns),
        ("arch.checklookup_sim_cycles", cl_cy),
        ("arch.relocate_host_ns", reloc_ns),
        ("arch.pmft_soft_lookup_host_ns", soft_ns),
    ]
}

/// A fragmented linked list (1200 nodes, four of five deleted) with a
/// compaction cycle armed over it — `bench_barrier`'s fixture on the
/// deterministic single-bank engine. Every `load_ref` of the first walk is
/// a first-touch barrier that relocates its target.
fn armed_list(seed: u64, scheme: Scheme) -> DefragHeap {
    const NEXT: u64 = 0;
    let heap = DefragHeap::create(
        pool(seed, 8 << 20, 1),
        node_registry(),
        DefragConfig {
            min_live_bytes: 1 << 12,
            ..DefragConfig::normal(scheme)
        },
    )
    .expect("probe heap");
    let mut ctx = heap.ctx();
    for i in 0..1200u64 {
        let n = heap.alloc(&mut ctx, NODE, NODE_BYTES).expect("alloc");
        heap.write_u64(&mut ctx, n, 8, i);
        let head = heap.root(&mut ctx);
        heap.store_ref(&mut ctx, n, NEXT, head);
        heap.persist(&mut ctx, n, 0, NODE_BYTES);
        heap.set_root(&mut ctx, n);
    }
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
    assert!(heap.defrag_now(&mut ctx), "probe cycle must arm");
    heap
}

/// One whole-list walk through the read barrier: (barriers, host ns,
/// simulated cycles).
fn walk(heap: &DefragHeap, ctx: &mut Ctx) -> (u64, u64, u64) {
    let (t0, c0) = (Instant::now(), ctx.cycles());
    let mut barriers = 0u64;
    let mut cur = heap.root(ctx);
    while !cur.is_null() {
        cur = heap.load_ref(ctx, cur, 0);
        barriers += 1;
    }
    (barriers, t0.elapsed().as_nanos() as u64, ctx.cycles() - c0)
}

/// Walks until `budget` is used; per barrier, mean host ns over all walks
/// and the simulated cycles of the first.
fn steady_walk(heap: &DefragHeap, ctx: &mut Ctx, budget: Duration) -> (f64, f64) {
    let t0 = Instant::now();
    let (mut barriers, mut ns, mut first_cycles) = (0u64, 0u64, 0.0);
    while barriers == 0 || t0.elapsed() < budget {
        let (b, n, c) = walk(heap, ctx);
        if barriers == 0 {
            first_cycles = c as f64 / b as f64;
        }
        barriers += b;
        ns += n;
    }
    (ns as f64 / barriers as f64, first_cycles)
}

/// `core` barrier: `DefragHeap::load_ref` in its three states. First touch
/// needs a freshly armed heap per walk, so its cells are means over as
/// many heaps as fit the slice (at least one per scheme); the simulated
/// numbers do not depend on how many.
fn core_barrier(seed: u64, budget: Duration) -> Readings {
    let cell = budget / 4;
    let mut out = Readings::new();
    for (scheme, name) in [
        (
            Scheme::Espresso,
            "core.barrier_first_touch_sim_cycles.espresso",
        ),
        (Scheme::Sfccd, "core.barrier_first_touch_sim_cycles.sfccd"),
        (
            Scheme::FfccdFenceFree,
            "core.barrier_first_touch_sim_cycles.ffccd",
        ),
    ] {
        let heap = armed_list(seed, scheme);
        let _mutator = heap.register_mutator();
        let (b, _, cycles) = walk(&heap, &mut heap.ctx());
        out.push((name, cycles as f64 / b as f64));
    }
    let t0 = Instant::now();
    let (mut barriers, mut ns, mut cycles) = (0u64, 0u64, 0u64);
    let heap = loop {
        let heap = armed_list(seed, Scheme::FfccdCheckLookup);
        let (b, n, c) = {
            let _mutator = heap.register_mutator();
            walk(&heap, &mut heap.ctx())
        };
        barriers += b;
        ns += n;
        cycles += c;
        if t0.elapsed() >= cell * 2 {
            break heap;
        }
    };
    out.push((
        "core.barrier_first_touch_sim_cycles.checklookup",
        cycles as f64 / barriers as f64,
    ));
    out.push((
        "core.barrier_first_touch_host_ns",
        ns as f64 / barriers as f64,
    ));

    // The last heap has been walked once: relocations are done and the
    // references fixed up, but the cycle is still armed.
    let _mutator = heap.register_mutator();
    let mut ctx = heap.ctx();
    let (in_ns, in_cycles) = steady_walk(&heap, &mut ctx, cell);
    out.push(("core.barrier_in_cycle_host_ns", in_ns));
    out.push(("core.barrier_in_cycle_sim_cycles", in_cycles));
    heap.exit(&mut ctx);
    let (out_ns, _) = steady_walk(&heap, &mut ctx, cell);
    out.push(("core.barrier_out_of_cycle_host_ns", out_ns));
    out
}

/// Mid-cycle crash images the recovery probe recovers.
const RECOVERY_IMAGES: u64 = 32;

/// Replays `ops` on a fresh small pmemkv heap with the benchmark loop's
/// pump, calling `in_cycle_op(heap, n)` after the `n`-th op that ends with a
/// compaction cycle armed. Returns how many such ops there were. The pool is
/// 4 MiB because the recovery probe keeps 32 images of it alive at once.
fn churn_with_pump(seed: u64, ops: &[Op], mut in_cycle_op: impl FnMut(&DefragHeap, u64)) -> u64 {
    let mut w = Pmemkv::new();
    let heap =
        DefragHeap::create(pool(seed, 4 << 20, 1), w.registry(), kv_defrag()).expect("probe heap");
    let (mut app_ctx, mut gc_ctx) = (heap.ctx(), heap.ctx());
    w.setup(&heap, &mut app_ctx);
    let mut in_cycle_ops = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { key, value_size } => w.insert(&heap, &mut app_ctx, key, value_size),
            Op::Delete { key } => {
                w.delete(&heap, &mut app_ctx, key);
            }
            Op::Get { key } => {
                w.contains(&heap, &mut app_ctx, key);
            }
        }
        if heap.in_cycle() {
            heap.step_compaction(&mut gc_ctx, 32);
            in_cycle_ops += 1;
            in_cycle_op(&heap, in_cycle_ops);
        } else if (i + 1).is_multiple_of(32) {
            heap.maybe_defrag(&mut gc_ctx);
        }
    }
    in_cycle_ops
}

/// `core` recovery: medians over [`RECOVERY_IMAGES`] `crash_image()`s of a
/// small churned pmemkv heap, taken while a compaction cycle is armed and
/// each fed to `DefragHeap::open_recovered` (an image whose last batch had
/// already made the cycle's end durable recovers as "no cycle"; it counts
/// like any other). A first pass counts the in-cycle ops so
/// the second can spread the images evenly over every cycle and over each
/// cycle's progress. The image count is fixed, so the simulated numbers
/// repeat; only the host time uses the slice, by recovering each image
/// more than once when there is time left.
fn core_recovery(seed: u64, budget: Duration, shape: ChurnShape) -> Readings {
    let trace = churn_trace(seed, shape);
    let in_cycle_ops = churn_with_pump(seed, &trace.ops, |_, _| {});
    assert!(
        in_cycle_ops >= RECOVERY_IMAGES,
        "recovery probe: only {in_cycle_ops} in-cycle ops to take {RECOVERY_IMAGES} images from"
    );
    let stride = in_cycle_ops / RECOVERY_IMAGES;
    let mut images = Vec::new();
    churn_with_pump(seed, &trace.ops, |heap, n| {
        if n.is_multiple_of(stride) && (images.len() as u64) < RECOVERY_IMAGES {
            images.push(heap.engine().crash_image());
        }
    });

    let registry = Pmemkv::new().registry();
    let mut host_ms = Vec::new();
    let (mut cycles, mut finished, mut undone) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut pass = 0;
    while pass == 0 || t0.elapsed() < budget {
        for image in &images {
            let t = Instant::now();
            let (_heap2, report) = DefragHeap::open_recovered(image, registry.clone(), kv_defrag())
                .expect("recovery of a mid-cycle image");
            host_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if pass == 0 {
                cycles.push(report.cycles as f64);
                finished.push((report.finished + report.already_durable) as f64);
                undone.push(report.undone as f64);
            }
        }
        pass += 1;
    }
    vec![
        ("core.recovery_host_ms", median(&mut host_ms)),
        ("core.recovery_sim_cycles", median(&mut cycles)),
        ("core.recovery_finished", median(&mut finished)),
        ("core.recovery_undone", median(&mut undone)),
    ]
}

/// `workloads` driver layer: single-thread `driver::run` against the
/// benchmark loop replaying the same `KeyGen` sequence from a trace made
/// beforehand. Both execute the same simulated program (the
/// driver-equivalence test checks that), so the host-time difference per
/// op is what the driver adds: `KeyGen::pick`, its sampler and latency
/// vector. Best of two, since it is a difference of two timings.
fn driver_overhead(seed: u64, shape: ChurnShape) -> Readings {
    let cfg = DriverConfig {
        defrag: kv_defrag(),
        pool: pool(seed, 8 << 20, 1),
        mix: PhaseMix {
            init: shape.init,
            phase_ops: shape.phase_ops,
            phases: shape.phases,
        },
        seed,
        ..DriverConfig::new(Scheme::FfccdCheckLookup)
    };
    let trace = churn_trace(seed, shape);
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        let r = driver::run(&mut Pmemkv::new(), &cfg);
        let driver_ns = t0.elapsed().as_nanos() as f64;
        let round = kv_round(
            Instant::now(),
            cfg.pool.clone(),
            cfg.defrag,
            &[],
            trace.ops.iter().copied(),
            &trace.live,
            false,
        );
        // `driver::run` also creates the heap and sets the workload up.
        let loop_ns = (round.setup_s + round.window_s) * 1e9;
        best = best.min((driver_ns - loop_ns) / r.ops as f64);
    }
    vec![("workloads.driver_overhead_host_ns_per_op", best)]
}
