//! Cross-crate integration tests: the whole stack — engine, pool,
//! architecture model, defragmenter, workloads — exercised together.

use ffccd_repro::ffccd::{validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_repro::pmem::{Ctx, MachineConfig};
use ffccd_repro::pmop::{PoolConfig, TypeDesc, TypeRegistry};
use ffccd_repro::workloads::driver::{run, DriverConfig, PhaseMix};
use ffccd_repro::workloads::{AvlTree, LinkedList, Pmemkv};

fn small_driver(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine = MachineConfig {
        seed,
        ..MachineConfig::default()
    };
    cfg.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

#[test]
fn end_to_end_defrag_cuts_footprint() {
    // A tiny mix barely fragments; use enough churn that page quantization
    // and destination-commit transients stop dominating.
    let mut base_cfg = small_driver(Scheme::Baseline, 1);
    base_cfg.mix = PhaseMix {
        init: 2500,
        phase_ops: 2000,
        phases: 3,
    };
    let mut ours_cfg = small_driver(Scheme::FfccdCheckLookup, 1);
    ours_cfg.mix = base_cfg.mix;
    let base = run(&mut LinkedList::new(), &base_cfg);
    let ours = run(&mut LinkedList::new(), &ours_cfg);
    assert!(ours.gc.cycles_completed > 0, "defrag must run");
    assert!(
        ours.avg_frag < base.avg_frag,
        "avg fragR must drop: {} -> {}",
        base.avg_frag,
        ours.avg_frag
    );
}

#[test]
fn scheme_cost_ordering_matches_paper() {
    // Figure 14's central claim: per relocated object, the copy+state cost
    // ranks Espresso > SFCCD > FFCCD (fences removed step by step).
    let mut per_obj = Vec::new();
    for scheme in [Scheme::Espresso, Scheme::Sfccd, Scheme::FfccdFenceFree] {
        let r = run(&mut AvlTree::new(), &small_driver(scheme, 2));
        assert!(r.gc.objects_relocated > 0, "{scheme}: nothing relocated");
        per_obj.push((r.gc.copy_cycles + r.gc.state_cycles) as f64 / r.gc.objects_relocated as f64);
    }
    assert!(
        per_obj[0] > per_obj[1] && per_obj[1] > per_obj[2],
        "copy+state per object must fall as fences go: {per_obj:?}"
    );
}

#[test]
fn checklookup_beats_software_lookup() {
    let soft = run(&mut Pmemkv::new(), &small_driver(Scheme::FfccdFenceFree, 3));
    let hw = run(
        &mut Pmemkv::new(),
        &small_driver(Scheme::FfccdCheckLookup, 3),
    );
    let soft_per = soft.gc.check_lookup_cycles as f64 / soft.gc.barrier_invocations.max(1) as f64;
    let hw_per = hw.gc.check_lookup_cycles as f64 / hw.gc.barrier_invocations.max(1) as f64;
    assert!(
        hw_per < soft_per * 0.6,
        "checklookup must cut check+lookup cost substantially: {soft_per:.1} -> {hw_per:.1} \
         cycles per barrier"
    );
}

#[test]
fn crash_anywhere_in_a_full_run_recovers() {
    // One integration-level crash-site sweep across the whole stack.
    use ffccd_repro::workloads::faults::{run_crash_site_sweep, CrashPlan};
    for scheme in [Scheme::Sfccd, Scheme::FfccdCheckLookup] {
        let cfg = small_driver(scheme, 4);
        let plan = CrashPlan::new(4, 5);
        let report = run_crash_site_sweep(&|| Box::new(AvlTree::new()), scheme, &plan, &cfg);
        assert_eq!(report.captured, 5, "{scheme}: one image per targeted site");
        assert!(
            report.failures.is_empty(),
            "{scheme}: {:?}",
            report.failures
        );
    }
}

#[test]
fn multithreaded_run_is_consistent() {
    use ffccd_repro::workloads::driver::run_mt;
    let cfg = small_driver(Scheme::FfccdCheckLookup, 5);
    let r = run_mt(&|| Box::new(ffccd_repro::workloads::BzTree::new()), 4, &cfg);
    assert!(r.ops > 0);
    assert!(r.avg_frag >= 1.0);
}

#[test]
fn relocatability_pool_base_can_move_between_runs() {
    // The same persistent data works under a different virtual base.
    let mut reg = TypeRegistry::new();
    let t = reg.register(TypeDesc::new("cell", 16, &[8]));
    let heap = DefragHeap::create(
        PoolConfig::small_for_tests(),
        reg.clone(),
        DefragConfig::normal(Scheme::FfccdCheckLookup),
    )
    .expect("create");
    let mut ctx = heap.ctx();
    let a = heap.alloc(&mut ctx, t, 16).expect("a");
    let b = heap.alloc(&mut ctx, t, 16).expect("b");
    heap.write_u64(&mut ctx, a, 0, 11);
    heap.write_u64(&mut ctx, b, 0, 22);
    heap.store_ref(&mut ctx, a, 8, b);
    heap.persist(&mut ctx, a, 0, 16);
    heap.persist(&mut ctx, b, 0, 16);
    heap.set_root(&mut ctx, a);
    let image = heap.engine().crash_image();
    let (heap2, _) =
        DefragHeap::open_recovered(&image, reg, DefragConfig::normal(Scheme::FfccdCheckLookup))
            .expect("recover");
    // Remap at a different base: offset-based pointers still resolve.
    heap2.pool().set_base(0x7FFF_0000_0000);
    let mut ctx2 = heap2.ctx();
    let a2 = heap2.root(&mut ctx2);
    assert_eq!(heap2.read_u64(&mut ctx2, a2, 0), 11);
    let b2 = heap2.load_ref(&mut ctx2, a2, 8);
    assert_eq!(heap2.read_u64(&mut ctx2, b2, 0), 22);
    validate_heap(&heap2).expect("consistent");
}

#[test]
fn comparator_defragmenters_work_end_to_end() {
    // Mesh and STW on a fragmented baseline heap.
    for use_stw in [false, true] {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("node", 128, &[0]));
        let heap = DefragHeap::create(
            PoolConfig {
                data_bytes: 4 << 20,
                ..PoolConfig::small_for_tests()
            },
            reg,
            DefragConfig::baseline(),
        )
        .expect("create");
        let mut ctx = heap.ctx();
        let mut last = ffccd_repro::pmop::PmPtr::NULL;
        let mut all = Vec::new();
        for _ in 0..1000 {
            let n = heap.alloc(&mut ctx, t, 128).expect("alloc");
            heap.store_ref(&mut ctx, n, 0, last);
            heap.persist(&mut ctx, n, 0, 128);
            last = n;
            all.push(n);
        }
        heap.set_root(&mut ctx, last);
        // Free ~70% from the middle of the chain by relinking.
        let mut kept = Vec::new();
        let mut prev = ffccd_repro::pmop::PmPtr::NULL;
        for (i, &n) in all.iter().enumerate().rev() {
            if i % 3 == 0 {
                if prev.is_null() {
                    heap.set_root(&mut ctx, n);
                } else {
                    heap.store_ref(&mut ctx, prev, 0, n);
                }
                prev = n;
                kept.push(n);
            }
        }
        if !prev.is_null() {
            heap.store_ref(&mut ctx, prev, 0, ffccd_repro::pmop::PmPtr::NULL);
        }
        for (i, &n) in all.iter().enumerate() {
            if i % 3 != 0 {
                heap.free(&mut ctx, n).expect("free");
            }
        }
        let before = heap.pool().stats().footprint_bytes;
        let (pause, released) = if use_stw {
            heap.stw_compact(&mut ctx)
        } else {
            heap.mesh_compact(&mut ctx)
        };
        assert!(pause > 0);
        assert!(released > 0, "compactor must release frames");
        let after = heap.pool().stats().footprint_bytes;
        assert!(after < before, "footprint must shrink: {before} -> {after}");
        // Chain is intact.
        let mut count = 0;
        let mut cur = heap.root(&mut ctx);
        while !cur.is_null() {
            count += 1;
            cur = heap.load_ref(&mut ctx, cur, 0);
        }
        assert_eq!(count, kept.len());
    }
}

#[test]
fn ctx_cycle_accounting_is_monotonic() {
    let heap = DefragHeap::create(
        PoolConfig::small_for_tests(),
        TypeRegistry::new(),
        DefragConfig::baseline(),
    )
    .expect("create");
    let mut ctx: Ctx = heap.ctx();
    let c0 = ctx.cycles();
    let _ = heap.root(&mut ctx);
    assert!(ctx.cycles() > c0, "every simulated access costs cycles");
}

#[test]
fn three_generation_lifecycle_with_crashes() {
    // A pool lives through three "process runs" with churn, defrag, a
    // crash and recovery in each generation — the lifetime story the
    // paper's introduction tells, end to end.
    use ffccd_repro::workloads::util::value_pattern;
    let mut reg = TypeRegistry::new();
    let t = reg.register(TypeDesc::new("node", 0, &[0]));
    let cfg = DefragConfig {
        min_live_bytes: 1 << 12,
        cooldown_ops: 128,
        ..DefragConfig::normal(Scheme::FfccdCheckLookup)
    };
    let mut heap = DefragHeap::create(
        PoolConfig {
            data_bytes: 8 << 20,
            ..PoolConfig::small_for_tests()
        },
        reg.clone(),
        cfg,
    )
    .expect("create");

    let mut expected_count = 0u64;
    for generation in 0..3u64 {
        let mut ctx = heap.ctx();
        // Churn: push nodes, drop ~2/3 by relinking every 3rd.
        let mut kept = Vec::new();
        for i in 0..300u64 {
            let n = heap.alloc(&mut ctx, t, 16 + 64).expect("alloc");
            heap.write_u64(&mut ctx, n, 8, generation * 1000 + i);
            let mut val = vec![0u8; 64];
            value_pattern(generation * 1000 + i, &mut val);
            heap.write_bytes(&mut ctx, n, 16, &val);
            let head = heap.root(&mut ctx);
            heap.store_ref(&mut ctx, n, 0, head);
            heap.persist(&mut ctx, n, 0, 80);
            heap.set_root(&mut ctx, n);
            kept.push(n);
        }
        expected_count += 300;
        // Unlink every node with (value % 3 != 0).
        let mut prev = ffccd_repro::pmop::PmPtr::NULL;
        let mut cur = heap.root(&mut ctx);
        while !cur.is_null() {
            let next = heap.load_ref(&mut ctx, cur, 0);
            let v = heap.read_u64(&mut ctx, cur, 8);
            if !v.is_multiple_of(3) && v / 1000 == generation {
                if prev.is_null() {
                    heap.set_root(&mut ctx, next);
                } else {
                    heap.store_ref(&mut ctx, prev, 0, next);
                }
                heap.free(&mut ctx, cur).expect("free");
                expected_count -= 1;
            } else {
                prev = cur;
            }
            cur = next;
        }
        // Defrag, crash mid-cycle, recover into the next generation.
        heap.maybe_defrag(&mut ctx);
        heap.step_compaction(&mut ctx, 25);
        let image = heap.engine().crash_image();
        let (next_heap, _) =
            DefragHeap::open_recovered(&image, reg.clone(), cfg).expect("generation recovery");
        validate_heap(&next_heap).unwrap_or_else(|e| panic!("gen {generation}: {e:?}"));
        // Count the list.
        let mut ctx2 = next_heap.ctx();
        let mut count = 0u64;
        let mut cur = next_heap.root(&mut ctx2);
        while !cur.is_null() {
            count += 1;
            cur = next_heap.load_ref(&mut ctx2, cur, 0);
        }
        assert_eq!(count, expected_count, "generation {generation}");
        heap = next_heap;
    }
}
