//! End-to-end defragmentation tests: full cycles, barrier-driven
//! relocation, crash injection and recovery for every scheme.

use ffccd::{phase_sites, recover, validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::{Ctx, MachineConfig};
use ffccd_pmop::{PmPool, PmPtr, PoolConfig, PoolError, TypeDesc, TypeRegistry, HDR_SHARDS};

const NODE_SIZE: u64 = 128; // value area + next pointer
const NEXT_OFF: u64 = 120;
const VAL_OFF: u64 = 0;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("node", NODE_SIZE as u32, &[NEXT_OFF as u32]));
    reg
}

fn node_type() -> ffccd_pmop::TypeId {
    ffccd_pmop::TypeId(0)
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

/// Pushes `n` nodes with values 0..n at the list head.
fn push_nodes(heap: &DefragHeap, ctx: &mut Ctx, n: u64) -> Vec<PmPtr> {
    let mut ptrs = Vec::new();
    for i in 0..n {
        let node = heap.alloc(ctx, node_type(), NODE_SIZE).expect("alloc");
        heap.write_u64(ctx, node, VAL_OFF, i);
        let head = heap.root(ctx);
        heap.store_ref(ctx, node, NEXT_OFF, head);
        heap.persist(ctx, node, 0, NODE_SIZE);
        heap.set_root(ctx, node);
        ptrs.push(node);
    }
    ptrs
}

/// Unlinks every node whose value satisfies `pred`, freeing it.
fn remove_if(heap: &DefragHeap, ctx: &mut Ctx, pred: impl Fn(u64) -> bool) {
    loop {
        // Restart after each removal; pointers may be stale across frees.
        let mut prev: Option<PmPtr> = None;
        let mut cur = heap.root(ctx);
        let mut removed = false;
        while !cur.is_null() {
            let v = heap.read_u64(ctx, cur, VAL_OFF);
            let next = heap.load_ref(ctx, cur, NEXT_OFF);
            if pred(v) {
                match prev {
                    Some(p) => heap.store_ref(ctx, p, NEXT_OFF, next),
                    None => heap.set_root(ctx, next),
                }
                heap.free(ctx, cur).expect("free");
                removed = true;
                break;
            }
            prev = Some(cur);
            cur = next;
        }
        if !removed {
            break;
        }
    }
}

/// Sum + count of list values through the barrier.
fn list_digest(heap: &DefragHeap, ctx: &mut Ctx) -> (u64, u64) {
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

/// Builds a fragmented list: insert 600, delete all but every 5th.
fn fragmented_heap(scheme: Scheme, seed: u64) -> (DefragHeap, Ctx, (u64, u64)) {
    let heap = heap_with(scheme, seed);
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 600);
    remove_if(&heap, &mut ctx, |v| v % 5 != 0);
    let digest = list_digest(&heap, &mut ctx);
    assert_eq!(digest.1, 120);
    (heap, ctx, digest)
}

#[test]
fn fragmentation_builds_up() {
    let (heap, _ctx, _) = fragmented_heap(Scheme::Baseline, 1);
    let st = heap.pool().stats();
    assert!(
        st.frag_ratio > 2.0,
        "deleting 80% of a list must fragment: fragR = {}",
        st.frag_ratio
    );
}

fn full_cycle_for(scheme: Scheme) {
    let (heap, mut ctx, digest) = fragmented_heap(scheme, 42);
    let before = heap.pool().stats();
    assert!(heap.defrag_now(&mut ctx), "cycle must start");
    assert!(heap.in_cycle());
    // Drive compaction to completion.
    while heap.step_compaction(&mut ctx, 16) {}
    assert!(!heap.in_cycle());
    let after = heap.pool().stats();
    assert!(
        after.footprint_bytes < before.footprint_bytes,
        "{scheme}: footprint must shrink: {} -> {}",
        before.footprint_bytes,
        after.footprint_bytes
    );
    assert!(
        after.frag_ratio < before.frag_ratio * 0.8,
        "{scheme}: fragR must drop: {} -> {}",
        before.frag_ratio,
        after.frag_ratio
    );
    assert_eq!(
        list_digest(&heap, &mut ctx),
        digest,
        "{scheme}: data intact"
    );
    let summary = validate_heap(&heap).expect("heap consistent");
    assert_eq!(summary.reachable_objects, 120);
    let gc = heap.gc_stats();
    assert_eq!(gc.cycles_completed, 1);
    assert!(gc.objects_relocated > 0);
    assert!(gc.frames_released > 0);
}

#[test]
fn full_cycle_espresso() {
    full_cycle_for(Scheme::Espresso);
}

#[test]
fn full_cycle_sfccd() {
    full_cycle_for(Scheme::Sfccd);
}

#[test]
fn full_cycle_ffccd_fence_free() {
    full_cycle_for(Scheme::FfccdFenceFree);
}

#[test]
fn full_cycle_ffccd_checklookup() {
    full_cycle_for(Scheme::FfccdCheckLookup);
}

#[test]
fn barrier_relocates_on_access() {
    let (heap, mut ctx, digest) = fragmented_heap(Scheme::FfccdCheckLookup, 7);
    assert!(heap.defrag_now(&mut ctx));
    // Touch the whole list through barriers — no explicit compaction steps.
    assert_eq!(list_digest(&heap, &mut ctx), digest);
    let relocated = heap.gc_stats().objects_relocated;
    assert!(
        relocated > 0,
        "reading through barriers must relocate objects"
    );
    heap.finish_cycle(&mut ctx);
    assert_eq!(list_digest(&heap, &mut ctx), digest);
    validate_heap(&heap).expect("consistent after barrier-driven cycle");
}

#[test]
fn monitor_triggers_on_threshold() {
    let pool_cfg = PoolConfig {
        data_bytes: 2 << 20,
        os_page_size: 4096,
        machine: MachineConfig {
            seed: 9,
            ..MachineConfig::default()
        },
    };
    let cfg = DefragConfig {
        min_live_bytes: 1 << 12,
        ..DefragConfig::normal(Scheme::FfccdCheckLookup)
    };
    let heap = DefragHeap::create(pool_cfg, registry(), cfg).expect("create heap");
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 600);
    assert!(
        !heap.maybe_defrag(&mut ctx),
        "freshly filled heap is not fragmented"
    );
    remove_if(&heap, &mut ctx, |v| v % 5 != 0);
    let pre = heap.pool().stats().frag_ratio;
    assert!(heap.maybe_defrag(&mut ctx), "fragmented heap must trigger");
    while heap.step_compaction(&mut ctx, 64) {}
    let post = heap.pool().stats().frag_ratio;
    // At this tiny scale page quantization and destination line alignment
    // put the floor near 1.6; demand at least a halving.
    assert!(
        post < pre * 0.5 && post < 2.0,
        "post-cycle fragR must collapse: {pre} -> {post}"
    );
}

#[test]
fn baseline_never_triggers() {
    let (heap, mut ctx, _) = fragmented_heap(Scheme::Baseline, 11);
    assert!(!heap.maybe_defrag(&mut ctx));
    assert!(!heap.defrag_now(&mut ctx));
    assert_eq!(heap.gc_stats().cycles_completed, 0);
}

/// The validator's reports, verbatim and in order, for a stale PMFT entry,
/// a stale frag-page bit on the pool's last frame, and a reachable
/// pointer that lands between slots of a live frame.
#[test]
fn validator_reports_stale_metadata_and_off_grid_pointers() {
    let heap = heap_with(Scheme::Sfccd, 0x7a11);
    let mut ctx = heap.ctx();
    let nodes = push_nodes(&heap, &mut ctx, 3);
    validate_heap(&heap).expect("fresh list is consistent");

    let engine = heap.engine();
    let layout = *heap.pool().layout();
    let last = layout.num_frames - 1;
    let fb = heap.meta().fragmap_byte(last);
    let byte = engine.read_u8(&mut ctx, fb) | 1 << (last % 8);
    engine.write(&mut ctx, fb, &[byte]);
    engine.write_u64(&mut ctx, heap.meta().pmft_entry(5), 5 + 1);
    // The tail node's next field points 8 bytes past the slot after its
    // header: inside the node, on no slot boundary.
    let tail = nodes[0];
    let hdr = tail.offset() - ffccd_pmop::OBJ_HEADER_BYTES;
    let stray = PmPtr::new(tail.pool_id(), tail.offset() + ffccd_pmop::SLOT_BYTES + 8);
    engine.write_u64(&mut ctx, tail.offset() + NEXT_OFF, stray.raw());

    let frame = layout.frame_of(hdr).expect("in the data region");
    let slot = (hdr - layout.frame_start(frame)) / ffccd_pmop::SLOT_BYTES + 1;
    let problems = validate_heap(&heap).expect_err("corrupt heap");
    assert_eq!(
        problems,
        vec![
            "stale PMFT entry for frame 5".to_owned(),
            format!("stale frag-page bit for frame {last}"),
            format!("dangling pointer {stray}: no object starts at frame {frame} slot {slot}"),
        ]
    );
}

#[test]
fn sweep_reclaims_unreachable_objects() {
    let heap = heap_with(Scheme::FfccdFenceFree, 13);
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 50);
    // Leak 50 nodes by resetting the root.
    heap.set_root(&mut ctx, PmPtr::NULL);
    push_nodes(&heap, &mut ctx, 10);
    let live_before = heap.pool().stats().live_bytes;
    heap.defrag_now(&mut ctx);
    while heap.step_compaction(&mut ctx, 64) {}
    let live_after = heap.pool().stats().live_bytes;
    assert!(
        live_after < live_before,
        "sweep must reclaim the leaked nodes: {live_before} -> {live_after}"
    );
    assert!(heap.gc_stats().objects_swept >= 50);
    assert_eq!(list_digest(&heap, &mut ctx).1, 10);
}

// ---- crash / recovery ---------------------------------------------------------

fn crash_midway_and_recover(scheme: Scheme, seed: u64, steps_before_crash: usize) {
    let (heap, mut ctx, digest) = fragmented_heap(scheme, seed);
    assert!(heap.defrag_now(&mut ctx));
    for _ in 0..steps_before_crash {
        if !heap.step_compaction(&mut ctx, 8) {
            break;
        }
    }
    // Also touch part of the list through barriers, so some relocations and
    // reference updates come from the application side.
    let mut cur = heap.root(&mut ctx);
    for _ in 0..30 {
        if cur.is_null() {
            break;
        }
        cur = heap.load_ref(&mut ctx, cur, NEXT_OFF);
    }
    let was_in_cycle = heap.in_cycle();
    let image = heap.engine().crash_image();
    let (heap2, report) =
        DefragHeap::open_recovered(&image, registry(), DefragConfig::normal(scheme))
            .expect("recovery");
    assert_eq!(
        report.had_cycle, was_in_cycle,
        "{scheme}: recovery must notice exactly the in-flight cycles"
    );
    let mut ctx2 = heap2.ctx();
    let digest2 = list_digest(&heap2, &mut ctx2);
    assert_eq!(
        digest2, digest,
        "{scheme} seed {seed} steps {steps_before_crash}: data survives the crash"
    );
    validate_heap(&heap2)
        .unwrap_or_else(|e| panic!("{scheme} seed {seed} steps {steps_before_crash}: {e:?}"));
    // The recovered heap keeps working: next cycle runs clean.
    heap2.defrag_now(&mut ctx2);
    while heap2.step_compaction(&mut ctx2, 64) {}
    assert_eq!(list_digest(&heap2, &mut ctx2), digest);
}

#[test]
fn crash_recovery_espresso() {
    for (seed, steps) in [(1, 0), (2, 3), (3, 100)] {
        crash_midway_and_recover(Scheme::Espresso, seed, steps);
    }
}

#[test]
fn crash_recovery_sfccd() {
    for (seed, steps) in [(4, 0), (5, 3), (6, 100)] {
        crash_midway_and_recover(Scheme::Sfccd, seed, steps);
    }
}

#[test]
fn crash_recovery_ffccd_fence_free() {
    for (seed, steps) in [(7, 0), (8, 3), (9, 100)] {
        crash_midway_and_recover(Scheme::FfccdFenceFree, seed, steps);
    }
}

#[test]
fn crash_recovery_ffccd_checklookup() {
    for (seed, steps) in [(10, 0), (11, 3), (12, 100)] {
        crash_midway_and_recover(Scheme::FfccdCheckLookup, seed, steps);
    }
}

#[test]
fn crash_with_no_cycle_recovers_trivially() {
    let (heap, mut ctx, digest) = fragmented_heap(Scheme::FfccdCheckLookup, 21);
    let _ = &mut ctx;
    let image = heap.engine().crash_image();
    let (heap2, report) = DefragHeap::open_recovered(
        &image,
        registry(),
        DefragConfig::normal(Scheme::FfccdCheckLookup),
    )
    .expect("recovery");
    assert!(!report.had_cycle);
    let mut ctx2 = heap2.ctx();
    assert_eq!(list_digest(&heap2, &mut ctx2), digest);
    validate_heap(&heap2).expect("consistent");
}

#[test]
fn crash_after_finish_is_clean() {
    let (heap, mut ctx, digest) = fragmented_heap(Scheme::FfccdFenceFree, 23);
    heap.defrag_now(&mut ctx);
    while heap.step_compaction(&mut ctx, 64) {}
    let image = heap.engine().crash_image();
    let (heap2, report) = DefragHeap::open_recovered(
        &image,
        registry(),
        DefragConfig::normal(Scheme::FfccdFenceFree),
    )
    .expect("recovery");
    assert!(!report.had_cycle, "terminated cycle leaves no residue");
    let mut ctx2 = heap2.ctx();
    assert_eq!(list_digest(&heap2, &mut ctx2), digest);
}

#[test]
fn ffccd_issues_no_fences_in_barriers() {
    let (heap, mut ctx, _) = fragmented_heap(Scheme::FfccdCheckLookup, 31);
    heap.defrag_now(&mut ctx);
    let sfences_before = ctx.stats.sfences;
    let clwbs_before = ctx.stats.clwbs;
    // Walk the list: barrier relocations happen, with zero fences.
    let _ = list_digest(&heap, &mut ctx);
    assert!(heap.gc_stats().objects_relocated > 0);
    assert_eq!(
        ctx.stats.sfences, sfences_before,
        "fence-free barrier must not sfence"
    );
    assert_eq!(
        ctx.stats.clwbs, clwbs_before,
        "fence-free barrier must not clwb"
    );
    heap.finish_cycle(&mut ctx);
}

#[test]
fn espresso_pays_two_fences_per_relocation() {
    let (heap, mut ctx, _) = fragmented_heap(Scheme::Espresso, 33);
    heap.defrag_now(&mut ctx);
    let sfences_before = ctx.stats.sfences;
    let relocated_before = heap.gc_stats().objects_relocated;
    let _ = list_digest(&heap, &mut ctx);
    let relocated = heap.gc_stats().objects_relocated - relocated_before;
    let sfences = ctx.stats.sfences - sfences_before;
    assert!(relocated > 0);
    assert!(
        sfences >= 2 * relocated,
        "Espresso needs ≥2 fences per relocation: {sfences} fences, {relocated} moves"
    );
    heap.finish_cycle(&mut ctx);
}

#[test]
fn concurrent_app_and_compactor_threads() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (heap, mut ctx, digest) = fragmented_heap(Scheme::FfccdCheckLookup, 35);
    assert!(heap.defrag_now(&mut ctx));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let heap = heap.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut ctx = heap.ctx();
            let mut digests = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                digests.push(list_digest(&heap, &mut ctx));
            }
            digests
        })
    };
    // Compact concurrently with the reader.
    while heap.step_compaction(&mut ctx, 4) {}
    stop.store(true, Ordering::Relaxed);
    let digests = reader.join().expect("reader thread");
    assert!(
        digests.iter().all(|&d| d == digest),
        "every concurrent read sees a consistent list"
    );
    validate_heap(&heap).expect("consistent after concurrent cycle");
}

#[test]
fn eadr_platform_makes_ffccd_recovery_trivial() {
    // §4.4: with eADR the whole cache hierarchy is inside the persistence
    // domain, so every relocate's stores "reach" — recovery never needs to
    // undo a relocation.
    let pool_cfg = PoolConfig {
        data_bytes: 2 << 20,
        os_page_size: 4096,
        machine: MachineConfig {
            seed: 77,
            eadr: true,
            ..MachineConfig::default()
        },
    };
    let heap = DefragHeap::create(
        pool_cfg,
        registry(),
        DefragConfig::normal(Scheme::FfccdFenceFree),
    )
    .expect("heap");
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 600);
    remove_if(&heap, &mut ctx, |v| v % 5 != 0);
    let digest = list_digest(&heap, &mut ctx);
    assert!(heap.defrag_now(&mut ctx));
    heap.step_compaction(&mut ctx, 40); // partial progress, then crash
    let image = heap.engine().crash_image();
    let (heap2, report) = DefragHeap::open_recovered(
        &image,
        registry(),
        DefragConfig::normal(Scheme::FfccdFenceFree),
    )
    .expect("recovery");
    // 40 objects were relocated before the crash. Under eADR every one of
    // their stores is inside the persistence domain, so none can be undone;
    // only the 80 never-attempted relocations are (correctly) "not reached".
    assert_eq!(report.undone, 80, "only unattempted relocations are undone");
    assert!(
        report.already_durable + report.finished >= 40,
        "all attempted relocations survive under eADR: {report:?}"
    );
    let mut ctx2 = heap2.ctx();
    assert_eq!(list_digest(&heap2, &mut ctx2), digest);
    validate_heap(&heap2).expect("consistent");
}

#[test]
fn d_ro_applies_the_same_barrier() {
    let (heap, mut ctx, _) = fragmented_heap(Scheme::FfccdCheckLookup, 81);
    heap.defrag_now(&mut ctx);
    let before = heap.gc_stats().objects_relocated;
    // Read-only traversal must still relocate on touch.
    let mut cur = heap.root(&mut ctx);
    while !cur.is_null() {
        cur = heap.load_ref(&mut ctx, cur, NEXT_OFF);
    }
    assert!(heap.gc_stats().objects_relocated > before);
    heap.finish_cycle(&mut ctx);
    validate_heap(&heap).expect("consistent");
}

#[test]
fn validator_catches_dangling_pointers() {
    let heap = heap_with(Scheme::Baseline, 91);
    let mut ctx = heap.ctx();
    let nodes = push_nodes(&heap, &mut ctx, 5);
    // Corrupt: free a node the list still references (bypassing unlink).
    heap.free(&mut ctx, nodes[2]).expect("free mid node");
    let errs = validate_heap(&heap).expect_err("must detect the dangling pointer");
    assert!(
        errs.iter()
            .any(|e| e.contains("dangling") || e.contains("free frame")),
        "got: {errs:?}"
    );
}

#[test]
fn validator_catches_stale_cycle_header() {
    let heap = heap_with(Scheme::FfccdCheckLookup, 92);
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 5);
    // Forge a persistent cycle header with no actual cycle.
    let hdr = heap.meta().cycle_header;
    heap.engine().write_u64(&mut ctx, hdr, 1);
    heap.engine().persist(&mut ctx, hdr, 8);
    let errs = validate_heap(&heap).expect_err("must flag the stale header");
    assert!(
        errs.iter().any(|e| e.contains("cycle header")),
        "got: {errs:?}"
    );
}

#[test]
fn summary_crash_before_commit_rolls_back() {
    // Hand-craft the §3.3 hazard: a crash after the summary phase persisted
    // PMFT entries and destination reservations but *before* the cycle
    // header — recovery must roll the reservations back and end quiescent.
    use ffccd_arch::{GcMetaLayout, Pmft, PmftEntry};

    let heap = heap_with(Scheme::FfccdCheckLookup, 99);
    let mut ctx = heap.ctx();
    push_nodes(&heap, &mut ctx, 40);
    // Sparsen the frames so the alignment-padded mappings fit one
    // destination frame (as the real summary's evacuability check ensures).
    remove_if(&heap, &mut ctx, |v| v % 4 != 0);
    let digest = list_digest(&heap, &mut ctx);
    let nodes = [heap.root(&mut ctx)];
    let layout = *heap.pool().layout();
    let meta = GcMetaLayout::from_pool(&layout);
    let pmft = Pmft::new(meta);

    // Fake a half-finished summary: map the frame of nodes[0] into a fresh
    // destination frame and persist the reservation — but never write the
    // cycle header.
    let src_frame = layout
        .frame_of(nodes[0].offset())
        .expect("node in data region");
    let dest = heap
        .pool()
        .take_destination_frame(&std::collections::HashSet::new())
        .expect("dest frame");
    let objs = heap.pool().peek_frame_objects(src_frame);
    let mut entry = PmftEntry::new(src_frame, dest);
    let mut next = 0usize;
    for o in &objs {
        entry.map(o.slot, next as u8);
        next += o.slots.div_ceil(4) * 4;
    }
    pmft.store(&mut ctx, heap.engine(), &entry);
    for o in &objs {
        let d = entry.lookup(o.slot).expect("mapped") as usize;
        heap.pool()
            .reserve_destination_slots(&mut ctx, dest, d, o.slots, o.size + 16);
    }

    let image = heap.engine().crash_image();
    let (heap2, report) = DefragHeap::open_recovered(
        &image,
        registry(),
        DefragConfig::normal(Scheme::FfccdCheckLookup),
    )
    .expect("recovery");
    assert!(report.had_cycle, "summary residue counts as a cycle");
    let mut ctx2 = heap2.ctx();
    assert_eq!(list_digest(&heap2, &mut ctx2), digest, "data untouched");
    validate_heap(&heap2).expect("reservations rolled back");
    // The rolled-back destination frame is fully free again.
    assert_eq!(
        heap2.pool().frame_state(dest).free_slots as usize,
        ffccd_pmop::SLOTS_PER_FRAME
    );
}

#[test]
fn recovery_is_idempotent_and_recoverable() {
    // §4.1: "the recovery function itself uses a more conservative
    // approach … to ensure the recovery function itself is easy to
    // recover". Two corollaries we can test directly:
    // (1) running recovery twice is harmless;
    // (2) crashing immediately after recovery and recovering again yields
    //     the same consistent state.
    for scheme in [Scheme::Sfccd, Scheme::FfccdCheckLookup] {
        let (heap, mut ctx, digest) = fragmented_heap(scheme, 55);
        heap.defrag_now(&mut ctx);
        heap.step_compaction(&mut ctx, 7);
        let image = heap.engine().crash_image();

        // First recovery.
        let (heap2, r1) =
            DefragHeap::open_recovered(&image, registry(), DefragConfig::normal(scheme))
                .expect("first recovery");
        assert!(r1.had_cycle);
        // Crash "during the restart" (right after recovery persisted its
        // fixes) and recover again: nothing left to do.
        let image2 = heap2.engine().crash_image();
        let (heap3, r2) =
            DefragHeap::open_recovered(&image2, registry(), DefragConfig::normal(scheme))
                .expect("second recovery");
        assert!(
            !r2.had_cycle,
            "{scheme}: recovery must fully retire the cycle"
        );
        assert_eq!(r2.finished + r2.undone, 0);
        let mut ctx3 = heap3.ctx();
        assert_eq!(list_digest(&heap3, &mut ctx3), digest, "{scheme}");
        validate_heap(&heap3).expect("consistent after double recovery");
    }
}

#[test]
fn recovery_with_fresh_seed_sees_same_data() {
    // Relocatability + determinism: restarting the crash image under a
    // different engine seed (different eviction schedule going forward)
    // changes nothing about what recovery reconstructs.
    let (heap, mut ctx, digest) = fragmented_heap(Scheme::FfccdFenceFree, 57);
    heap.defrag_now(&mut ctx);
    heap.step_compaction(&mut ctx, 11);
    let image = heap.engine().crash_image();
    for seed in [1u64, 0xDEAD, u64::MAX] {
        let engine = image.restart_with_seed(seed);
        ffccd::recover(&engine, &registry(), Scheme::FfccdFenceFree).expect("recover");
        let pool = ffccd_pmop::PmPool::open(engine, registry()).expect("open");
        let heap2 = DefragHeap::from_pool(pool, DefragConfig::normal(Scheme::FfccdFenceFree));
        let mut ctx2 = heap2.ctx();
        assert_eq!(list_digest(&heap2, &mut ctx2), digest, "seed {seed}");
    }
}

/// Crash image of a freshly created heap whose reserved shard-count word
/// holds `shards`.
fn fresh_image_with_shard_word(shards: u64) -> ffccd_pmem::CrashImage {
    let heap = heap_with(Scheme::FfccdCheckLookup, 33);
    heap.engine()
        .with_media_mut(|m| m.write_u64(HDR_SHARDS, shards));
    heap.engine().crash_image()
}

/// Media from a sharded heap keeps per-shard cycle headers and frame
/// ownership that a single-domain open would misread, so every way in
/// refuses it. 0 and 1 both mean one heap.
#[test]
fn sharded_media_is_refused_by_pool_open_and_recovery() {
    let cfg = DefragConfig::normal(Scheme::FfccdCheckLookup);
    let bad = |r: Result<(), PoolError>, who: &str| {
        assert!(
            matches!(r, Err(PoolError::BadPool { .. })),
            "{who} accepted HDR_SHARDS = 4: {r:?}"
        );
    };
    let image = fresh_image_with_shard_word(4);
    bad(
        PmPool::open(image.restart(), registry()).map(drop),
        "PmPool::open",
    );
    bad(
        recover(&image.restart(), &registry(), cfg.scheme).map(drop),
        "recover",
    );
    bad(
        DefragHeap::open_recovered(&image, registry(), cfg).map(drop),
        "open_recovered",
    );
    bad(
        DefragHeap::open_recovered_with_seed(&image, Some(7), registry(), cfg).map(drop),
        "open_recovered_with_seed",
    );
    bad(
        DefragHeap::open_recovered_idempotent(&image, None, registry(), cfg).map(drop),
        "open_recovered_idempotent",
    );
    for one in [0, 1] {
        let image = fresh_image_with_shard_word(one);
        let (heap, report) =
            DefragHeap::open_recovered(&image, registry(), cfg).expect("one heap opens");
        assert!(!report.had_cycle);
        validate_heap(&heap).expect("consistent");
    }
}

/// Recovery tears down only a cycle it could have written: a state word
/// no cycle writes, or a cycle another scheme armed, is refused before
/// anything is torn down, and the arming scheme still recovers the image.
#[test]
fn recovery_refuses_a_cycle_header_it_could_not_have_written() {
    let scheme = Scheme::FfccdCheckLookup;
    let (heap, mut ctx, digest) = fragmented_heap(scheme, 35);
    assert!(heap.defrag_now(&mut ctx), "cycle must start");
    heap.step_compaction(&mut ctx, 7);
    let hdr = heap.meta().cycle_header;
    let image = heap.engine().crash_image();
    assert_eq!(image.media().read_u64(hdr), 1, "the cycle is armed");
    let refused = |r: Result<(), PoolError>, who: &str| {
        assert!(
            matches!(r, Err(PoolError::BadPool { .. })),
            "{who} was recovered: {r:?}"
        );
    };
    let engine = image.restart();
    engine.with_media_mut(|m| m.write_u64(hdr, 7));
    refused(recover(&engine, &registry(), scheme).map(drop), "state 7");
    for other in [Scheme::Espresso, Scheme::Sfccd, Scheme::FfccdFenceFree] {
        refused(
            recover(&image.restart(), &registry(), other).map(drop),
            &format!("{scheme}'s cycle as {other}"),
        );
    }
    let (heap2, report) =
        DefragHeap::open_recovered(&image, registry(), DefragConfig::normal(scheme))
            .expect("the arming scheme recovers");
    assert!(report.had_cycle);
    validate_heap(&heap2).expect("consistent");
    let mut ctx2 = heap2.ctx();
    assert_eq!(list_digest(&heap2, &mut ctx2), digest);
}

/// A pool's first cycle header: at every site between the summary
/// commit's first store and the cycle-armed mark, the image that persists
/// every ambiguous line (the header's dirty line included) must recover
/// as the arming scheme — state 1 never reaches media without its code.
#[test]
fn first_cycle_header_recovers_at_every_commit_site() {
    let scheme = Scheme::FfccdFenceFree;
    let (heap, mut ctx, _) = fragmented_heap(scheme, 36);
    heap.engine().site_tracking_enumerate();
    assert!(heap.defrag_now(&mut ctx), "cycle must start");
    let marks = heap.engine().site_tracking_stop().phase_marks;
    let armed = marks
        .iter()
        .find(|&&(_, code)| code == phase_sites::CYCLE_ARMED)
        .expect("the cycle-armed mark fires")
        .0;

    let (heap, mut ctx, digest) = fragmented_heap(scheme, 36);
    let hdr = heap.meta().cycle_header;
    heap.engine()
        .site_tracking_capture((armed.saturating_sub(24)..armed).collect());
    assert!(heap.defrag_now(&mut ctx), "cycle must start");
    let caps = heap.engine().drain_site_captures();
    heap.engine().site_tracking_stop();
    assert!(!caps.is_empty());

    let mut unfenced_commit = false;
    for cap in &caps {
        let full = cap
            .image
            .with_persisted_subset(&cap.maybe, cap.maybe.full_mask())
            .expect("in-window mask");
        if full.media().read_u64(hdr) != 1 {
            continue;
        }
        unfenced_commit |= cap.image.media().read_u64(hdr) != 1;
        let site = cap.site.id;
        let (heap2, report) =
            DefragHeap::open_recovered(&full, registry(), DefragConfig::normal(scheme))
                .unwrap_or_else(|e| panic!("site {site}: the arming scheme recovers: {e:?}"));
        assert!(report.had_cycle, "site {site}");
        validate_heap(&heap2).unwrap_or_else(|e| panic!("site {site}: {e:?}"));
        let mut ctx2 = heap2.ctx();
        assert_eq!(list_digest(&heap2, &mut ctx2), digest, "site {site}");
    }
    assert!(
        unfenced_commit,
        "some captured site holds state 1 only in its maybe-persisted set"
    );
}

#[test]
fn create_never_writes_the_shard_word() {
    let (heap, _ctx, _) = fragmented_heap(Scheme::FfccdCheckLookup, 34);
    let image = heap.engine().crash_image();
    assert_eq!(image.media().read_u64(HDR_SHARDS), 0);
}
