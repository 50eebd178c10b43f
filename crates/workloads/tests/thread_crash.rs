//! Thread-crash fault-model integration tests (§7.1e).
//!
//! [`run_mt_faulted`] kills chosen mutator threads at durability-event
//! ordinals while survivors drain, then runs the full checker suite and a
//! whole-machine restart. These tests pin the model's contracts: kills
//! fire and replay deterministically under the seeded schedule, a victim's
//! cycles stay attributed to the context that spent them, and a dead
//! thread's arena returns to service.

use std::collections::BTreeSet;

use ffccd::{DefragHeap, ProbeId, ProbePhase, Scheme};
use ffccd_pmem::Ctx;
use ffccd_pmop::TypeRegistry;
use ffccd_workloads::campaign::{replay, Replay};
use ffccd_workloads::driver::{
    run_mt_faulted, DriverConfig, MtSchedule, PhaseMix, ThreadFaultPlan,
};
use ffccd_workloads::thread_crash::{campaign_config, run_thread_crash_campaign};
use ffccd_workloads::{DetectableQueue, LinkedList, Workload};

const THREADS: usize = 4;

/// Seeded, single-bank config: kill ordinals are a pure function of the
/// seed, so every test here replays byte-identically.
fn crash_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine.banks = 1;
    cfg.seed = seed;
    cfg.pool.machine.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg.defrag.cooldown_ops = 64;
    cfg.schedule = MtSchedule::Seeded(seed ^ 0xAB1E);
    cfg
}

fn ll() -> Box<dyn Workload> {
    Box::new(LinkedList::new())
}

fn dq() -> Box<dyn Workload> {
    Box::new(DetectableQueue::new())
}

/// Reference run (empty plan) measures per-thread durability-event totals
/// without killing anyone; every planned-kill test samples inside them.
fn reference_events(scheme: Scheme, seed: u64) -> Vec<u64> {
    let cfg = crash_cfg(scheme, seed);
    let out = run_mt_faulted(&ll, THREADS, &cfg, &ThreadFaultPlan::default());
    assert!(out.victims.is_empty(), "empty plan must kill nobody");
    assert_eq!(out.events_per_thread.len(), THREADS);
    for (tid, &e) in out.events_per_thread.iter().enumerate() {
        assert!(e > 0, "thread {tid} observed no durability events");
    }
    out.events_per_thread
}

#[test]
fn single_kill_fires_and_full_checker_suite_passes() {
    let seed = 0x5EED;
    let events = reference_events(Scheme::FfccdFenceFree, seed);
    let cfg = crash_cfg(Scheme::FfccdFenceFree, seed);
    let plan = ThreadFaultPlan::single(2, events[2] / 2);
    let out = run_mt_faulted(&ll, THREADS, &cfg, &plan);
    let v = out.victims.iter().find(|v| v.victim == 2).expect("report");
    assert!(v.fired, "mid-range kill site must fire");
    assert_eq!(v.kill_site, events[2] / 2, "fired at the planned ordinal");
    assert!(
        (v.ops_completed as usize) < out.result.ops as usize,
        "victim stopped short of its slice"
    );
}

#[test]
fn seeded_kills_replay_identically() {
    let seed = 0xD00D;
    let events = reference_events(Scheme::FfccdCheckLookup, seed);
    let cfg = crash_cfg(Scheme::FfccdCheckLookup, seed);
    let plan = ThreadFaultPlan::single(1, events[1] / 3);
    let a = run_mt_faulted(&ll, THREADS, &cfg, &plan);
    let b = run_mt_faulted(&ll, THREADS, &cfg, &plan);
    assert_eq!(a.victims, b.victims, "victim reports replay");
    assert_eq!(a.result.ops, b.result.ops, "op totals replay");
    assert_eq!(a.result.app_cycles, b.result.app_cycles, "cycles replay");
    assert_eq!(
        a.result.gc_driver_cycles, b.result.gc_driver_cycles,
        "gc-pump cycles replay"
    );
    assert_eq!(a.result.gc, b.result.gc, "gc stats replay");
    assert_eq!(
        a.events_per_thread, b.events_per_thread,
        "event ordinal streams replay"
    );
}

/// A victim's GC-pump work is GC-driver time, not application time: its
/// closure outlives the caught unwind and reports both of its contexts
/// like a survivor. Killing thread 0 at its *last* durability event makes
/// the killed run do the reference run's work up to the victim's final op,
/// so the two `gc_driver_cycles` totals must be close (this seed prints
/// 1 156 858 for both; booking the victim's pump as application time reads
/// 563 836). The bound is not equality: a kill inside the final op skips
/// the victim's last pump, and after `retire_thread` the seeded scheduler
/// may draw the survivors' turns in a different order than the reference.
#[test]
fn victim_gc_pump_cycles_stay_gc_driver_cycles() {
    let seed = 0xCAFE;
    let cfg = crash_cfg(Scheme::FfccdFenceFree, seed);
    let reference = run_mt_faulted(&ll, THREADS, &cfg, &ThreadFaultPlan::default());
    let last = reference.events_per_thread[0];
    let killed = run_mt_faulted(&ll, THREADS, &cfg, &ThreadFaultPlan::single(0, last));
    assert!(killed.victims[0].fired, "the last ordinal is in range");
    let (got, want) = (
        killed.result.gc_driver_cycles,
        reference.result.gc_driver_cycles,
    );
    assert!(
        got * 10 >= want * 9,
        "killed run reports {got} GC-driver cycles, reference {want}: the victim's pump share went missing"
    );
}

/// Satellite: a dead thread's arena frames return to service. After the
/// victim dies, survivors must be able to allocate through the retired
/// arena's frames; the run passing its own checkers plus the pool
/// free-list audit pins it.
#[test]
fn victim_arena_is_retired_and_survivors_drain() {
    let seed = 0xA4E4A;
    let events = reference_events(Scheme::Sfccd, seed);
    let cfg = crash_cfg(Scheme::Sfccd, seed);
    // Kill two of four threads in one run — only survivors 1 and 3 drain.
    let mut plan = ThreadFaultPlan::single(0, events[0] / 2);
    plan.kills.push(ffccd_workloads::driver::ThreadKill {
        victim: 2,
        kill_site: events[2] / 4,
    });
    let out = run_mt_faulted(&ll, THREADS, &cfg, &plan);
    let fired = out.victims.iter().filter(|v| v.fired).count();
    assert_eq!(fired, 2, "both planned kills fire");
}

/// The detectable queue forfeits the in-flight ambiguity: its checker
/// decision is exercised end-to-end by a campaign cell, which must come
/// back clean.
#[test]
fn detectable_queue_campaign_cell_is_clean() {
    // The smoke geometry: two single-kill runs.
    let report = run_thread_crash_campaign(&dq, Scheme::FfccdFenceFree, 0x9_5EED, 2, 1);
    assert!(
        report.failures.is_empty(),
        "DQ thread-crash failures: {:?}",
        report
            .failures
            .iter()
            .map(|f| f.triple())
            .collect::<Vec<_>>()
    );
    assert!(report.kills_fired > 0, "smoke cell must fire kills");
}

/// A `DetectableQueue` that decides every in-flight op the opposite way
/// from its persistent state: each kill that lands mid-op fails the
/// checker.
struct Contrary(DetectableQueue);

impl Workload for Contrary {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn registry(&self) -> TypeRegistry {
        self.0.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.0.setup(heap, ctx)
    }

    fn reopen(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.0.reopen(heap, ctx)
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        self.0.insert(heap, ctx, key, value_size)
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.0.delete(heap, ctx, key)
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.0.contains(heap, ctx, key)
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        self.0.validate(heap, ctx, expected)
    }

    fn decide_inflight(
        &mut self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        key: u64,
        insert: bool,
    ) -> Option<bool> {
        self.0
            .decide_inflight(heap, ctx, key, insert)
            .map(|done| !done)
    }
}

/// A failing kill is replayed from its probe before it is reported: the
/// smoke geometry's DQ FFCCD-cl cell (two single-kill runs, both landing
/// mid-op) fails under a contrary decision, and every failure reads
/// `reproduced` because its replay fails again.
#[test]
fn single_kill_failures_are_confirmed_by_replay() {
    let contrary = || -> Box<dyn Workload> { Box::new(Contrary(DetectableQueue::new())) };
    let report = run_thread_crash_campaign(&contrary, Scheme::FfccdCheckLookup, 0x7c4a14, 2, 1);
    assert_eq!((report.runs, report.kills_fired), (2, 2));
    assert!(!report.failures.is_empty(), "contrary decisions must fail");
    for f in &report.failures {
        assert!(
            f.minimal,
            "{}: a single kill is its own minimum",
            f.triple()
        );
        assert!(f.reproduced, "{}: {}", f.triple(), f.message);
    }
}

/// Every checker failure names the run it judged, the scheme and the
/// kill plan, ahead of what failed: a free-running run has no probe to
/// replay, so its panic message is all a failure leaves.
#[test]
fn checker_failures_name_the_scheme_and_the_kills() {
    let contrary = || -> Box<dyn Workload> { Box::new(Contrary(DetectableQueue::new())) };
    let scheme = Scheme::FfccdCheckLookup;
    let report = run_thread_crash_campaign(&contrary, scheme, 0x7c4a14, 2, 1);
    assert!(!report.failures.is_empty(), "contrary decisions must fail");
    for f in &report.failures {
        let ProbePhase::ThreadKill { victim } = f.probe.phase else {
            panic!("{}: not a thread kill", f.triple());
        };
        let run = format!("{scheme}, kills [{victim}@{}]: ", f.probe.site_id);
        assert!(f.message.starts_with(&run), "{run}…? {}", f.message);
    }
}

/// Regression (§7.1e campaign find #1): a victim dying inside the summary
/// phase — after persisting frag bits and PMFT entries, before the
/// volatile arm — must leave residue that is *inert* to the surviving
/// mutators' barriers. The software barrier path (Espresso/SFCCD/fence-
/// free) used to trust the persistent frag bit + PMFT alone; once a later
/// cycle armed, survivors relocated live objects through
/// the dead summary's half-built mapping into a destination frame the
/// exit-time rollback then rightly released — leaving reachable pointers
/// into a free frame. The barrier now requires the frame to be indexed by
/// the armed cycle mirror.
#[test]
fn orphaned_summary_residue_is_inert_to_barriers() {
    // The 1-minimal campaign triples that exposed the bug, one per
    // affected fate discipline.
    for (scheme, seed, victim, site) in [
        (Scheme::Sfccd, 0x7c4a01, 0usize, 2681u64),
        (Scheme::Espresso, 0x7c4a00, 0, 11475),
    ] {
        replay_pinned_kill(&ll, scheme, ProbeId::thread_kill(seed, site, victim));
    }
}

/// Replays a pinned §7.1e probe exactly as `replay_site` would: the kill
/// must fire and the checker suite must pass.
fn replay_pinned_kill(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    probe: ProbeId,
) -> Replay {
    let cfg = campaign_config(scheme, probe.seed);
    let r = replay(make, scheme, probe, &cfg).unwrap_or_else(|| panic!("{scheme}: {probe} fires"));
    assert!(r.outcome.is_ok(), "{scheme} {probe}: {:?}", r.outcome);
    r
}

/// Regression (§7.1e campaign find #2): a victim dying inside `pmalloc`'s
/// header write used to leave slots volatile-allocated behind a stale
/// garbage header; the next sweep freed the unreachable object *by that
/// header*, and a garbage size large enough took the huge-free path and
/// zeroed bitmap records past the end of the pool. The allocator now rolls
/// the volatile reservation back on unwind (and the huge-free path bounds-
/// checks header-derived spans).
#[test]
fn allocation_torn_by_thread_death_is_rolled_back() {
    let probe = ProbeId::thread_kill(0x7c4a14, 7428, 2);
    let r = replay_pinned_kill(&dq, Scheme::FfccdCheckLookup, probe);
    assert!(
        r.kill.expect("kill report").inflight.is_some(),
        "the pinned victim dies inside a queue op (allocation path)"
    );
    // A kill replay is a pure function of its probe, down to the bytes.
    let again = replay_pinned_kill(&dq, Scheme::FfccdCheckLookup, probe);
    assert_eq!(r.kill, again.kill);
    assert_eq!(
        r.image.media().fingerprint(),
        again.image.media().fingerprint()
    );
}
