//! Crash-site sweep smoke tests: enumeration finds a rich site space,
//! capture+validate succeeds at every targeted site, and a single site
//! replays deterministically from its `(seed, site_id)` pair — including
//! adversarially chosen maybe-persisted subsets and arbitrary post-crash
//! restart seeds.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

use ffccd::{DefragHeap, ProbeId, Scheme};
use ffccd_pmem::{Ctx, MachineConfig};
use ffccd_pmop::{TypeId, TypeRegistry};
use ffccd_workloads::campaign::{replay, sec71_config};
use ffccd_workloads::driver::{DriverConfig, MtSchedule, PhaseMix};
use ffccd_workloads::faults::{choose_targets, run_crash_site_sweep, CrashPlan};
use ffccd_workloads::util::value_pattern;
use ffccd_workloads::{AvlTree, BzTree, LinkedList, Workload};

fn sweep_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
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

fn make_ll() -> Box<dyn Workload> {
    Box::new(LinkedList::new())
}

#[test]
fn sweep_validates_every_targeted_site() {
    let seed = 0xC0FFEE;
    let cfg = sweep_cfg(Scheme::FfccdFenceFree, seed);
    let plan = CrashPlan::new(seed, 12);
    let report = run_crash_site_sweep(&make_ll, Scheme::FfccdFenceFree, &plan, &cfg);
    assert!(
        report.total_sites > 1000,
        "a tiny run still fires thousands of durability events, got {}",
        report.total_sites
    );
    assert_eq!(report.targeted, 12);
    assert_eq!(
        report.captured, report.targeted,
        "every targeted site must fire in the replay run (determinism)"
    );
    assert!(
        report.failures.is_empty(),
        "sweep failures: {:#?}",
        report
            .failures
            .iter()
            .map(|f| format!("{} at {}: {}", f.triple(), f.kind, f.message))
            .collect::<Vec<_>>()
    );
    assert!(!report.site_counts.is_empty());
}

fn assert_site_recovers(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    seed: u64,
    site: u64,
) {
    let cfg = sec71_config(scheme, seed);
    let r =
        replay(make, scheme, ProbeId::new(seed, site, 0), &cfg).expect("regression site must fire");
    assert!(
        r.outcome.is_ok(),
        "({seed:#x}, {site}, op {}) regressed: {:?}",
        r.op,
        r.outcome
    );
}

/// Regression: a crash during `terminate()`'s frame-teardown loop used to
/// be indistinguishable from a mid-compaction crash (cycle header still 1).
/// SFCCD recovery then re-copied source over destination, rolling back the
/// durable reference fixup and leaving pointers into already-released
/// frames. The teardown now advances the header to state 2 first; this
/// site crashes mid-teardown and must recover cleanly.
#[test]
fn teardown_crash_recovers_sfccd() {
    assert_site_recovers(&make_ll, Scheme::Sfccd, 0x517e01, 271422);
}

/// Regression: fence-free teardown crashes used to leave a stale frag-page
/// bit (site 93273) or a dangling cycle header (site 347428) that the
/// `entries.is_empty()` early-return in recovery never cleaned up.
#[test]
fn teardown_crash_recovers_fence_free() {
    assert_site_recovers(&make_ll, Scheme::FfccdFenceFree, 0x517e02, 93273);
    assert_site_recovers(&make_ll, Scheme::FfccdFenceFree, 0x517e02, 347428);
}

/// Regression: AVL insert/delete once rebalanced reachable nodes in place,
/// so a crash mid-rotation lost keys or broke BST order (these triples all
/// failed validation). Updates are now path-copied and commit with a
/// single persisted root store.
#[test]
fn avl_crash_sites_recover() {
    let make_avl: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(AvlTree::new());
    assert_site_recovers(make_avl, Scheme::Sfccd, 0x517e12, 262140);
    assert_site_recovers(make_avl, Scheme::FfccdFenceFree, 0x517e13, 683398);
}

/// The engine-banking refactor must not move a single byte of any
/// deterministic replay. These FNV-1a fingerprints of the replayed crash
/// images were pinned on the pre-banking global-lock engine; the
/// single-bank deterministic mode has to reproduce them exactly — same
/// firing op, same media bytes — forever.
///
/// Every triple is replayed under three caller configs: the default, one
/// asking for `banks = 8`, and one additionally carrying the 4-thread mt
/// driver knobs (seeded schedule, eager counter flushing). Sweep/replay
/// paths must force the deterministic single-bank mode themselves and
/// ignore mt-only settings entirely, so no fingerprint may change.
#[test]
fn pinned_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, site, firing op, media FNV-1a).
    type PinnedCase<'a> = (
        &'a str,
        &'a (dyn Fn() -> Box<dyn Workload> + Sync),
        Scheme,
        u64,
        u64,
        u64,
        u64,
    );
    let make_ll: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(LinkedList::new());
    let make_avl: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL",  make_ll,  Scheme::Sfccd,          0x517e01, 271422, 3322, 0x6b4b559862761232),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 93273,  1750, 0x5271ede8d6097660),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 347428, 3697, 0xbebecdc3eb31a20d),
        ("AVL", make_avl, Scheme::Sfccd,          0x517e12, 262140, 635,  0x33581502fa73b1a1),
        ("AVL", make_avl, Scheme::FfccdFenceFree, 0x517e13, 683398, 1441, 0x6e5dbf65353165fc),
    ];
    for (name, make, scheme, seed, site, op, hash) in pinned {
        for (banks, mt_knobs) in [(0usize, false), (8, false), (8, true)] {
            let mut cfg = sec71_config(scheme, seed);
            cfg.pool.machine.banks = banks;
            if mt_knobs {
                // The config a 4-thread mt caller would hand over; replay
                // is single-threaded and must not look at any of it.
                cfg.schedule = MtSchedule::Seeded(0x4444);
            }
            let r = replay(make, scheme, ProbeId::new(seed, site, 0), &cfg)
                .expect("pinned site must fire");
            assert_eq!(
                r.op, op,
                "{name} {scheme:?} ({seed:#x}, {site}) banks={banks} mt={mt_knobs}: firing op moved"
            );
            assert_eq!(
                r.image.media().fingerprint(),
                hash,
                "{name} {scheme:?} ({seed:#x}, {site}) banks={banks} mt={mt_knobs}: crash image bytes moved"
            );
        }
    }
}

/// Adversarial regression triples: `(seed, site_id, subset_bitmask)`
/// images pinned byte-for-byte. Each case materializes a *chosen* subset
/// of the site's maybe-persisted set — full small windows, a saturated
/// 64-entry window over an 81-line set, and sparse partial masks — and
/// must reproduce the same maybe-set size, firing op and media FNV-1a
/// forever: the maybe-set's entry *order* is part of the replay contract
/// (a reordering would silently re-aim every pinned mask), and recovery
/// must keep passing on every one of these durability outcomes.
#[test]
fn pinned_adversarial_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, site, mask, maybe_len, op, FNV).
    type PinnedCase<'a> = (
        &'a str,
        &'a (dyn Fn() -> Box<dyn Workload> + Sync),
        Scheme,
        u64,
        u64,
        u64,
        usize,
        u64,
        u64,
    );
    let make_ll: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(LinkedList::new());
    let make_avl: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 20000,  0x7,              3,  606,  0xafaf65fa1ddc43d2),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 120000, u64::MAX,         81, 1874, 0x5b4810e15b56ef08),
        ("LL",  make_ll,  Scheme::FfccdFenceFree, 0x517e02, 120000, 0xdead_beef_0bad, 81, 1874, 0xf0f05d147e16b6fe),
        ("LL",  make_ll,  Scheme::Espresso,       0x517e21, 60000,  0x0015_5aa3,      25, 1624, 0x7cdab8ef62c30648),
        ("AVL", make_avl, Scheme::Sfccd,          0x517e12, 60000,  0x7,              3,  186,  0x30f8edbc64e825e8),
    ];
    for (name, make, scheme, seed, site, mask, maybe_len, op, hash) in pinned {
        let cfg = sec71_config(scheme, seed);
        let r = replay(make, scheme, ProbeId::new(seed, site, mask), &cfg)
            .expect("pinned adversarial site must fire");
        assert_eq!(
            r.maybe.len(),
            maybe_len,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): maybe-set size moved"
        );
        assert_eq!(
            r.op, op,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): firing op moved"
        );
        assert_eq!(
            r.image.media().fingerprint(),
            hash,
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}): subset image bytes moved"
        );
        assert!(
            r.outcome.is_ok(),
            "{name} {scheme:?} ({seed:#x}, {site}, {mask:#x}) regressed: {:?}",
            r.outcome
        );
    }
}

/// The §7.1b sweep is the one-mask lattice `{0}` of the shared explorer.
/// Its verdict and recovery tallies must be what a base-image sweep counts:
/// recover each targeted site's base image directly and sum the reports.
#[test]
fn one_mask_lattice_counts_what_the_base_image_sweep_counted() {
    let seed = 0xC0FFEE;
    let scheme = Scheme::FfccdFenceFree;
    let cfg = sweep_cfg(scheme, seed);
    let report = run_crash_site_sweep(&make_ll, scheme, &CrashPlan::new(seed, 12), &cfg);
    assert_eq!(report.images, report.captured, "one image per site");
    assert!(report.failures.is_empty());

    let (mut mid_cycle, mut recovered, mut undone) = (0, 0, 0);
    for site in choose_targets(report.total_sites, seed, 12) {
        let r = replay(&make_ll, scheme, ProbeId::new(seed, site, 0), &cfg)
            .expect("targeted site fires");
        assert!(r.outcome.is_ok(), "site {site}: {:?}", r.outcome);
        let (_, rec) = DefragHeap::open_recovered(&r.image, make_ll().registry(), cfg.defrag)
            .expect("base image recovers");
        mid_cycle += u64::from(rec.had_cycle);
        recovered += rec.finished + rec.already_durable;
        undone += rec.undone;
    }
    assert!(mid_cycle > 0, "geometry must crash some site mid-cycle");
    assert_eq!(
        (
            report.mid_cycle,
            report.recovered_objects,
            report.undone_objects
        ),
        (mid_cycle, recovered, undone)
    );
}

/// Recovery correctness must not depend on the *post-crash* machine's
/// RNG (eviction schedule, WPQ drain timing): at sampled crash sites the
/// recovery report and heap validation are invariant across restart
/// seeds. Catches any recovery path that accidentally consults the
/// machine's stochastic state.
#[test]
fn recovery_outcome_is_restart_seed_invariant() {
    let seed = 0x5EED;
    let scheme = Scheme::FfccdFenceFree;
    let cfg = sweep_cfg(scheme, seed);
    let defrag = cfg.defrag;
    // 10 sites spread across the tiny run's whole site space.
    let sites = [
        500u64, 1500, 3000, 5000, 8000, 11000, 14000, 17000, 20000, 24000,
    ];
    let mut fired = 0;
    for site in sites {
        let Some(r) = replay(&make_ll, scheme, ProbeId::new(seed, site, 0), &cfg) else {
            continue;
        };
        fired += 1;
        let mut baseline = None;
        for restart_seed in [1u64, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let (heap, rec) = DefragHeap::open_recovered_with_seed(
                &r.image,
                Some(restart_seed),
                make_ll().registry(),
                defrag,
            )
            .expect("recovery must succeed at every restart seed");
            let outcome = (
                rec.had_cycle,
                rec.already_durable,
                rec.finished,
                rec.undone,
                rec.refs_fixed,
                ffccd::validate_heap(&heap).is_ok(),
            );
            match &baseline {
                None => baseline = Some(outcome),
                Some(base) => assert_eq!(
                    *base, outcome,
                    "site {site}: recovery outcome varies with restart seed {restart_seed:#x}"
                ),
            }
            assert!(outcome.5, "site {site}: heap validation failed");
        }
    }
    assert!(fired >= 8, "only {fired}/10 sampled sites fired");
}

/// The §7.1d sweep on a tiny run: every outer site drawn from the GC-cycle
/// windows fires, some outer image's recovery has sites to crash at, every
/// nested image passes the idempotent oracle, and the report is a pure
/// function of the plan.
#[test]
fn nested_sweep_crashes_inside_recovery() {
    let (scheme, seed) = (Scheme::FfccdFenceFree, 0x9E57);
    let cfg = sweep_cfg(scheme, seed);
    let plan = CrashPlan {
        images_per_site: 4,
        recovery_sites: 2,
        ..CrashPlan::new(seed, 4)
    };
    let a = run_crash_site_sweep(&make_ll, scheme, &plan, &cfg);
    assert_eq!(a.outer_targeted, 4);
    assert_eq!(a.outer_captured, a.outer_targeted, "every outer site fires");
    assert!(
        a.nested_outer > 0,
        "no outer image left recovery work: {a:?}"
    );
    assert!(a.images >= a.captured, "{a:?}");
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a, run_crash_site_sweep(&make_ll, scheme, &plan, &cfg));
}

/// Nested crashes run on the single-thread driver only.
#[test]
#[should_panic(expected = "nested crashes run on one thread")]
fn nested_sweep_refuses_threads() {
    let (scheme, seed) = (Scheme::FfccdFenceFree, 0x9E57);
    let plan = CrashPlan {
        recovery_sites: 1,
        threads: 2,
        ..CrashPlan::new(seed, 1)
    };
    run_crash_site_sweep(&make_ll, scheme, &plan, &sweep_cfg(scheme, seed));
}

/// §7.1d regression probes: `(seed, outer_site/recovery_site, phase=recovery,
/// subset)` nested images pinned byte-for-byte. Each case re-crashes
/// `recover()` itself at a tracked recovery-phase durability event on a
/// captured outer image, materializes the chosen nested subset, and must
/// reproduce the same outer firing op, nested maybe-set size and media
/// FNV-1a forever — plus pass the idempotent-recovery oracle (recover,
/// fingerprint, recover again, byte-identical no-op).
#[test]
fn pinned_nested_triples_replay_byte_identically() {
    /// (workload, factory, scheme, seed, outer, rec_site, mask, maybe_len,
    /// op, FNV).
    type PinnedCase<'a> = (
        &'a str,
        &'a (dyn Fn() -> Box<dyn Workload> + Sync),
        Scheme,
        u64,
        u64,
        u64,
        u64,
        usize,
        u64,
        u64,
    );
    let make_ll: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(LinkedList::new());
    #[rustfmt::skip]
    let pinned: Vec<PinnedCase<'_>> = vec![
        ("LL", make_ll, Scheme::Sfccd,          0x517e01, 271422, 0,  0x0, 1, 3322, 0x6b4b559862761232),
        ("LL", make_ll, Scheme::Sfccd,          0x517e01, 271422, 20, 0x1, 1, 3322, 0x390c438820dec55c),
        ("LL", make_ll, Scheme::FfccdFenceFree, 0x517e02, 93273,  60, 0x0, 1, 1750, 0x41fc43f389c92fd1),
        ("LL", make_ll, Scheme::FfccdFenceFree, 0x517e03, 347428, 5,  0x1, 1, 3542, 0xbde7149406059d95),
    ];
    for (name, make, scheme, seed, outer, rec_site, mask, maybe_len, op, hash) in pinned {
        let cfg = sec71_config(scheme, seed);
        let probe = ProbeId::nested(seed, outer, rec_site, mask);
        let r = replay(make, scheme, probe, &cfg).expect("pinned recovery-phase site must fire");
        assert_eq!(
            r.op, op,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): outer op moved"
        );
        assert_eq!(
            r.maybe.len(),
            maybe_len,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): maybe-set size moved"
        );
        assert_eq!(
            r.image.media().fingerprint(),
            hash,
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}): nested image bytes moved"
        );
        assert!(
            r.outcome.is_ok(),
            "{name} {scheme:?} ({seed:#x}, {outer}/{rec_site}, {mask:#x}) regressed: {:?}",
            r.outcome
        );
    }
}

/// Idempotence gate over the pinned mid-cycle regression images: recovery
/// must reach a quiescent heap in ONE pass. `open_recovered_idempotent`
/// fingerprints the media, reruns `recover()`, and the rerun must be a
/// byte-identical no-op (same FNV-1a, no cycle found, nothing
/// reclassified). Any recovery step that defers work to "the next boot"
/// — or worse, re-consumes evidence it already tore down — diverges here.
#[test]
fn recovery_is_idempotent_at_pinned_sites() {
    /// (factory, scheme, seed, site).
    type PinnedCase<'a> = (&'a (dyn Fn() -> Box<dyn Workload> + Sync), Scheme, u64, u64);
    let make_ll: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(LinkedList::new());
    let make_avl: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(AvlTree::new());
    #[rustfmt::skip]
    let cases: Vec<PinnedCase<'_>> = vec![
        (make_ll,  Scheme::Sfccd,           0x517e01, 271422),
        (make_ll,  Scheme::FfccdFenceFree,  0x517e02, 93273),
        (make_ll,  Scheme::FfccdFenceFree,  0x517e02, 347428),
        (make_avl, Scheme::Sfccd,           0x517e12, 262140),
        (make_avl, Scheme::FfccdFenceFree,  0x517e13, 683398),
        (make_ll,  Scheme::Espresso,        0x517e21, 60000),
    ];
    for (make, scheme, seed, site) in cases {
        let cfg = sec71_config(scheme, seed);
        let r = replay(make, scheme, ProbeId::new(seed, site, 0), &cfg)
            .expect("regression site must fire");
        let (heap, rerun) =
            DefragHeap::open_recovered_idempotent(&r.image, None, make().registry(), cfg.defrag)
                .expect("recovery must succeed");
        assert!(
            rerun.is_noop(),
            "{scheme:?} ({seed:#x}, {site}): recovery not idempotent — \
             fingerprints {:#x} vs {:#x}, rerun {:?}",
            rerun.fingerprint,
            rerun.rerun_fingerprint,
            rerun.rerun
        );
        ffccd::validate_heap(&heap)
            .unwrap_or_else(|e| panic!("{scheme:?} ({seed:#x}, {site}): {e:?}"));
    }
}

/// Stats conservation: the idempotence gate runs `recover()` twice, but
/// only the FIRST report's cycle count may land in
/// `GcStats::recovery_cycles` — the rerun is a gate, not a second
/// recovery. A double-add here once inflated recovery cycle counts by
/// exactly 2x on every idempotent open.
#[test]
fn recovery_cycles_are_counted_once() {
    let scheme = Scheme::Sfccd;
    let (seed, site) = (0x517e01, 271422);
    let cfg = sec71_config(scheme, seed);
    let r = replay(&make_ll, scheme, ProbeId::new(seed, site, 0), &cfg)
        .expect("regression site must fire");
    let (heap, rerun) =
        DefragHeap::open_recovered_idempotent(&r.image, None, make_ll().registry(), cfg.defrag)
            .expect("recovery must succeed");
    assert!(
        rerun.report.had_cycle,
        "pinned site must crash mid-cycle for this test to bite"
    );
    assert!(
        rerun.rerun.cycles > 0,
        "even a no-op rerun consumes cycles reading the header — if this \
         is 0 the double-add below can't be detected"
    );
    assert_eq!(
        heap.gc_stats().recovery_cycles,
        rerun.report.cycles,
        "recovery_cycles must equal the first report's cycles alone — the \
         rerun is an idempotence gate, its {} cycles are not recovery work",
        rerun.rerun.cycles
    );
    // The plain (single-recovery) open agrees on the same image.
    let (heap2, report2) = DefragHeap::open_recovered(&r.image, make_ll().registry(), cfg.defrag)
        .expect("recovery must succeed");
    assert_eq!(heap2.gc_stats().recovery_cycles, report2.cycles);
    assert_eq!(report2.cycles, rerun.report.cycles);
}

#[test]
fn single_site_replay_is_deterministic() {
    let seed = 0xBEEF;
    let cfg = sweep_cfg(Scheme::FfccdCheckLookup, seed);
    // Pick a site that fires well into the run.
    let site_id = 5000;
    let probe = ProbeId::new(seed, site_id, 0);
    let a = replay(&make_ll, Scheme::FfccdCheckLookup, probe, &cfg).expect("site must fire");
    let b = replay(&make_ll, Scheme::FfccdCheckLookup, probe, &cfg).expect("site must fire again");
    assert_eq!(a.op, b.op, "same site fires during the same op");
    assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
    assert!(
        a.outcome.is_ok(),
        "replay validation failed: {:?}",
        a.outcome
    );
}

/// The seeded multi-threaded sweep is as replayable as the single-thread
/// one: two enumerations of the 4-thread BzTree run agree site for site,
/// and a printed `threads=4` probe — a mid-cycle image with a 479-line
/// maybe set — replays through `campaign::replay` to the pinned bytes.
#[test]
fn mt_probe_replays_byte_identically() {
    let make: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(BzTree::new());
    let (scheme, seed) = (Scheme::FfccdCheckLookup, 0x517f01);
    let cfg = sec71_config(scheme, seed);
    let plan = CrashPlan {
        threads: 4,
        ..CrashPlan::new(seed, 1)
    };
    let a = run_crash_site_sweep(make, scheme, &plan, &cfg);
    let b = run_crash_site_sweep(make, scheme, &plan, &cfg);
    assert_eq!(a.total_sites, 559_762, "the seeded schedule moved");
    assert_eq!(
        (a.total_sites, &a.site_counts),
        (b.total_sites, &b.site_counts)
    );
    assert_eq!(a.captured, 1);
    assert!(a.failures.is_empty(), "{:?}", a.failures);

    let text = "(seed=0x517f01, site=144445, subset=0x0, threads=4)";
    let probe: ProbeId = text.parse().expect("printed probe parses");
    assert_eq!(probe, ProbeId::new(seed, 144_445, 0).with_threads(4));
    assert_eq!(probe.to_string(), text);
    let r = replay(make, scheme, probe, &cfg).expect("pinned site must fire");
    assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    assert_eq!(r.maybe.len(), 479);
    assert_eq!(r.image.media().fingerprint(), 0x7f1ee6d01c7d39a3);
}

/// The enumerate and capture runs make their instances on the calling
/// thread; every oracle makes its own on the validating worker.
#[test]
fn sweep_validates_off_the_capture_thread() {
    let made_on = Mutex::new(Vec::new());
    let make = || {
        made_on.lock().unwrap().push(thread::current().id());
        make_ll()
    };
    let (scheme, seed) = (Scheme::FfccdFenceFree, 0xC0FFEE);
    let report = run_crash_site_sweep(
        &make,
        scheme,
        &CrashPlan::new(seed, 6),
        &sweep_cfg(scheme, seed),
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.images, 6);
    let caller = thread::current().id();
    let made_on = made_on.into_inner().unwrap();
    let elsewhere = made_on.iter().filter(|&&id| id != caller).count();
    assert_eq!(made_on.len() - elsewhere, 2, "enumerate + capture");
    assert_eq!(elsewhere as u64, report.images, "one instance per oracle");
}

/// A linked list whose validator panics.
struct PanickingValidator(LinkedList);

impl Workload for PanickingValidator {
    fn name(&self) -> &'static str {
        "LL"
    }

    fn registry(&self) -> TypeRegistry {
        self.0.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.0.setup(heap, ctx)
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

    fn validate(&self, _: &DefragHeap, _: &mut Ctx, _: &BTreeSet<u64>) -> Result<(), String> {
        panic!("validator exploded")
    }
}

/// A panic inside the oracle, on the worker, stops the capture run and
/// reaches the sweep's caller with its own payload.
#[test]
fn oracle_panic_reaches_the_caller() {
    let make = || Box::new(PanickingValidator(LinkedList::new())) as Box<dyn Workload>;
    let (scheme, seed) = (Scheme::FfccdFenceFree, 0xC0FFEE);
    let cfg = sweep_cfg(scheme, seed);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        run_crash_site_sweep(&make, scheme, &CrashPlan::new(seed, 6), &cfg)
    }));
    let payload = outcome.expect_err("the validator's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"validator exploded"));
}

/// A linked list whose insert links the new node into its bucket before
/// writing and persisting the node's key and value: torn inside every
/// insert on purpose. It mirrors `LinkedList`'s layout (a 256-way
/// directory at the root, nodes `next@0, key@8, value@16`) so everything
/// but insert is the real list's.
struct TornList(LinkedList);

impl TornList {
    /// `LinkedList`'s bucket of `key`, as a directory offset.
    fn bucket_off(key: u64) -> u64 {
        (key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 32) % 256 * 8
    }
}

impl Workload for TornList {
    fn name(&self) -> &'static str {
        "LL"
    }

    fn registry(&self) -> TypeRegistry {
        self.0.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.0.setup(heap, ctx)
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        heap.critical(|| {
            let dir = heap.root(ctx);
            let node = heap
                .alloc(ctx, TypeId(1), 16 + value_size as u64)
                .expect("node");
            let head = heap.load_ref(ctx, dir, Self::bucket_off(key));
            heap.store_ref(ctx, node, 0, head);
            heap.store_ref(ctx, dir, Self::bucket_off(key), node);
            heap.write_u64(ctx, node, 8, key);
            let mut val = vec![0u8; value_size];
            value_pattern(key, &mut val);
            heap.write_bytes(ctx, node, 16, &val);
            heap.persist(ctx, node, 0, 16 + value_size as u64);
        })
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
        keys: &BTreeSet<u64>,
    ) -> Result<(), String> {
        self.0.validate(heap, ctx, keys)
    }
}

/// Failures come out of the pipeline in one order whatever the worker's
/// timing: two sweeps of a setting with several failing sites (a list torn
/// inside every insert) report identically, down to each failure's probe
/// and message.
#[test]
fn pipelined_reports_are_identical() {
    let make = || Box::new(TornList(LinkedList::new())) as Box<dyn Workload>;
    let (scheme, seed) = (Scheme::Sfccd, 0x517e45);
    let cfg = sweep_cfg(scheme, seed);
    let plan = CrashPlan::new(seed, 16);
    let a = run_crash_site_sweep(&make, scheme, &plan, &cfg);
    let b = run_crash_site_sweep(&make, scheme, &plan, &cfg);
    assert!(a.failures.len() >= 2, "{:?}", a.failures);
    assert_eq!(a, b);
}
