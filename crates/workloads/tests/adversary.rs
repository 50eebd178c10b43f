//! Adversarial persistence explorer integration tests: exhaustive subset
//! exploration on a tiny run passes, reports merge identically at every
//! job count, and subset replays are byte-deterministic from their
//! `(seed, site_id, subset_bitmask)` triple.

use ffccd::Scheme;
use ffccd_pmem::{MachineConfig, Media};
use ffccd_workloads::adversary::{
    replay_adversary_subset_full, run_adversary_sweep, run_adversary_sweep_jobs, AdversaryPlan,
};
use ffccd_workloads::driver::{DriverConfig, PhaseMix};
use ffccd_workloads::{LinkedList, Workload};

fn adv_cfg(scheme: Scheme, seed: u64) -> DriverConfig {
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

fn fnv1a(media: &Media) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in media.chunks() {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn adversary_explores_lattices_and_all_subsets_recover() {
    let seed = 0xADF_C0DE;
    let cfg = adv_cfg(Scheme::FfccdFenceFree, seed);
    let plan = AdversaryPlan::new(seed, 8, 64);
    let report = run_adversary_sweep(&make_ll, Scheme::FfccdFenceFree, &plan, &cfg);
    assert!(report.total_sites > 1000, "got {}", report.total_sites);
    assert_eq!(report.targeted, 8);
    assert_eq!(
        report.captured, report.targeted,
        "every targeted site must fire in the replay run (determinism)"
    );
    assert!(
        report.images >= report.captured,
        "each site contributes at least its base image"
    );
    assert!(
        report.images > report.captured,
        "some lattice must be non-trivial: {} images over {} sites (max maybe {})",
        report.images,
        report.captured,
        report.max_maybe
    );
    assert!(
        report.failures.is_empty(),
        "adversarial failures: {:#?}",
        report
            .failures
            .iter()
            .map(|f| format!(
                "{} at {} (op {}, maybe {}, minimal={}): {}",
                f.triple(),
                f.kind,
                f.op,
                f.maybe_len,
                f.minimal,
                f.message
            ))
            .collect::<Vec<_>>()
    );
}

/// Chunked parallel explorations must merge to exactly the sequential
/// report: same tallies at every job count (failures sort by site ID and
/// mask, so they'd compare equal too — this geometry produces none).
#[test]
fn adversary_report_is_job_count_invariant() {
    let seed = 0xADF_C0DE;
    let cfg = adv_cfg(Scheme::Sfccd, seed);
    let plan = AdversaryPlan::new(seed, 6, 16);
    let a = run_adversary_sweep_jobs(&make_ll, Scheme::Sfccd, &plan, &cfg, 1);
    let b = run_adversary_sweep_jobs(&make_ll, Scheme::Sfccd, &plan, &cfg, 3);
    assert_eq!(a.total_sites, b.total_sites);
    assert_eq!(a.targeted, b.targeted);
    assert_eq!(a.captured, b.captured);
    assert_eq!(a.images, b.images);
    assert_eq!(a.exhaustive_sites, b.exhaustive_sites);
    assert_eq!(a.empty_lattices, b.empty_lattices);
    assert_eq!(a.max_maybe, b.max_maybe);
    assert!(a.failures.is_empty() && b.failures.is_empty());
}

/// A subset replay is a pure function of its triple: same firing op, same
/// materialized image bytes, same outcome on every rerun — and the empty
/// subset materializes exactly the base image the sweep validates.
#[test]
fn subset_replay_is_deterministic_and_mask_zero_is_base_image() {
    use ffccd_workloads::faults::replay_crash_site_full;

    let seed = 0xBEEF;
    let scheme = Scheme::FfccdCheckLookup;
    let cfg = adv_cfg(scheme, seed);
    let site_id = 5000;

    let base = replay_crash_site_full(&make_ll, scheme, seed, site_id, &cfg).expect("site fires");
    let r0 =
        replay_adversary_subset_full(&make_ll, scheme, seed, site_id, 0, &cfg).expect("site fires");
    assert_eq!(r0.op, base.op);
    assert_eq!(
        fnv1a(r0.image.media()),
        fnv1a(base.image.media()),
        "mask 0 must materialize the base (nothing-persisted) image"
    );

    // A non-empty subset replays byte-identically too.
    let window = (r0.maybe_len as u32).min(64);
    let mask = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    let a = replay_adversary_subset_full(&make_ll, scheme, seed, site_id, mask, &cfg)
        .expect("site fires");
    let b = replay_adversary_subset_full(&make_ll, scheme, seed, site_id, mask, &cfg)
        .expect("site fires again");
    assert_eq!(a.op, b.op);
    assert_eq!(a.maybe_len, b.maybe_len);
    assert_eq!(
        fnv1a(a.image.media()),
        fnv1a(b.image.media()),
        "subset image bytes must be reproducible from the triple"
    );
    assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
    assert!(a.outcome.is_ok(), "subset recovery failed: {:?}", a.outcome);
    if mask != 0 {
        assert_ne!(
            fnv1a(a.image.media()),
            fnv1a(base.image.media()),
            "full-window subset must differ from the base image (maybe_len {})",
            a.maybe_len
        );
    }
}
