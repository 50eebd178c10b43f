//! Adversarial persistence explorer integration tests: exhaustive subset
//! exploration on a tiny run passes, and subset replays are
//! byte-deterministic from their `(seed, site_id, subset_bitmask)` triple.

use ffccd::{ProbeId, Scheme};
use ffccd_pmem::MachineConfig;
use ffccd_workloads::campaign::replay;
use ffccd_workloads::driver::{DriverConfig, PhaseMix};
use ffccd_workloads::faults::{run_crash_site_sweep, CrashPlan};
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

#[test]
fn adversary_explores_lattices_and_all_subsets_recover() {
    let seed = 0xADF_C0DE;
    let cfg = adv_cfg(Scheme::FfccdFenceFree, seed);
    let plan = CrashPlan {
        images_per_site: 64,
        ..CrashPlan::new(seed, 8)
    };
    let report = run_crash_site_sweep(&make_ll, Scheme::FfccdFenceFree, &plan, &cfg);
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

/// A subset replay is a pure function of its triple: same firing op, same
/// materialized image bytes, same outcome on every rerun — and the empty
/// subset materializes exactly the base image the sweep validates.
#[test]
fn subset_replay_is_deterministic_and_mask_zero_is_base_image() {
    let seed = 0xBEEF;
    let scheme = Scheme::FfccdCheckLookup;
    let cfg = adv_cfg(scheme, seed);
    let site_id = 5000;
    let fingerprint = |mask: u64| {
        let r =
            replay(&make_ll, scheme, ProbeId::new(seed, site_id, mask), &cfg).expect("site fires");
        (r.image.media().fingerprint(), r)
    };

    // The empty subset is the base (nothing-persisted) image the sweep
    // validates; `crash_sites.rs` pins its bytes from the pre-lattice sweep.
    let (base_hash, r0) = fingerprint(0);
    assert!(r0.outcome.is_ok(), "base image regressed: {:?}", r0.outcome);

    // A non-empty subset replays byte-identically too.
    let window = (r0.maybe.len() as u32).min(64);
    let mask = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    let (hash_a, a) = fingerprint(mask);
    let (hash_b, b) = fingerprint(mask);
    assert_eq!(a.op, r0.op);
    assert_eq!(a.op, b.op);
    assert_eq!(a.maybe.len(), b.maybe.len());
    assert_eq!(
        hash_a, hash_b,
        "subset image bytes must be reproducible from the triple"
    );
    assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
    assert!(a.outcome.is_ok(), "subset recovery failed: {:?}", a.outcome);
    if mask != 0 {
        assert_ne!(
            hash_a,
            base_hash,
            "full-window subset must differ from the base image (maybe_len {})",
            a.maybe.len()
        );
    }
}
