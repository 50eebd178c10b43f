//! Machine-crash injection (paper §7.1): the crash-site sweep
//! ([`run_crash_site_sweep`], §7.1b, and with [`CrashPlan::images_per_site`]
//! above 1 the §7.1c maybe-persisted subsets) over the shared
//! [`crate::campaign`] pipeline. Images are taken at *durability-event granularity*: the
//! engine enumerates every store / clwb / sfence / WPQ / eviction /
//! GC-phase event as a deterministic site, and a replay run captures an
//! image right after each chosen site — between operations and inside
//! them, in the persist-ordering windows that op spacing never reaches.
//! With [`CrashPlan::threads`] above 1 the run is the multi-threaded
//! driver under the seeded schedule.
//!
//! Every image is restarted, recovered with the scheme's recovery
//! procedure, and validated twice — GC-metadata consistency
//! ([`ffccd::validate_heap`]) and workload topology/key-set consistency
//! ([`crate::Workload::validate`], per thread's slot when threaded). A
//! failing site replays from its printed probe via
//! [`crate::campaign::replay`].

use std::collections::BTreeSet;

use ffccd::{ProbeId, Scheme};

use crate::campaign::{confirm, Report, Run};
use crate::driver::DriverConfig;
use crate::workload::Workload;

/// How a crash-site sweep chooses and bounds its work.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    /// Machine seed; also seeds target selection. A failure replays from
    /// this seed plus its site ID alone.
    pub seed: u64,
    /// Maximum sites to capture: exhaustive when the run fires fewer
    /// sites, seeded-random selection across the whole run beyond that.
    pub budget: u64,
    /// Maximum subset images per site (at least 1): 1 is the base image
    /// alone (§7.1b); above 1 the site's maybe-persisted lattice is
    /// explored exhaustively when `2^window` fits, corner-biased seeded
    /// sampling beyond (§7.1c, [`crate::adversary::choose_masks`]).
    pub images_per_site: u64,
    /// Mutator threads; above 1 the sweep runs the multi-threaded driver
    /// under the seeded turn schedule, and its oracle checks each thread's
    /// key set through that thread's slot of the root directory.
    pub threads: usize,
}

impl CrashPlan {
    /// A single-thread plan capturing the base image of up to `budget`
    /// sites of the run seeded `seed`.
    pub fn new(seed: u64, budget: u64) -> Self {
        CrashPlan {
            seed,
            budget,
            images_per_site: 1,
            threads: 1,
        }
    }
}

/// Sweeps crash sites for one workload under one scheme: the
/// [`crate::campaign`] pipeline exploring up to `plan.images_per_site`
/// subsets of each targeted site's maybe-persisted set. With one image
/// (§7.1b) that is the one-mask lattice `{0}`: exactly the base image, in
/// which nothing volatile persisted, is recovered and validated. Targets
/// are exhaustive under `plan.budget`, seeded-random beyond
/// ([`choose_targets`]).
///
/// Runs under the fault-campaign defragmentation thresholds whatever
/// `cfg.defrag` says.
pub fn run_crash_site_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &CrashPlan,
    cfg: &DriverConfig,
) -> Report {
    let run = Run {
        make: make_workload,
        scheme,
        seed: plan.seed,
        cfg,
        threads: plan.threads,
    };
    let summary = run.enumerate();
    let targets = choose_targets(summary.total, plan.seed, plan.budget);
    let report = Report {
        total_sites: summary.total,
        targeted: targets.len() as u64,
        site_counts: summary.nonzero(),
        ..Report::default()
    };
    let images = plan.images_per_site.max(1);
    let mut report = run.capture_and_validate(targets, report, |report, cap, at| {
        let probe = ProbeId::new(plan.seed, cap.site.id, 0).with_threads(plan.threads);
        run.explore(report, cap, at, images, probe);
    });
    confirm(&mut report, make_workload, scheme, cfg);
    report
}

/// Exhaustive under budget; seeded-random (distinct, whole-run) beyond.
pub fn choose_targets(total: u64, seed: u64, budget: u64) -> BTreeSet<u64> {
    if total <= budget {
        return (0..total).collect();
    }
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x517e_5eed);
    let mut targets = BTreeSet::new();
    while (targets.len() as u64) < budget {
        targets.insert(rng.gen_range(0..total));
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_targets_exhaustive_then_sampled() {
        assert_eq!(choose_targets(10, 7, 10).len(), 10);
        assert_eq!(choose_targets(3, 7, 10), (0..3).collect());
        let sampled = choose_targets(1_000_000, 7, 10);
        assert_eq!(sampled.len(), 10);
        assert!(sampled.iter().all(|&t| t < 1_000_000));
        assert_eq!(
            sampled,
            choose_targets(1_000_000, 7, 10),
            "selection is seed-deterministic"
        );
    }
}
