//! Machine-crash injection (paper §7.1b–d): one crash-site sweep,
//! [`run_crash_site_sweep`], over the shared [`crate::campaign`] pipeline.
//! Images are taken at *durability-event granularity*: the engine
//! enumerates every store / clwb / sfence / WPQ / eviction / GC-phase
//! event as a deterministic site, and a replay run captures an image right
//! after each chosen site — between operations and inside them, in the
//! persist-ordering windows that op spacing never reaches. The plan picks
//! the campaign:
//!
//! * §7.1b — the base image of each site ([`CrashPlan::new`]); with
//!   [`CrashPlan::threads`] above 1 the run is the multi-threaded driver
//!   under the seeded schedule;
//! * §7.1c — [`CrashPlan::images_per_site`] above 1 explores each site's
//!   maybe-persisted subsets: under ADR every subset of the dirty and
//!   in-flight lines is an equally legal durability outcome;
//! * §7.1d — [`CrashPlan::recovery_sites`] above 0 crashes *inside
//!   recovery*. Outer sites come from the GC-cycle windows
//!   ([`cycle_windows`]), where recovery has work to redo; each outer
//!   image's `recover()` reruns on a restarted engine with site tracking
//!   armed in [`ffccd_pmem::SitePhase::Recovery`], and each targeted
//!   recovery site's lattice is judged by the idempotent oracle (recover
//!   the nested image, then require a second `recover()` to be a
//!   byte-identical no-op). Recovery runs on a freshly restarted machine
//!   before any observer is installed, so nested maybe-sets carry no
//!   reached-bitmap fixups, and only recovery's not-yet-fenced stores are
//!   ambiguous.
//!
//! Every image is restarted, recovered with the scheme's recovery
//! procedure, and validated twice — GC-metadata consistency
//! ([`ffccd::validate_heap`]) and workload topology/key-set consistency
//! ([`crate::Workload::validate`], per thread's slot when threaded). A
//! failing subset shrinks to a 1-minimal probe that replays via
//! [`crate::campaign::replay`].

use std::collections::BTreeSet;

use ffccd::{phase_sites, ProbeId, Scheme};
use ffccd_pmem::{SiteCapture, SiteSummary};

use crate::campaign::{confirm, track_recovery, Failure, FiringOp, Report, Run};
use crate::driver::DriverConfig;
use crate::workload::Workload;

/// How a crash-site sweep chooses and bounds its work.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    /// Machine seed; also seeds target and mask selection. A failure
    /// replays from this seed plus its site ID(s) and subset alone.
    pub seed: u64,
    /// Maximum sites to capture: exhaustive when the run fires fewer
    /// sites, seeded-random selection across the whole run beyond that.
    /// With [`CrashPlan::recovery_sites`] above 0, the outer sites, drawn
    /// from the GC-cycle windows.
    pub budget: u64,
    /// Maximum subset images per (recovery) site, at least 1: 1 is the
    /// base image alone (§7.1b); above 1 the site's maybe-persisted lattice
    /// is explored exhaustively when `2^window` fits, corner-biased seeded
    /// sampling beyond (§7.1c).
    pub images_per_site: u64,
    /// Recovery sites to crash at per outer image (§7.1d); 0 crashes the
    /// mutator run only. Outer images whose recovery fires no durability
    /// event (quiescent heaps) cost one recovery and are skipped.
    pub recovery_sites: u64,
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
            recovery_sites: 0,
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
/// ([`choose_targets`]). With `plan.recovery_sites` above 0 the targets
/// are outer sites and the lattices are those of recovery's own sites
/// (§7.1d, see the module docs).
///
/// Runs under the fault-campaign defragmentation thresholds whatever
/// `cfg.defrag` says.
///
/// # Panics
///
/// If `plan.recovery_sites` is above 0 and `plan.threads` above 1: nested
/// crashes run on the single-thread driver only.
pub fn run_crash_site_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &CrashPlan,
    cfg: &DriverConfig,
) -> Report {
    assert!(
        plan.recovery_sites == 0 || plan.threads <= 1,
        "nested crashes run on one thread, not {}",
        plan.threads
    );
    let run = Run {
        make: make_workload,
        scheme,
        seed: plan.seed,
        cfg,
        threads: plan.threads,
    };
    let summary = run.enumerate();
    let mut report = Report {
        total_sites: summary.total,
        site_counts: summary.nonzero(),
        ..Report::default()
    };
    let (targets, explore): (_, Explore) = if plan.recovery_sites > 0 {
        let targets = choose_outer_targets(&summary, plan);
        report.outer_targeted = targets.len() as u64;
        (targets, explore_outer)
    } else {
        let targets = choose_targets(summary.total, plan.seed, plan.budget);
        report.targeted = targets.len() as u64;
        (targets, explore_site)
    };
    let mut report = run.capture_and_validate(targets, report, |report, cap, at| {
        explore(&run, report, cap, at, plan);
    });
    confirm(&mut report, make_workload, scheme, cfg);
    report
}

/// What a sweep does with one captured target: [`explore_site`] or
/// [`explore_outer`].
type Explore = fn(&Run<'_>, &mut Report, &SiteCapture, &FiringOp, &CrashPlan);

/// Explores one mutator-phase site's own subset lattice (§7.1b–c).
fn explore_site(
    run: &Run<'_>,
    report: &mut Report,
    cap: &SiteCapture,
    at: &FiringOp,
    plan: &CrashPlan,
) {
    let probe = ProbeId::new(plan.seed, cap.site.id, 0).with_threads(plan.threads);
    run.explore(report, cap, at, plan.images_per_site.max(1), probe);
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

/// Half-open `[lo, hi)` site-ID ranges spanning each GC cycle of the
/// reference run: from the stop-the-world begin preceding a cycle arm
/// (covering the summary phase, whose reservations recovery rolls back)
/// through the cycle's terminate end. Phase marks arrive in firing order,
/// so the windows come out disjoint and ascending.
fn cycle_windows(marks: &[(u64, u64)], total: u64) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut last_stw = None;
    let mut open = None;
    for &(id, code) in marks {
        if code == phase_sites::STW_BEGIN {
            last_stw = Some(id);
        } else if code == phase_sites::CYCLE_ARMED && open.is_none() {
            open = Some(last_stw.unwrap_or(id));
        } else if code == phase_sites::TERMINATE_END {
            if let Some(lo) = open.take() {
                windows.push((lo, (id + 1).min(total)));
            }
        }
    }
    if let Some(lo) = open {
        windows.push((lo, total));
    }
    windows
}

/// Picks the outer (mutator-phase) sites of a nested sweep. Recovery only
/// has work to redo when the crash lands inside a GC cycle, so targeting
/// samples the [`cycle_windows`] site-ID ranges; outside them recovery is
/// quiescent and the nested site space is empty. Falls back to uniform
/// sampling over the whole run when no cycle fired.
fn choose_outer_targets(summary: &SiteSummary, plan: &CrashPlan) -> BTreeSet<u64> {
    let windows = cycle_windows(&summary.phase_marks, summary.total);
    let in_window: u64 = windows.iter().map(|&(lo, hi)| hi - lo).sum();
    if in_window == 0 {
        return choose_targets(summary.total, plan.seed, plan.budget);
    }
    choose_targets(in_window, plan.seed, plan.budget)
        .into_iter()
        .map(|mut i| {
            for &(lo, hi) in &windows {
                let len = hi - lo;
                if i < len {
                    return lo + i;
                }
                i -= len;
            }
            unreachable!("window index {i} exceeds the window total {in_window}")
        })
        .collect()
}

/// Explores one outer crash image: enumerate the durability events its
/// recovery fires, capture the targeted ones, and explore each captured
/// recovery site's subset lattice (keyed by the *outer* op's key sets).
fn explore_outer(
    run: &Run<'_>,
    report: &mut Report,
    cap: &SiteCapture,
    at: &FiringOp,
    plan: &CrashPlan,
) {
    report.outer_captured += 1;
    let registry = run.registry();
    let (outcome, summary, _) = track_recovery(&cap.image, &registry, run.scheme, None);
    if let Err(e) = outcome {
        // The base image failing recovery outright is a §7.1b failure;
        // record it here too so the nested report is standalone.
        report.failures.push(Failure {
            probe: ProbeId::nested(plan.seed, cap.site.id, 0, 0),
            op: at.op,
            kind: cap.site.kind.label(),
            maybe_len: 0,
            message: format!("outer recovery failed: {e}"),
            minimal: false,
            reproduced: false,
        });
        return;
    }
    report.recovery_sites += summary.total;
    if summary.total == 0 {
        // Quiescent image: recovery wrote nothing, there is no nested
        // crash to inject.
        return;
    }
    report.nested_outer += 1;

    let targets = choose_targets(
        summary.total,
        plan.seed ^ cap.site.id.rotate_left(17),
        plan.recovery_sites,
    );
    report.targeted += targets.len() as u64;
    let (_, _, nested_caps) = track_recovery(&cap.image, &registry, run.scheme, Some(targets));
    for ncap in &nested_caps {
        let probe = ProbeId::nested(plan.seed, cap.site.id, ncap.site.id, 0);
        run.explore(report, ncap, at, plan.images_per_site.max(1), probe);
    }
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
