//! Nested-crash explorer — crash *inside recovery*, then recover again
//! (paper §4.1; the §7.1d campaign).
//!
//! The sweep (§7.1b) and adversary (§7.1c) campaigns only ever crash the
//! mutator/defrag threads; recovery itself ran to completion every time.
//! But the paper runs recovery "with persist barriers and logging"
//! precisely because a machine can die *again* while recovering — and a
//! restartable recovery must tolerate any prefix of its own writes being
//! durable. [`run_nested_crash_sweep`] closes that gap by running the
//! [`crate::campaign`] pipeline twice over:
//!
//! 1. *outer* crash images are captured at mutator sites sampled from the
//!    GC-cycle windows of the reference run (recovery is quiescent
//!    elsewhere);
//! 2. per outer image, `recover()` is re-run on a restarted engine with
//!    site tracking armed in [`ffccd_pmem::SitePhase::Recovery`] — every
//!    store/clwb/sfence/WPQ event recovery issues becomes an enumerable
//!    *recovery site* — and targeted recovery sites are captured;
//! 3. each recovery site's subset lattice is explored under the
//!    idempotent oracle: recover the nested image from scratch, require a
//!    second `recover()` on the recovered machine to be a byte-identical
//!    no-op, and pass both validators;
//! 4. a failing subset shrinks to a 1-minimal
//!    `(seed, outer_site/recovery_site, subset)` probe
//!    ([`ffccd::ProbeId::nested`], [`crate::campaign::replay`]).
//!
//! Recovery runs on a freshly restarted machine before any observer is
//! installed, so nested maybe-sets carry no reached-bitmap fixups, and
//! the WPQ/ADR exclusion applies unchanged: recovery's fenced writes sit
//! in the WPQ (certainly durable), only its not-yet-fenced stores are
//! ambiguous.

use std::collections::BTreeSet;

use ffccd::{phase_sites, ProbeId, Scheme};
use ffccd_pmem::{SiteCapture, SiteSummary};

use crate::campaign::{confirm, track_recovery, Failure, FiringOp, Report, Run};
use crate::driver::DriverConfig;
use crate::faults::choose_targets;
use crate::workload::Workload;

/// How a nested-crash exploration chooses and bounds its work.
#[derive(Clone, Debug)]
pub struct NestedPlan {
    /// Machine seed; also seeds outer-site, recovery-site and mask
    /// selection. A failure replays from this seed plus its
    /// `(outer_site, recovery_site, subset_mask)` alone.
    pub seed: u64,
    /// Maximum *outer* (mutator-phase) crash sites to capture and recover
    /// under tracking. Outer images whose recovery fires no durability
    /// event (quiescent heaps) cost one recovery and are skipped.
    pub outer_budget: u64,
    /// Maximum recovery sites to capture per outer image.
    pub site_budget: u64,
    /// Maximum subset images per recovery site (exhaustive lattice
    /// exploration when `2^window` fits).
    pub images_per_site: u64,
}

impl NestedPlan {
    /// A plan with at least one recovery site and one image per site.
    pub fn new(seed: u64, outer_budget: u64, site_budget: u64, images_per_site: u64) -> Self {
        NestedPlan {
            seed,
            outer_budget,
            site_budget: site_budget.max(1),
            images_per_site: images_per_site.max(1),
        }
    }
}

/// Explores nested crashes for one workload under one scheme (see the
/// module docs).
pub fn run_nested_crash_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &NestedPlan,
    cfg: &DriverConfig,
) -> Report {
    let run = Run {
        make: make_workload,
        scheme,
        seed: plan.seed,
        cfg,
        threads: 1,
    };
    let summary = run.enumerate();
    let windows = cycle_windows(&summary.phase_marks, summary.total);
    let outer_targets = choose_outer_targets(&summary, &windows, plan);
    let report = Report {
        total_sites: summary.total,
        outer_targeted: outer_targets.len() as u64,
        ..Report::default()
    };
    let mut report = run.capture_and_validate(outer_targets, report, |report, cap, at| {
        explore_outer(&run, report, cap, at, plan);
    });
    confirm(&mut report, run.make, run.scheme, run.cfg);
    report
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

/// Picks the outer (mutator-phase) sites to capture. Recovery only has
/// work to redo when the crash lands inside a GC cycle, so targeting
/// samples the [`cycle_windows`] site-ID ranges; outside them recovery is
/// quiescent and the nested site space is empty. Falls back to uniform
/// sampling over the whole run when no cycle fired.
fn choose_outer_targets(
    summary: &SiteSummary,
    windows: &[(u64, u64)],
    plan: &NestedPlan,
) -> BTreeSet<u64> {
    let in_window: u64 = windows.iter().map(|&(lo, hi)| hi - lo).sum();
    if in_window == 0 {
        return choose_targets(summary.total, plan.seed, plan.outer_budget);
    }
    choose_targets(in_window, plan.seed, plan.outer_budget)
        .into_iter()
        .map(|mut i| {
            for &(lo, hi) in windows {
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
    plan: &NestedPlan,
) {
    report.outer_captured += 1;
    let registry = run.registry();
    let (outcome, summary, _) = track_recovery(&cap.image, &registry, run.scheme, None);
    if let Err(e) = outcome {
        // The base image failing recovery outright is a §7.1b sweep
        // failure; record it here too so the nested report is standalone.
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
        plan.site_budget,
    );
    report.targeted += targets.len() as u64;
    let (_, _, nested_caps) = track_recovery(&cap.image, &registry, run.scheme, Some(targets));
    for ncap in &nested_caps {
        let probe = ProbeId::nested(plan.seed, cap.site.id, ncap.site.id, 0);
        run.explore(report, ncap, at, plan.images_per_site, probe);
    }
}
