//! Nested-crash explorer — crash *inside recovery*, then recover again
//! (paper §4.1; the §7.1d campaign).
//!
//! The sweep (§7.1b) and adversary (§7.1c) campaigns only ever crash the
//! mutator/defrag threads; recovery itself ran to completion every time.
//! But the paper runs recovery "with persist barriers and logging"
//! precisely because a machine can die *again* while recovering — and a
//! restartable recovery must tolerate any prefix of its own writes being
//! durable. This module closes that gap:
//!
//! 1. a reference run enumerates the mutator site space and captures
//!    *outer* crash images (same machinery as the adversary explorer);
//! 2. per outer image, `recover()` is re-run on a restarted engine with
//!    site tracking armed in [`ffccd_pmem::SitePhase::Recovery`] — every
//!    store/clwb/sfence/WPQ event recovery issues becomes an enumerable
//!    *recovery site*;
//! 3. targeted recovery sites are captured (base image + maybe-persisted
//!    set, exactly as in PR 4) and their subset lattices explored via
//!    [`choose_masks`](crate::adversary::choose_masks);
//! 4. the oracle for each nested image is: run the scheme's recovery
//!    *again* on it ([`DefragHeap::open_recovered_idempotent`]), require
//!    the second `recover()` on the recovered machine to be a
//!    byte-identical no-op (FNV-1a media fingerprints; the idempotence
//!    contract), and pass both the GC-metadata and program-data
//!    validators;
//! 5. a failing subset shrinks to a 1-minimal counterexample and is
//!    forever replayable from its `(seed, outer_site/recovery_site,
//!    subset)` probe ([`ffccd::ProbeId::nested`],
//!    [`replay_nested_subset`]).
//!
//! Recovery runs on a freshly restarted machine before any observer is
//! installed, so nested maybe-sets carry no reached-bitmap fixups, and
//! the WPQ/ADR exclusion applies unchanged: recovery's fenced writes sit
//! in the WPQ (certainly durable), only its not-yet-fenced stores are
//! ambiguous. Like the other campaigns, the capture pass fans out over
//! threads by splitting the *outer* target set round-robin; every chunk
//! replays from the same seed on the single-bank deterministic engine, so
//! the merged report is identical at every job count.

use std::collections::BTreeSet;

use ffccd::{phase_sites, recover, DefragConfig, DefragHeap, ProbeId, Scheme};
use ffccd_pmem::{Ctx, SiteCapture, SitePhase, SiteSummary};
use ffccd_pmop::PoolConfig;

use crate::adversary::{adv_window_base, choose_masks, shrink_subset, SHRINK_MAX_PROBES};
use crate::driver::{run_on, DriverConfig, OpHook};
use crate::faults::{
    choose_targets, deterministic_pool, fault_defrag, run_single_site, split_round_robin,
};
use crate::util::LiveKeys;
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
    /// Shrink failing subsets to 1-minimal counterexamples.
    pub shrink: bool,
}

impl NestedPlan {
    /// A plan with shrinking enabled.
    pub fn new(seed: u64, outer_budget: u64, site_budget: u64, images_per_site: u64) -> Self {
        NestedPlan {
            seed,
            outer_budget,
            site_budget: site_budget.max(1),
            images_per_site: images_per_site.max(1),
            shrink: true,
        }
    }
}

/// One nested-crash validation failure with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct NestedFailure {
    /// The replayable recovery-phase probe
    /// (`(seed, outer_site/recovery_site, subset)`;
    /// [`ffccd::ProbeId::nested`]). When `minimal` is set the mask is the
    /// shrunk 1-minimal culprit.
    pub probe: ProbeId,
    /// Operation index (1-based) during which the *outer* site fired.
    pub op: u64,
    /// Recovery-site event kind label (e.g. `store`, `clwb`, `wpq-drain`).
    pub kind: String,
    /// Size of the recovery site's maybe-persisted set.
    pub maybe_len: usize,
    /// What the oracle reported for the (shrunk) subset.
    pub message: String,
    /// Whether the greedy shrink confirmed 1-minimality within budget.
    pub minimal: bool,
    /// Whether an isolated replay from scratch reproduced the failure.
    pub reproduced: bool,
}

impl NestedFailure {
    /// The replayable probe, formatted for logs.
    pub fn triple(&self) -> String {
        self.probe.to_string()
    }
}

/// Outcome of one nested-crash exploration.
#[derive(Clone, Debug, Default)]
pub struct NestedReport {
    /// Mutator sites the reference run fired in total.
    pub total_sites: u64,
    /// Mutator sites inside GC-cycle windows (STW begin → terminate end);
    /// outer targeting samples these, since recovery is quiescent
    /// elsewhere. Zero means no cycle fired and targeting fell back to
    /// the whole run.
    pub cycle_sites: u64,
    /// Outer crash sites chosen for capture.
    pub outer_targeted: u64,
    /// Outer sites actually captured.
    pub outer_captured: u64,
    /// Outer images whose recovery fired at least one durability event
    /// (each contributes a recovery-site space to explore).
    pub nested_outer: u64,
    /// Recovery-phase durability events summed over all captured outer
    /// images.
    pub recovery_sites: u64,
    /// Recovery sites chosen for nested capture (summed).
    pub targeted: u64,
    /// Recovery sites actually captured (each contributes a lattice).
    pub captured: u64,
    /// Nested subset images materialized and run through the oracle.
    pub images: u64,
    /// Recovery sites whose lattice was explored exhaustively.
    pub exhaustive_sites: u64,
    /// Recovery sites with an empty maybe-persisted set.
    pub empty_lattices: u64,
    /// Recovery sites whose maybe-set extends beyond the explored window
    /// (slide it with `FFCCD_ADV_WINDOW`).
    pub truncated_lattices: u64,
    /// Largest recovery-phase maybe-persisted set seen.
    pub max_maybe: usize,
    /// Oracle failures, shrunk to minimal subsets where possible. At most
    /// one per recovery site.
    pub failures: Vec<NestedFailure>,
}

/// Explores nested crashes for one workload under one scheme (see the
/// module docs). Sequential; the campaign binary uses
/// [`run_nested_crash_sweep_jobs`].
pub fn run_nested_crash_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &NestedPlan,
    cfg: &DriverConfig,
) -> NestedReport {
    run_nested_crash_sweep_jobs(make_workload, scheme, plan, cfg, 1)
}

/// [`run_nested_crash_sweep`] with the capture pass fanned out over `jobs`
/// threads (round-robin outer-target chunks, deterministic merge — the
/// report is identical at every job count).
pub fn run_nested_crash_sweep_jobs(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &NestedPlan,
    cfg: &DriverConfig,
    jobs: usize,
) -> NestedReport {
    let pool_cfg = deterministic_pool(cfg, plan.seed);
    let defrag = fault_defrag(scheme);

    // Pass 1: reference run enumerates the mutator site space.
    let summary = {
        let mut w = make_workload();
        let heap =
            DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("nested ref pool");
        heap.engine().site_tracking_enumerate();
        run_on(&mut *w, cfg, &heap, &mut None);
        heap.engine().site_tracking_stop()
    };

    let windows = cycle_windows(&summary.phase_marks, summary.total);
    let outer_targets = choose_outer_targets(&summary, &windows, plan);
    let mut report = NestedReport {
        total_sites: summary.total,
        cycle_sites: windows.iter().map(|&(lo, hi)| hi - lo).sum(),
        outer_targeted: outer_targets.len() as u64,
        ..NestedReport::default()
    };

    // Pass 2: capture replays; each captured outer image's recovery-site
    // space is enumerated and explored as soon as its op boundary drains
    // it.
    let chunks = split_round_robin(&outer_targets, jobs.max(1));
    let tallies = crate::par::parallel_map(&chunks, jobs.max(1), |_, chunk| {
        nested_pass(make_workload, chunk.clone(), &pool_cfg, defrag, plan, cfg)
    });
    for tally in tallies {
        report.outer_captured += tally.outer_captured;
        report.nested_outer += tally.nested_outer;
        report.recovery_sites += tally.recovery_sites;
        report.targeted += tally.targeted;
        report.captured += tally.captured;
        report.images += tally.images;
        report.exhaustive_sites += tally.exhaustive_sites;
        report.empty_lattices += tally.empty_lattices;
        report.truncated_lattices += tally.truncated_lattices;
        report.max_maybe = report.max_maybe.max(tally.max_maybe);
        report.failures.extend(tally.failures);
    }
    report
        .failures
        .sort_by_key(|f| (f.probe.site_id, f.probe.subset_mask));

    // Pass 3: confirm shrunk failures with isolated from-scratch replays.
    for f in report.failures.iter_mut().take(8) {
        f.reproduced = matches!(
            replay_nested_subset(
                make_workload,
                scheme,
                f.probe.seed,
                f.probe.outer_site(),
                f.probe.recovery_site(),
                f.probe.subset_mask,
                cfg,
            ),
            Some((_, Err(_)))
        );
    }
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

/// Per-chunk tally; merged by summation/max into [`NestedReport`].
#[derive(Default)]
struct NestedTally {
    outer_captured: u64,
    nested_outer: u64,
    recovery_sites: u64,
    targeted: u64,
    captured: u64,
    images: u64,
    exhaustive_sites: u64,
    empty_lattices: u64,
    truncated_lattices: u64,
    max_maybe: usize,
    failures: Vec<NestedFailure>,
}

/// One full outer capture replay with per-image recovery exploration at
/// every op boundary (captures are drained per op, so memory stays
/// bounded).
fn nested_pass(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    targets: BTreeSet<u64>,
    pool_cfg: &PoolConfig,
    defrag: DefragConfig,
    plan: &NestedPlan,
    cfg: &DriverConfig,
) -> NestedTally {
    let mut tally = NestedTally::default();
    let mut w = make_workload();
    let heap =
        DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("nested capture pool");
    heap.engine().site_tracking_capture(targets);
    let engine = heap.engine().clone();
    let mut prev_live = LiveKeys::new();
    {
        let mut hook = |op: u64, _heap: &DefragHeap, live: &LiveKeys| {
            let caps = engine.drain_site_captures();
            if !caps.is_empty() {
                let (before, after) = (prev_live.to_btree_set(), live.to_btree_set());
                for cap in &caps {
                    explore_outer(
                        &mut tally,
                        cap,
                        op,
                        plan,
                        defrag,
                        make_workload,
                        &before,
                        &after,
                    );
                }
            }
            prev_live.clone_from(live);
            true
        };
        let mut hook_dyn: OpHook<'_> = Some(&mut hook);
        run_on(&mut *w, cfg, &heap, &mut hook_dyn);
    }
    // Sites firing during wind-down (`exit()`) see the final key set.
    let final_live = prev_live.to_btree_set();
    let final_op = (cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) as u64;
    for cap in heap.engine().drain_site_captures() {
        explore_outer(
            &mut tally,
            &cap,
            final_op,
            plan,
            defrag,
            make_workload,
            &final_live,
            &final_live,
        );
    }
    heap.engine().site_tracking_stop();
    tally
}

/// Explores one outer crash image: enumerate the durability events its
/// recovery fires, capture the targeted ones, and explore each captured
/// recovery site's subset lattice.
#[allow(clippy::too_many_arguments)] // internal tally helper
fn explore_outer(
    tally: &mut NestedTally,
    cap: &SiteCapture,
    op: u64,
    plan: &NestedPlan,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) {
    tally.outer_captured += 1;
    let registry = make_workload().registry();

    // Enumerate the recovery-site space of this outer image. The restarted
    // engine carries the image's single-bank deterministic config, so
    // recovery's event sequence is a pure function of the image.
    let eng = cap.image.restart();
    eng.site_tracking_enumerate_phase(SitePhase::Recovery);
    let outcome = recover(&eng, &registry, defrag.scheme);
    let summary = eng.site_tracking_stop();
    if let Err(e) = outcome {
        // The base image failing recovery outright is a §7.1b sweep
        // failure; record it here too so the nested report is standalone.
        tally.failures.push(NestedFailure {
            probe: ProbeId::nested(plan.seed, cap.site.id, 0, 0),
            op,
            kind: cap.site.kind.label().to_owned(),
            maybe_len: 0,
            message: format!("outer recovery failed: {e}"),
            minimal: false,
            reproduced: false,
        });
        return;
    }
    tally.recovery_sites += summary.total;
    if summary.total == 0 {
        // Quiescent image: recovery wrote nothing, there is no nested
        // crash to inject.
        return;
    }
    tally.nested_outer += 1;

    let targets = choose_targets(
        summary.total,
        plan.seed ^ cap.site.id.rotate_left(17),
        plan.site_budget,
    );
    tally.targeted += targets.len() as u64;

    // Capture replay of recovery: same image, same config, capture armed
    // for the chosen recovery sites.
    let eng2 = cap.image.restart();
    eng2.site_tracking_capture_phase(targets, SitePhase::Recovery);
    let _ = recover(&eng2, &registry, defrag.scheme);
    let nested_caps = eng2.drain_site_captures();
    eng2.site_tracking_stop();
    for ncap in &nested_caps {
        explore_nested_site(
            tally,
            cap.site.id,
            ncap,
            op,
            plan,
            defrag,
            make_workload,
            live_before,
            live_after,
        );
    }
}

/// Explores one recovery site's lattice: materialize each chosen subset,
/// run the nested oracle, and shrink the first failure to a minimal
/// counterexample (then stop exploring this site).
#[allow(clippy::too_many_arguments)] // internal tally helper
fn explore_nested_site(
    tally: &mut NestedTally,
    outer_site: u64,
    ncap: &SiteCapture,
    op: u64,
    plan: &NestedPlan,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) {
    tally.captured += 1;
    tally.max_maybe = tally.max_maybe.max(ncap.maybe.len());
    if ncap.maybe.is_empty() {
        tally.empty_lattices += 1;
    }
    let base = adv_window_base();
    let window = ncap.maybe.window_at(base);
    if ncap.maybe.len() > base + window as usize {
        tally.truncated_lattices += 1;
    }
    let (masks, exhaustive) = choose_masks(
        window,
        plan.images_per_site,
        plan.seed,
        outer_site << 32 | ncap.site.id,
    );
    if exhaustive {
        tally.exhaustive_sites += 1;
    }
    let check = |mask: u64| -> Result<(), String> {
        let image = ncap
            .image
            .with_persisted_subset_at(&ncap.maybe, mask, base)
            .map_err(|e| e.to_string())?;
        validate_nested_image(&image, defrag, make_workload, live_before, live_after)
    };
    for mask in masks {
        tally.images += 1;
        let Err(first_msg) = check(mask) else {
            continue;
        };
        let (min_mask, minimal) = if plan.shrink {
            shrink_subset(mask, |m| check(m).is_err(), SHRINK_MAX_PROBES)
        } else {
            (mask, false)
        };
        let message = if min_mask == mask {
            first_msg
        } else {
            check(min_mask).err().unwrap_or(first_msg)
        };
        tally.failures.push(NestedFailure {
            probe: ProbeId::nested(plan.seed, outer_site, ncap.site.id, min_mask),
            op,
            kind: ncap.site.kind.label().to_owned(),
            maybe_len: ncap.maybe.len(),
            message,
            minimal,
            reproduced: false,
        });
        return;
    }
}

/// The nested oracle: recover the nested image from scratch, require the
/// idempotence contract (a second `recover()` on the recovered machine is
/// a byte-identical no-op), then run the GC-metadata and program-data
/// validators. Because the image may be mid-operation, the key-set oracle
/// accepts either the pre-op or the post-op set.
pub(crate) fn validate_nested_image(
    image: &ffccd_pmem::CrashImage,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) -> Result<(), String> {
    let mut fresh = make_workload();
    let (heap2, rerun) =
        DefragHeap::open_recovered_idempotent(image, None, fresh.registry(), defrag)
            .map_err(|e| format!("nested recovery failed: {e}"))?;
    if !rerun.is_noop() {
        return Err(format!(
            "recovery not idempotent: media fingerprint 0x{:x} -> 0x{:x}, rerun had_cycle={}",
            rerun.fingerprint, rerun.rerun_fingerprint, rerun.rerun.had_cycle
        ));
    }
    ffccd::validate_heap(&heap2).map_err(|es| format!("GC metadata: {}", es.join("; ")))?;
    let mut ctx = Ctx::new(heap2.pool().machine());
    fresh.reopen(&heap2, &mut ctx);
    if fresh.validate(&heap2, &mut ctx, live_after).is_ok() {
        return Ok(());
    }
    fresh
        .validate(&heap2, &mut ctx, live_before)
        .map_err(|e| format!("matches neither pre- nor post-op key set: {e}"))
}

/// Everything a single nested-subset isolated replay produced; the pinned
/// recovery-phase regression tests fingerprint `image` byte-for-byte.
#[derive(Clone, Debug)]
pub struct NestedReplay {
    /// 1-based op index during which the *outer* site fired.
    pub op: u64,
    /// Size of the recovery site's maybe-persisted set.
    pub maybe_len: usize,
    /// The materialized nested subset image.
    pub image: ffccd_pmem::CrashImage,
    /// Nested-oracle outcome for that image.
    pub outcome: Result<(), String>,
}

/// Replays one recovery-phase probe from scratch: reruns the workload with
/// capture armed for `outer_site`, restarts the captured image with
/// recovery-phase capture armed for `recovery_site`, runs `recover()`,
/// materializes the `mask` subset of the nested maybe-persisted set, and
/// runs the nested oracle on it. Returns `None` when either site never
/// fires (wrong seed, workload or configuration).
pub fn replay_nested_subset_full(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    outer_site: u64,
    recovery_site: u64,
    mask: u64,
    cfg: &DriverConfig,
) -> Option<NestedReplay> {
    let defrag = fault_defrag(scheme);
    let run = run_single_site(make_workload, scheme, seed, outer_site, cfg)?;
    let registry = make_workload().registry();
    let eng = run.cap.image.restart();
    eng.site_tracking_capture_phase([recovery_site].into_iter().collect(), SitePhase::Recovery);
    let _ = recover(&eng, &registry, scheme);
    let ncap = eng.drain_site_captures().into_iter().next();
    eng.site_tracking_stop();
    let ncap = ncap?;
    let base = adv_window_base();
    let image = match ncap.image.with_persisted_subset_at(&ncap.maybe, mask, base) {
        Ok(image) => image,
        Err(e) => {
            return Some(NestedReplay {
                op: run.op,
                maybe_len: ncap.maybe.len(),
                outcome: Err(e.to_string()),
                image: ncap.image,
            })
        }
    };
    Some(NestedReplay {
        op: run.op,
        maybe_len: ncap.maybe.len(),
        outcome: validate_nested_image(
            &image,
            defrag,
            make_workload,
            &run.live_before,
            &run.live_after,
        ),
        image,
    })
}

/// [`replay_nested_subset_full`] reduced to `(op, outcome)`.
#[allow(clippy::too_many_arguments)] // mirror of the probe tuple
pub fn replay_nested_subset(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    outer_site: u64,
    recovery_site: u64,
    mask: u64,
    cfg: &DriverConfig,
) -> Option<(u64, Result<(), String>)> {
    replay_nested_subset_full(
        make_workload,
        scheme,
        seed,
        outer_site,
        recovery_site,
        mask,
        cfg,
    )
    .map(|r| (r.op, r.outcome))
}
