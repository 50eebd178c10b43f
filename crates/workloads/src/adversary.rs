//! Adversarial persistence explorer — bounded model checking over the
//! maybe-persisted lattice (paper §3.3/§5; Jaaru-style persistency
//! exploration).
//!
//! The §7.1b crash-site sweep validates exactly one crash image per
//! `(seed, site_id)`: the base image, in which nothing volatile persisted.
//! But under ADR *every subset* of the maybe-persisted set — dirty cache
//! lines plus post-`clwb`/pre-`sfence` in-flight lines; WPQ contents are
//! ADR-guaranteed and excluded — is an equally legal durability outcome,
//! because nothing orders non-fenced writebacks with respect to the
//! failure. FFCCD's central claim is that recovery tolerates *any* of
//! them; this module checks it:
//!
//! 1. a reference run enumerates the site space (same pass the sweep uses);
//! 2. a capture replay snapshots, at each targeted site, the base image
//!    *plus* the maybe-persisted set ([`ffccd_pmem::SiteCapture::maybe`]);
//! 3. per site, subset bitmasks are chosen — exhaustively when
//!    `2^window <= images_per_site`, otherwise corners first (empty set,
//!    full set, singletons, all-but-one) topped up with seeded-random
//!    masks — and each one is materialized via
//!    [`CrashImage::with_persisted_subset`] and run through the scheme's
//!    recovery plus both validators;
//! 4. a failing subset greedily shrinks to a 1-minimal counterexample
//!    ([`shrink_subset`]), replayable forever from its
//!    `(seed, site_id, subset_bitmask)` triple ([`ffccd::ProbeId`],
//!    [`replay_adversary_subset`]).
//!
//! Shrink probes re-validate *images* (materialize + recover + validate),
//! not whole runs — the capture is already in hand — so shrinking a
//! subset costs probes, not workload replays. Like the sweep, the capture
//! pass fans out over threads by splitting the target set round-robin;
//! every chunk replays from the same seed on the single-bank
//! deterministic engine, so the merged report is identical at every job
//! count.

use std::collections::BTreeSet;

use ffccd::{DefragConfig, DefragHeap, ProbeId, Scheme};
use ffccd_pmem::{CrashImage, SiteCapture};
use ffccd_pmop::PoolConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::driver::{run_on, DriverConfig, OpHook};
use crate::faults::{
    choose_targets, deterministic_pool, fault_defrag, run_single_site, split_round_robin,
    validate_capture,
};
use crate::util::LiveKeys;
use crate::workload::Workload;

/// Probe budget for one greedy shrink: popcount ≤ 64 per pass, a handful
/// of passes to fixpoint. Each probe is one image recovery + validation.
pub(crate) const SHRINK_MAX_PROBES: usize = 2048;

/// First maybe-set entry the 64-bit subset window covers, from the
/// `FFCCD_ADV_WINDOW` environment variable (default 0). Fence-free
/// maybe-sets run to thousands of lines — far past one mask — so sliding
/// the window makes the deep entries reachable; sites whose sets still
/// extend beyond the explored window are counted as *truncated lattices*
/// in the sweep reports instead of being silently cut off.
pub(crate) fn adv_window_base() -> usize {
    std::env::var("FFCCD_ADV_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// How an adversarial exploration chooses and bounds its work.
#[derive(Clone, Debug)]
pub struct AdversaryPlan {
    /// Machine seed; also seeds site and mask selection. A failure replays
    /// from this seed plus its `(site_id, subset_mask)` alone.
    pub seed: u64,
    /// Maximum sites to capture (exhaustive when the run fires fewer).
    pub site_budget: u64,
    /// Maximum subset images per site: exhaustive lattice exploration when
    /// `2^window` fits, corner-biased seeded sampling beyond.
    pub images_per_site: u64,
    /// Shrink failing subsets to 1-minimal counterexamples.
    pub shrink: bool,
}

impl AdversaryPlan {
    /// A plan with shrinking enabled.
    pub fn new(seed: u64, site_budget: u64, images_per_site: u64) -> Self {
        AdversaryPlan {
            seed,
            site_budget,
            images_per_site: images_per_site.max(1),
            shrink: true,
        }
    }
}

/// One validation failure with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct AdversaryFailure {
    /// The replayable `(seed, site_id, subset_bitmask)` triple. When
    /// `minimal` is set the mask is the shrunk 1-minimal culprit, not
    /// necessarily the mask that first failed.
    pub probe: ProbeId,
    /// Operation index (1-based) during which the site fired.
    pub op: u64,
    /// Event kind label (e.g. `clwb`, `wpq-accept`, `phase`).
    pub kind: String,
    /// Size of the site's maybe-persisted set.
    pub maybe_len: usize,
    /// What the validators reported for the (shrunk) subset.
    pub message: String,
    /// Whether the greedy shrink confirmed 1-minimality (every single-line
    /// removal makes recovery pass) within its probe budget.
    pub minimal: bool,
    /// Whether an isolated replay from scratch reproduced the failure.
    pub reproduced: bool,
}

impl AdversaryFailure {
    /// The replayable triple, formatted for logs.
    pub fn triple(&self) -> String {
        self.probe.to_string()
    }
}

/// Outcome of one adversarial exploration.
#[derive(Clone, Debug, Default)]
pub struct AdversaryReport {
    /// Sites the reference run fired in total.
    pub total_sites: u64,
    /// Distinct sites chosen for capture.
    pub targeted: u64,
    /// Sites actually captured (each contributes a lattice).
    pub captured: u64,
    /// Subset images materialized and validated across all sites.
    pub images: u64,
    /// Sites whose lattice was explored exhaustively.
    pub exhaustive_sites: u64,
    /// Sites with an empty maybe-persisted set (base image only).
    pub empty_lattices: u64,
    /// Sites whose maybe-persisted set extends beyond the explored 64-bit
    /// window (slide it with `FFCCD_ADV_WINDOW` to reach deeper entries).
    pub truncated_lattices: u64,
    /// Largest maybe-persisted set seen (may exceed the 64-line window).
    pub max_maybe: usize,
    /// Validation failures, shrunk to minimal subsets where possible. At
    /// most one per site: a broken site stops exploring after its first
    /// failing subset has been shrunk.
    pub failures: Vec<AdversaryFailure>,
}

/// Greedy 1-minimal shrink of a failing subset bitmask.
///
/// Repeatedly tries to drop each set bit (ascending); a drop is kept when
/// the oracle still fails without that line. Loops to a fixpoint: the
/// returned mask is *1-minimal* — `fails(mask)` holds and removing any
/// single remaining line makes the oracle pass — whenever the second
/// return value is `true`. `false` means the probe budget ran out first
/// and the mask is merely a smaller failing subset.
///
/// Deterministic: probe order is a pure function of the starting mask, so
/// the same `(mask, oracle)` always shrinks to the same result.
pub fn shrink_subset(
    mask: u64,
    mut fails: impl FnMut(u64) -> bool,
    max_probes: usize,
) -> (u64, bool) {
    let mut cur = mask;
    let mut probes = 0usize;
    loop {
        let mut changed = false;
        for bit in 0..64 {
            let b = 1u64 << bit;
            if cur & b == 0 {
                continue;
            }
            if probes >= max_probes {
                return (cur, false);
            }
            probes += 1;
            if fails(cur & !b) {
                cur &= !b;
                changed = true;
            }
        }
        if !changed {
            // A full clean pass: every single-bit removal passed, so `cur`
            // is 1-minimal by construction.
            return (cur, true);
        }
    }
}

/// Chooses the subset bitmasks to explore at one site. Returns the masks
/// in exploration order plus whether the lattice is covered exhaustively.
///
/// Exhaustive (`0..2^window`) when that fits the budget; otherwise corners
/// first — empty set, full set, singletons, all-but-one — then distinct
/// seeded-random masks up to the budget. The corner bias follows
/// delta-debugging practice: boundary subsets are where monotone recovery
/// logic breaks first.
pub fn choose_masks(window: u32, budget: u64, seed: u64, site_id: u64) -> (Vec<u64>, bool) {
    if window == 0 {
        return (vec![0], true);
    }
    let full: u64 = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    if window < 63 && (1u64 << window) <= budget {
        return ((0..=full).collect(), true);
    }
    let mut out: Vec<u64> = Vec::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let push = |m: u64, out: &mut Vec<u64>, seen: &mut BTreeSet<u64>| {
        if seen.insert(m) {
            out.push(m);
        }
    };
    push(0, &mut out, &mut seen);
    push(full, &mut out, &mut seen);
    for i in 0..window {
        push(1u64 << i, &mut out, &mut seen);
    }
    for i in 0..window {
        push(full ^ (1u64 << i), &mut out, &mut seen);
    }
    let mut rng =
        SmallRng::seed_from_u64(seed ^ site_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xadfe_50b5);
    while (out.len() as u64) < budget {
        push(rng.gen::<u64>() & full, &mut out, &mut seen);
    }
    out.truncate(budget as usize);
    (out, false)
}

/// Explores the maybe-persisted lattice for one workload under one scheme
/// (see the module docs for the passes). Sequential; the campaign binary
/// uses [`run_adversary_sweep_jobs`].
pub fn run_adversary_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &AdversaryPlan,
    cfg: &DriverConfig,
) -> AdversaryReport {
    run_adversary_sweep_jobs(make_workload, scheme, plan, cfg, 1)
}

/// [`run_adversary_sweep`] with the capture pass fanned out over `jobs`
/// threads (round-robin target chunks, deterministic merge — the report
/// is identical at every job count; `jobs = 1` *is* the sequential
/// exploration).
pub fn run_adversary_sweep_jobs(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &AdversaryPlan,
    cfg: &DriverConfig,
    jobs: usize,
) -> AdversaryReport {
    let pool_cfg = deterministic_pool(cfg, plan.seed);
    let defrag = fault_defrag(scheme);

    // Pass 1: reference run enumerates the site space.
    let summary = {
        let mut w = make_workload();
        let heap =
            DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("adversary ref pool");
        heap.engine().site_tracking_enumerate();
        run_on(&mut *w, cfg, &heap, &mut None);
        heap.engine().site_tracking_stop()
    };

    let targets = choose_targets(summary.total, plan.seed, plan.site_budget);
    let mut report = AdversaryReport {
        total_sites: summary.total,
        targeted: targets.len() as u64,
        ..AdversaryReport::default()
    };

    // Pass 2: capture replays; each captured site's lattice is explored as
    // soon as its op boundary drains it.
    let chunks = split_round_robin(&targets, jobs.max(1));
    let tallies = crate::par::parallel_map(&chunks, jobs.max(1), |_, chunk| {
        adversary_pass(make_workload, chunk.clone(), &pool_cfg, defrag, plan, cfg)
    });
    for tally in tallies {
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
            replay_adversary_subset(
                make_workload,
                scheme,
                f.probe.seed,
                f.probe.site_id,
                f.probe.subset_mask,
                cfg,
            ),
            Some((_, Err(_)))
        );
    }
    report
}

/// Per-chunk tally; merged by summation/max into [`AdversaryReport`].
#[derive(Default)]
struct AdvTally {
    captured: u64,
    images: u64,
    exhaustive_sites: u64,
    empty_lattices: u64,
    truncated_lattices: u64,
    max_maybe: usize,
    failures: Vec<AdversaryFailure>,
}

/// One full capture replay with per-site lattice exploration at every op
/// boundary (captures are drained per op, so memory stays bounded).
fn adversary_pass(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    targets: BTreeSet<u64>,
    pool_cfg: &PoolConfig,
    defrag: DefragConfig,
    plan: &AdversaryPlan,
    cfg: &DriverConfig,
) -> AdvTally {
    let mut tally = AdvTally::default();
    let mut w = make_workload();
    let heap =
        DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("adversary capture pool");
    heap.engine().site_tracking_capture(targets);
    let engine = heap.engine().clone();
    let mut prev_live = LiveKeys::new();
    {
        let mut hook = |op: u64, _heap: &DefragHeap, live: &LiveKeys| {
            let caps = engine.drain_site_captures();
            if !caps.is_empty() {
                let (before, after) = (prev_live.to_btree_set(), live.to_btree_set());
                for cap in &caps {
                    explore_site(
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
        explore_site(
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

/// Explores one site's lattice: materialize each chosen subset, validate
/// it, and shrink the first failure to a minimal counterexample (then stop
/// exploring this site — further masks would mostly restate the same bug).
#[allow(clippy::too_many_arguments)] // internal tally helper
fn explore_site(
    tally: &mut AdvTally,
    cap: &SiteCapture,
    op: u64,
    plan: &AdversaryPlan,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) {
    tally.captured += 1;
    tally.max_maybe = tally.max_maybe.max(cap.maybe.len());
    if cap.maybe.is_empty() {
        tally.empty_lattices += 1;
    }
    let base = adv_window_base();
    let window = cap.maybe.window_at(base);
    if cap.maybe.len() > base + window as usize {
        tally.truncated_lattices += 1;
    }
    let (masks, exhaustive) = choose_masks(window, plan.images_per_site, plan.seed, cap.site.id);
    if exhaustive {
        tally.exhaustive_sites += 1;
    }
    let check = |mask: u64| -> Result<(), String> {
        let image = cap
            .image
            .with_persisted_subset_at(&cap.maybe, mask, base)
            .map_err(|e| e.to_string())?;
        validate_capture(&image, defrag, make_workload, live_before, live_after).map(|_| ())
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
        tally.failures.push(AdversaryFailure {
            probe: ProbeId::new(plan.seed, cap.site.id, min_mask),
            op,
            kind: cap.site.kind.label().to_owned(),
            maybe_len: cap.maybe.len(),
            message,
            minimal,
            reproduced: false,
        });
        return;
    }
}

/// Everything a single-subset isolated replay produced; the pinned
/// adversarial regression tests fingerprint `image` byte-for-byte.
#[derive(Clone, Debug)]
pub struct SubsetReplay {
    /// 1-based op index during which the site fired.
    pub op: u64,
    /// Size of the site's maybe-persisted set.
    pub maybe_len: usize,
    /// The materialized subset image.
    pub image: CrashImage,
    /// Recovery + two-checker validation outcome for that image.
    pub outcome: Result<(), String>,
}

/// Replays one `(seed, site_id, subset_bitmask)` triple from scratch:
/// reruns the workload with capture armed for just `site_id`, materializes
/// the `mask` subset of its maybe-persisted set, and validates recovery
/// from that image. Returns `None` when the site never fires (wrong seed,
/// workload or configuration).
pub fn replay_adversary_subset_full(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site_id: u64,
    mask: u64,
    cfg: &DriverConfig,
) -> Option<SubsetReplay> {
    let defrag = fault_defrag(scheme);
    let run = run_single_site(make_workload, scheme, seed, site_id, cfg)?;
    let base = adv_window_base();
    let image = match run
        .cap
        .image
        .with_persisted_subset_at(&run.cap.maybe, mask, base)
    {
        Ok(image) => image,
        Err(e) => {
            return Some(SubsetReplay {
                op: run.op,
                maybe_len: run.cap.maybe.len(),
                outcome: Err(e.to_string()),
                image: run.cap.image,
            })
        }
    };
    Some(SubsetReplay {
        op: run.op,
        maybe_len: run.cap.maybe.len(),
        outcome: validate_capture(
            &image,
            defrag,
            make_workload,
            &run.live_before,
            &run.live_after,
        )
        .map(|_| ()),
        image,
    })
}

/// [`replay_adversary_subset_full`] reduced to `(op, outcome)`.
pub fn replay_adversary_subset(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site_id: u64,
    mask: u64,
    cfg: &DriverConfig,
) -> Option<(u64, Result<(), String>)> {
    replay_adversary_subset_full(make_workload, scheme, seed, site_id, mask, cfg)
        .map(|r| (r.op, r.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_finds_exact_monotone_culprit() {
        // Oracle: fails iff the mask contains the whole culprit (monotone
        // superset failure). The greedy shrink must land exactly on it.
        let culprit = 0b1010_0100u64;
        let fails = |m: u64| m & culprit == culprit;
        let (shrunk, minimal) = shrink_subset(0xFF, fails, usize::MAX);
        assert_eq!(shrunk, culprit);
        assert!(minimal);
    }

    #[test]
    fn shrink_respects_probe_budget() {
        let fails = |m: u64| m.count_ones() >= 2;
        let (shrunk, minimal) = shrink_subset(u64::MAX, fails, 3);
        assert!(!minimal, "budget exhausted before a clean pass");
        assert!(fails(shrunk), "still a failing subset");
    }

    #[test]
    fn choose_masks_exhaustive_small_window() {
        let (masks, exhaustive) = choose_masks(3, 64, 7, 9);
        assert!(exhaustive);
        assert_eq!(masks.len(), 8);
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct, (0..8u64).collect());
        // Window 0: only the base image.
        assert_eq!(choose_masks(0, 64, 7, 9), (vec![0], true));
    }

    #[test]
    fn choose_masks_sampled_has_corners_first_and_is_deterministic() {
        let (masks, exhaustive) = choose_masks(20, 64, 0xabc, 17);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 64);
        let full = (1u64 << 20) - 1;
        assert_eq!(masks[0], 0, "empty set first");
        assert_eq!(masks[1], full, "full set second");
        assert!(
            (0..20).all(|i| masks.contains(&(1u64 << i))),
            "all singletons present"
        );
        assert!(
            (0..20).all(|i| masks.contains(&(full ^ (1u64 << i)))),
            "all all-but-one masks present"
        );
        assert!(masks.iter().all(|&m| m <= full), "masks stay in-window");
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct.len(), masks.len(), "no duplicates");
        assert_eq!(masks, choose_masks(20, 64, 0xabc, 17).0, "deterministic");
        assert_ne!(
            masks,
            choose_masks(20, 64, 0xabc, 18).0,
            "per-site mask streams differ"
        );
    }

    #[test]
    fn choose_masks_full_64_window() {
        let (masks, exhaustive) = choose_masks(64, 16, 1, 2);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 16);
        assert_eq!(masks[1], u64::MAX);
    }
}
