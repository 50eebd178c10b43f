//! Fault-injection harness (paper §7.1).
//!
//! Two complementary campaigns:
//!
//! * **Op-boundary injection** ([`run_fault_injection`],
//!   [`run_mt_fault_injection`]) — crash images at scheduled operation
//!   indices, the paper's original methodology;
//! * **Crash-site sweep** ([`run_crash_site_sweep`]) — images at
//!   *durability-event granularity*: the engine enumerates every store /
//!   clwb / sfence / WPQ / eviction / GC-phase event as a deterministic
//!   site, and replay runs capture an image right after each chosen site.
//!   This probes the persist-ordering windows inside operations, which op
//!   spacing can never reach. Failing sites shrink to a replayable
//!   `(seed, site_id, op)` triple via [`replay_crash_site`]. The capture
//!   pass fans out across threads ([`run_crash_site_sweep_jobs`]): the
//!   target set splits round-robin into per-job chunks, each replayed
//!   independently from the same seed, so the merged report is identical
//!   at every job count.
//!
//! Sweep and replay runs always force the engine's single-bank
//! deterministic mode (`banks = 1`), because site IDs and captured images
//! must be bit-reproducible from `(seed, site_id)` alone.
//!
//! Every image is restarted, recovered with the scheme's recovery
//! procedure, and validated twice — GC-metadata consistency
//! ([`ffccd::validate_heap`]) and workload topology/key-set consistency
//! ([`crate::Workload::validate`]).

use std::collections::BTreeSet;

use ffccd::{validate_heap, DefragConfig, DefragHeap, RecoveryReport, Scheme};
use ffccd_pmem::{CrashImage, Ctx, MachineConfig};
use ffccd_pmop::PoolConfig;

use crate::driver::{run_on, DriverConfig, OpHook, PhaseMix};
use crate::util::LiveKeys;
use crate::workload::Workload;

/// Outcome of one fault-injection campaign.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Crash images taken.
    pub injections: u64,
    /// Images whose recovery found an in-flight cycle.
    pub mid_cycle: u64,
    /// Objects finished / redone by recovery across all images.
    pub recovered_objects: u64,
    /// Objects undone (FFCCD not-reached) across all images.
    pub undone_objects: u64,
    /// Validation failures (must be zero).
    pub failures: Vec<String>,
}

/// The defragmentation configuration every fault campaign runs under:
/// low thresholds so cycles actually trigger at test scale.
pub(crate) fn fault_defrag(scheme: Scheme) -> DefragConfig {
    DefragConfig {
        min_live_bytes: 1 << 12,
        cooldown_ops: 64,
        ..DefragConfig::normal(scheme)
    }
}

fn seeded_pool(cfg: &DriverConfig, seed: u64) -> PoolConfig {
    PoolConfig {
        machine: MachineConfig {
            seed,
            ..cfg.pool.machine.clone()
        },
        ..cfg.pool.clone()
    }
}

/// Pool config for sweep and replay runs: like [`seeded_pool`] but pinned
/// to the engine's single-bank deterministic mode. Crash-site IDs and the
/// images captured at them must be byte-reproducible from a `(seed,
/// site_id)` pair alone — across processes, job counts, and whatever
/// `banks` the caller's machine config asks for — and the engine itself
/// rejects site tracking on a banked engine.
pub(crate) fn deterministic_pool(cfg: &DriverConfig, seed: u64) -> PoolConfig {
    let mut pool = seeded_pool(cfg, seed);
    pool.machine.banks = 1;
    pool
}

/// Multithreaded fault injection: `threads` application threads plus the
/// concurrent collector run the workload while a sampler thread captures
/// crash images; each image is recovered and checked with the
/// GC-metadata/heap-consistency validator (§7.1's second checker; the
/// key-set oracle is not applicable when threads race the snapshot).
///
/// The sampler gates on a shared *operation counter*, not wall-clock
/// time: captures land at evenly spaced op-progress points, so the same
/// simulated states are probed whether the host is fast, slow, or stalls
/// a thread mid-run.
pub fn run_mt_fault_injection(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    scheme: Scheme,
    seed: u64,
    injections: u64,
    cfg: &DriverConfig,
) -> FaultReport {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let pool_cfg = seeded_pool(cfg, seed);
    let defrag = fault_defrag(scheme);
    // The mt driver stores per-thread roots in a directory object whose
    // type the workload does not know; both creation and every recovery
    // open below must use the extended registry.
    let (reg, _) = crate::driver::mt_registry(make_workload().registry(), threads);
    let heap = DefragHeap::create(pool_cfg, reg, defrag).expect("mt fault pool");
    let done = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));

    // Sampler: one image each time the run crosses another stride of op
    // progress (never at op 0 — an empty heap recovers trivially).
    let sampler = {
        let heap = heap.clone();
        let done = done.clone();
        let progress = progress.clone();
        let total = ((cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) / threads.max(1)
            * threads.max(1)) as u64;
        std::thread::spawn(move || {
            let mut images = Vec::new();
            let stride = (total / (injections + 1)).max(1);
            for k in 1..=injections {
                let target = k * stride;
                while progress.load(Ordering::Acquire) < target {
                    if done.load(Ordering::Acquire) {
                        return images;
                    }
                    std::thread::yield_now();
                }
                images.push(heap.engine().crash_image());
            }
            images
        })
    };
    // Reuse the MT driver for the run itself.
    {
        let mut mt_cfg = cfg.clone();
        mt_cfg.defrag = defrag;
        let _ = crate::driver::run_mt_on(make_workload, threads, &mt_cfg, &heap, Some(progress));
    }
    done.store(true, Ordering::Release);
    let images = sampler.join().expect("sampler");

    let mut report = FaultReport {
        injections: images.len() as u64,
        ..FaultReport::default()
    };
    for (i, image) in images.iter().enumerate() {
        let (reg, _) = crate::driver::mt_registry(make_workload().registry(), threads);
        match DefragHeap::open_recovered(image, reg, defrag) {
            Ok((heap2, rec)) => {
                if rec.had_cycle {
                    report.mid_cycle += 1;
                }
                report.recovered_objects += rec.finished + rec.already_durable;
                report.undone_objects += rec.undone;
                if let Err(es) = validate_heap(&heap2) {
                    report
                        .failures
                        .push(format!("image {i}: GC metadata: {}", es.join("; ")));
                }
            }
            Err(e) => report
                .failures
                .push(format!("image {i}: recovery failed: {e}")),
        }
    }
    report
}

/// Operation indices at which [`run_fault_injection`] captures crash
/// images: evenly spaced across the *post-init* phase window — where the
/// delete/insert churn and the compaction cycles it triggers actually
/// happen — and never at op 0 (an untouched heap recovers trivially). The
/// old scheme strode over the whole run, clustering most images in the
/// monotone init phase. If more injections are requested than the phase
/// window has ops, spacing falls back to the whole run (still skipping
/// op 0).
pub(crate) fn injection_ops(mix: &PhaseMix, injections: u64) -> BTreeSet<u64> {
    let total = (mix.init + mix.phase_ops * mix.phases) as u64;
    let mut ops = BTreeSet::new();
    if total == 0 || injections == 0 {
        return ops;
    }
    let start = (mix.init as u64).min(total - 1);
    let window = total - start;
    if injections <= window {
        for k in 1..=injections {
            ops.insert(start + k * window / injections);
        }
    } else {
        for k in 1..=injections {
            ops.insert((k * total / injections).clamp(1, total));
        }
    }
    ops
}

/// Runs `workload` under `scheme`, capturing `injections` crash images at
/// evenly spaced points of the post-init phase window (see
/// [`injection_ops`]), and validates recovery from each.
///
/// `make_workload` builds a fresh workload instance for validating each
/// image (the persistent structure is rebuilt from the image; volatile
/// state is re-derived via [`Workload::reopen`]).
pub fn run_fault_injection(
    workload: &mut dyn Workload,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    injections: u64,
    cfg: &DriverConfig,
) -> FaultReport {
    let pool_cfg = seeded_pool(cfg, seed);
    let defrag = DefragConfig {
        min_live_bytes: 1 << 12,
        ..DefragConfig::normal(scheme)
    };
    let heap =
        DefragHeap::create(pool_cfg, workload.registry(), defrag).expect("fault-injection pool");

    let targets = injection_ops(&cfg.mix, injections);
    let mut images: Vec<(CrashImage, BTreeSet<u64>)> = Vec::new();
    {
        let mut hook = |op: u64, heap: &DefragHeap, live: &LiveKeys| {
            if targets.contains(&op) && (images.len() as u64) < injections {
                images.push((heap.engine().crash_image(), live.to_btree_set()));
            }
            true
        };
        let mut hook_dyn: OpHook<'_> = Some(&mut hook);
        run_on(workload, cfg, &heap, &mut hook_dyn);
    }

    let mut report = FaultReport {
        injections: images.len() as u64,
        ..FaultReport::default()
    };
    for (i, (image, expected)) in images.iter().enumerate() {
        let mut fresh = make_workload();
        match DefragHeap::open_recovered(image, fresh.registry(), defrag) {
            Ok((heap2, rec)) => {
                if rec.had_cycle {
                    report.mid_cycle += 1;
                }
                report.recovered_objects += rec.finished + rec.already_durable;
                report.undone_objects += rec.undone;
                if let Err(es) = validate_heap(&heap2) {
                    report
                        .failures
                        .push(format!("image {i}: GC metadata: {}", es.join("; ")));
                    continue;
                }
                let mut ctx = Ctx::new(heap2.pool().machine());
                fresh.reopen(&heap2, &mut ctx);
                if let Err(e) = fresh.validate(&heap2, &mut ctx, expected) {
                    report.failures.push(format!("image {i}: {e}"));
                }
            }
            Err(e) => report
                .failures
                .push(format!("image {i}: recovery failed: {e}")),
        }
    }
    report
}

// ---- crash-site sweep ------------------------------------------------------

/// How a crash-site sweep chooses and bounds its work.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    /// Machine seed; also seeds target selection. A failure replays from
    /// this seed plus its site ID alone.
    pub seed: u64,
    /// Maximum sites to capture: exhaustive when the run fires fewer
    /// sites, seeded-random selection across the whole run beyond that.
    pub budget: u64,
    /// Re-run each failing site in isolation (truncated at its op) to
    /// confirm the minimal reproducing triple.
    pub shrink: bool,
}

impl CrashPlan {
    /// A plan with shrinking enabled.
    pub fn new(seed: u64, budget: u64) -> Self {
        CrashPlan {
            seed,
            budget,
            shrink: true,
        }
    }
}

/// One validation failure with everything needed to replay it:
/// rerun the same workload/config with `seed` and capture at `site_id`
/// (see [`replay_crash_site`]); the image fires during operation `op`.
#[derive(Clone, Debug)]
pub struct SiteFailure {
    /// Machine/plan seed of the failing run.
    pub seed: u64,
    /// Deterministic crash-site ID.
    pub site_id: u64,
    /// Operation index (1-based) during which the site fired.
    pub op: u64,
    /// Event kind label (e.g. `clwb`, `wpq-accept`, `phase`).
    pub kind: String,
    /// What the validators reported.
    pub message: String,
    /// Whether an isolated shrink replay reproduced the failure.
    pub reproduced: bool,
}

impl SiteFailure {
    /// The replayable triple, formatted for logs.
    pub fn triple(&self) -> String {
        format!(
            "(seed=0x{:x}, site={}, op={})",
            self.seed, self.site_id, self.op
        )
    }
}

/// Outcome of one crash-site sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Sites the reference run fired in total.
    pub total_sites: u64,
    /// Distinct sites chosen for capture.
    pub targeted: u64,
    /// Images actually captured and validated.
    pub captured: u64,
    /// Images whose recovery found an in-flight cycle.
    pub mid_cycle: u64,
    /// Objects finished / already durable across all recoveries.
    pub recovered_objects: u64,
    /// Objects undone (FFCCD not-reached) across all recoveries.
    pub undone_objects: u64,
    /// Per-kind site counts from the reference run.
    pub site_counts: Vec<(String, u64)>,
    /// Validation failures (must be zero), shrunk where possible.
    pub failures: Vec<SiteFailure>,
}

/// Sweeps crash sites for one workload under one scheme:
///
/// 1. a reference run enumerates every durability-relevant site;
/// 2. targets are chosen — exhaustive under `plan.budget`, seeded-random
///    beyond;
/// 3. one replay run captures an image right after each targeted site and
///    validates it at the next op boundary (images are drained per op, so
///    memory stays bounded by the sites firing within a single op);
/// 4. failures optionally shrink to confirmed `(seed, site_id, op)`
///    triples via isolated, op-truncated replays.
///
/// A capture can land mid-operation, where the in-progress key is
/// legitimately half-visible; validation therefore accepts either the
/// pre-op or the post-op key set (anything else is a real consistency
/// violation).
pub fn run_crash_site_sweep(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &CrashPlan,
    cfg: &DriverConfig,
) -> SweepReport {
    run_crash_site_sweep_jobs(make_workload, scheme, plan, cfg, 1)
}

/// [`run_crash_site_sweep`] with the capture pass fanned out over `jobs`
/// threads.
///
/// The target set is split round-robin into (at most) `jobs` chunks and
/// each chunk runs its *own* full capture replay — every replay starts
/// from the same seed and single-bank deterministic engine, so the sites a
/// chunk captures fire at exactly the IDs and contents the reference run
/// enumerated, independent of what the other chunks are doing. Partial
/// tallies merge by summation and failures are sorted by site ID, so the
/// report is identical for every job count; `jobs = 1` *is* the
/// sequential sweep.
pub fn run_crash_site_sweep_jobs(
    make_workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    plan: &CrashPlan,
    cfg: &DriverConfig,
    jobs: usize,
) -> SweepReport {
    let pool_cfg = deterministic_pool(cfg, plan.seed);
    let defrag = fault_defrag(scheme);

    // Pass 1: reference run enumerates the site space.
    let summary = {
        let mut w = make_workload();
        let heap =
            DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("sweep ref pool");
        heap.engine().site_tracking_enumerate();
        run_on(&mut *w, cfg, &heap, &mut None);
        heap.engine().site_tracking_stop()
    };

    let targets = choose_targets(summary.total, plan.seed, plan.budget);
    let mut report = SweepReport {
        total_sites: summary.total,
        targeted: targets.len() as u64,
        site_counts: summary
            .nonzero()
            .into_iter()
            .map(|(k, n)| (k.label().to_owned(), n))
            .collect(),
        ..SweepReport::default()
    };

    // Pass 2: capture replays, one per target chunk, in parallel.
    let chunks = split_round_robin(&targets, jobs.max(1));
    let tallies = crate::par::parallel_map(&chunks, jobs.max(1), |_, chunk| {
        capture_pass(make_workload, chunk.clone(), &pool_cfg, defrag, plan, cfg)
    });
    for tally in tallies {
        report.captured += tally.captured;
        report.mid_cycle += tally.mid_cycle;
        report.recovered_objects += tally.recovered_objects;
        report.undone_objects += tally.undone_objects;
        report.failures.extend(tally.failures);
    }
    report.failures.sort_by_key(|f| f.site_id);

    // Pass 3: shrink failures to confirmed minimal triples.
    if plan.shrink {
        for i in 0..report.failures.len().min(8) {
            let site_id = report.failures[i].site_id;
            match replay_crash_site(make_workload, scheme, plan.seed, site_id, cfg) {
                Some((op, Err(msg))) => {
                    report.failures[i].op = op;
                    report.failures[i].reproduced = true;
                    report.failures[i].message = msg;
                }
                Some((_, Ok(()))) | None => {
                    report.failures[i].reproduced = false;
                }
            }
        }
    }
    report
}

/// Splits `targets` round-robin into at most `n` non-empty chunks.
pub(crate) fn split_round_robin(targets: &BTreeSet<u64>, n: usize) -> Vec<BTreeSet<u64>> {
    let n = n.clamp(1, targets.len().max(1));
    let mut chunks: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for (i, &t) in targets.iter().enumerate() {
        chunks[i % n].insert(t);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// What one capture pass tallies; merged by summation into [`SweepReport`].
#[derive(Default)]
struct PassTally {
    captured: u64,
    mid_cycle: u64,
    recovered_objects: u64,
    undone_objects: u64,
    failures: Vec<SiteFailure>,
}

/// One full capture replay: identical run with capture armed for
/// `targets`; images are validated at op boundaries (drained per op, so
/// memory stays bounded by the sites firing within a single op).
fn capture_pass(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    targets: BTreeSet<u64>,
    pool_cfg: &PoolConfig,
    defrag: DefragConfig,
    plan: &CrashPlan,
    cfg: &DriverConfig,
) -> PassTally {
    let mut tally = PassTally::default();
    let mut w = make_workload();
    let heap =
        DefragHeap::create(pool_cfg.clone(), w.registry(), defrag).expect("sweep capture pool");
    heap.engine().site_tracking_capture(targets);
    let engine = heap.engine().clone();
    let mut prev_live = LiveKeys::new();
    {
        let mut hook = |op: u64, _heap: &DefragHeap, live: &LiveKeys| {
            let caps = engine.drain_site_captures();
            if !caps.is_empty() {
                let (before, after) = (prev_live.to_btree_set(), live.to_btree_set());
                for cap in &caps {
                    absorb_capture(
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
        absorb_capture(
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

/// Everything a single-site replay produced: the op it fired during, the
/// captured crash image, and the validation outcome. The image is exposed
/// so determinism tests can fingerprint replays byte-for-byte.
#[derive(Clone, Debug)]
pub struct SiteReplay {
    /// 1-based op index during which the site fired.
    pub op: u64,
    /// The crash image captured right after the site's event.
    pub image: CrashImage,
    /// The ambiguous lines at that instant; subsets of them materialize
    /// alternative legal ADR outcomes over `image` without re-running the
    /// workload ([`CrashImage::with_persisted_subset_at`]).
    pub maybe: ffccd_pmem::MaybeSet,
    /// Recovery + two-checker validation outcome.
    pub outcome: Result<(), String>,
}

/// Replays a single crash site: reruns the workload with capture armed for
/// just `site_id`, truncates the run at the operation during which the
/// site fires (the minimal reproducing op prefix), and validates recovery
/// from the captured image.
///
/// Returns `None` when the site never fires (wrong seed or configuration),
/// otherwise the 1-based op index and the validation outcome.
pub fn replay_crash_site(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site_id: u64,
    cfg: &DriverConfig,
) -> Option<(u64, Result<(), String>)> {
    replay_crash_site_full(make_workload, scheme, seed, site_id, cfg).map(|r| (r.op, r.outcome))
}

/// Like [`replay_crash_site`] but also returns the captured [`CrashImage`]
/// (see [`SiteReplay`]); the byte-identical-replay regression tests pin
/// fingerprints of these images.
pub fn replay_crash_site_full(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site_id: u64,
    cfg: &DriverConfig,
) -> Option<SiteReplay> {
    let defrag = fault_defrag(scheme);
    let run = run_single_site(make_workload, scheme, seed, site_id, cfg)?;
    Some(SiteReplay {
        op: run.op,
        outcome: validate_capture(
            &run.cap.image,
            defrag,
            make_workload,
            &run.live_before,
            &run.live_after,
        )
        .map(|_| ()),
        image: run.cap.image,
        maybe: run.cap.maybe,
    })
}

/// What a single-site isolated replay produced, before any validation: the
/// full [`ffccd_pmem::SiteCapture`] (base image + maybe-persisted set) and
/// the key-set oracle bracketing the op it fired during. Shared by the
/// sweep's shrink replays and the adversarial explorer's subset replays.
pub(crate) struct SingleSiteRun {
    /// 1-based op index during which the site fired.
    pub op: u64,
    /// The capture, drained at the first op boundary after the event.
    pub cap: ffccd_pmem::SiteCapture,
    /// Live key set before the firing op.
    pub live_before: BTreeSet<u64>,
    /// Live key set after the firing op (equals `live_before` for sites
    /// firing during wind-down).
    pub live_after: BTreeSet<u64>,
}

/// Reruns the workload with capture armed for just `site_id`, truncating
/// the run at the operation during which the site fires (the minimal
/// reproducing op prefix). Returns `None` when the site never fires.
pub(crate) fn run_single_site(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    site_id: u64,
    cfg: &DriverConfig,
) -> Option<SingleSiteRun> {
    let pool_cfg = deterministic_pool(cfg, seed);
    let defrag = fault_defrag(scheme);
    let mut w = make_workload();
    let heap = DefragHeap::create(pool_cfg, w.registry(), defrag).expect("site replay pool");
    heap.engine()
        .site_tracking_capture([site_id].into_iter().collect());
    let engine = heap.engine().clone();

    let mut outcome: Option<SingleSiteRun> = None;
    let mut prev_live = LiveKeys::new();
    {
        let mut hook = |op: u64, _heap: &DefragHeap, live: &LiveKeys| {
            if let Some(cap) = engine.drain_site_captures().into_iter().next() {
                outcome = Some(SingleSiteRun {
                    op,
                    cap,
                    live_before: prev_live.to_btree_set(),
                    live_after: live.to_btree_set(),
                });
                return false; // shortest reproducing op prefix
            }
            prev_live.clone_from(live);
            true
        };
        let mut hook_dyn: OpHook<'_> = Some(&mut hook);
        run_on(&mut *w, cfg, &heap, &mut hook_dyn);
    }
    // The site may fire during wind-down, after the last op boundary.
    if outcome.is_none() {
        if let Some(cap) = heap.engine().drain_site_captures().into_iter().next() {
            let final_op = (cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) as u64;
            let final_live = prev_live.to_btree_set();
            outcome = Some(SingleSiteRun {
                op: final_op,
                cap,
                live_before: final_live.clone(),
                live_after: final_live,
            });
        }
    }
    heap.engine().site_tracking_stop();
    outcome
}

/// Exhaustive under budget; seeded-random (distinct, whole-run) beyond.
pub(crate) fn choose_targets(total: u64, seed: u64, budget: u64) -> BTreeSet<u64> {
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

#[allow(clippy::too_many_arguments)] // internal tally helper
fn absorb_capture(
    tally: &mut PassTally,
    cap: &ffccd_pmem::SiteCapture,
    op: u64,
    plan: &CrashPlan,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) {
    tally.captured += 1;
    match validate_capture(&cap.image, defrag, make_workload, live_before, live_after) {
        Ok(rec) => {
            if rec.had_cycle {
                tally.mid_cycle += 1;
            }
            tally.recovered_objects += rec.finished + rec.already_durable;
            tally.undone_objects += rec.undone;
        }
        Err(message) => tally.failures.push(SiteFailure {
            seed: plan.seed,
            site_id: cap.site.id,
            op,
            kind: cap.site.kind.label().to_owned(),
            message,
            reproduced: false,
        }),
    }
}

/// Full recovery + two-checker validation of one captured image. Because
/// the image may be mid-operation, the key-set oracle accepts either the
/// pre-op or the post-op set.
pub(crate) fn validate_capture(
    image: &CrashImage,
    defrag: DefragConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    live_before: &BTreeSet<u64>,
    live_after: &BTreeSet<u64>,
) -> Result<RecoveryReport, String> {
    let mut fresh = make_workload();
    let (heap2, rec) = DefragHeap::open_recovered(image, fresh.registry(), defrag)
        .map_err(|e| format!("recovery failed: {e}"))?;
    validate_heap(&heap2).map_err(|es| format!("GC metadata: {}", es.join("; ")))?;
    let mut ctx = Ctx::new(heap2.pool().machine());
    fresh.reopen(&heap2, &mut ctx);
    if fresh.validate(&heap2, &mut ctx, live_after).is_ok() {
        return Ok(rec);
    }
    fresh
        .validate(&heap2, &mut ctx, live_before)
        .map_err(|e| format!("matches neither pre- nor post-op key set: {e}"))?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_ops_skip_init_and_op_zero() {
        let mix = PhaseMix {
            init: 400,
            phase_ops: 300,
            phases: 3,
        };
        let ops = injection_ops(&mix, 12);
        assert_eq!(ops.len(), 12, "distinct, evenly spaced targets");
        assert!(ops.iter().all(|&op| op > 400), "init phase is skipped");
        assert!(ops.iter().all(|&op| op <= 1300));
        assert_eq!(*ops.iter().max().unwrap(), 1300, "window fully covered");
    }

    #[test]
    fn injection_ops_fall_back_when_oversubscribed() {
        let mix = PhaseMix {
            init: 90,
            phase_ops: 2,
            phases: 3,
        };
        let ops = injection_ops(&mix, 64);
        assert!(!ops.is_empty());
        assert!(ops.iter().all(|&op| (1..=96).contains(&op)));
    }

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
