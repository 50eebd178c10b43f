//! The §7.1 crash-campaign pipeline: what every campaign shares.
//!
//! ```text
//! enumerate → target → capture → explore → oracle → shrink → confirm → replay
//! ```
//!
//! A reference run numbers every durability event as a site
//! (`Run::enumerate`); the campaign picks targets; an identical run
//! captures the crash image and maybe-persisted set right after each one
//! (`Run::capture`); chosen subsets of that set are materialized, judged
//! by recovery plus both validators, and a failing subset shrunk to a
//! 1-minimal one (`Run::explore`, `Run::oracle`); failures are ordered
//! and re-run from scratch (`confirm`); and any failure reruns in
//! isolation from its printed [`ProbeId`] ([`replay`]). DESIGN.md §6.3
//! tabulates the steps.
//!
//! Two campaigns are probe generators over these functions. Machine
//! crashes (§7.1b–d) are one sweep,
//! [`crate::faults::run_crash_site_sweep`]: it explores the one-mask
//! lattice `{0}` (the base image) at every targeted site, on one thread or
//! many, or many masks per site (§7.1c), or repeats enumerate–explore
//! *inside recovery* on each captured image (§7.1d).
//! [`crate::thread_crash::run_thread_crash_campaign`] (§7.1e) kills
//! threads instead of the machine and shares only the report, failure and
//! replay types. The lattice policies, which masks a site explores
//! ([`choose_masks`]) and how a failing one shrinks ([`shrink_subset`]),
//! live here next to [`Run::explore`].
//!
//! Every run here forces the engine's single-bank deterministic mode
//! (`banks = 1`), the fault-campaign defragmentation thresholds and, with
//! more than one thread, the seeded turn schedule, so site IDs and captured
//! images are bit-reproducible from the probe alone whatever the caller's
//! configuration asks for.
//!
//! Capture and validation overlap: the calling thread runs the capture
//! run while one worker thread explores each capture it hands over
//! (`Run::capture_and_validate`). Each capture needs nothing but its own
//! image and key sets, so only host time changes; targets, images,
//! verdicts and reports are those of running the steps in sequence.

use std::collections::BTreeSet;
use std::panic;
use std::sync::{mpsc, Arc};
use std::thread;

use ffccd::{
    recover, validate_heap, DefragConfig, DefragHeap, ProbeId, ProbePhase, RecoveryReport, Scheme,
};
use ffccd_pmem::{
    CrashImage, Ctx, MachineConfig, MaybeSet, PmEngine, SiteCapture, SiteKind, SitePhase,
    SiteSummary,
};
use ffccd_pmop::{PoolConfig, PoolError, TypeRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::driver::{
    mt_registry, run_mt_hooked, DriverConfig, OpHook, OpRecord, PhaseMix, VictimReport,
};
use crate::thread_crash::campaign_config;
use crate::util::LiveKeys;
use crate::workload::{check_slot, Workload};

/// Probe budget for one greedy shrink: popcount ≤ 64 per pass, a handful
/// of passes to fixpoint. Each probe is one image recovery + validation.
const SHRINK_MAX_PROBES: usize = 2048;

/// Captures that may wait for the validating worker. A few ride out one
/// op's burst of sites; each queued image is a copy-on-write snapshot of
/// the pool, so the bound is also what caps the pipeline's memory.
const CAPTURE_QUEUE: usize = 4;

/// One campaign failure with everything needed to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The replayable identity. When `minimal` is set the mask is the
    /// shrunk 1-minimal culprit, not necessarily the one that first failed.
    pub probe: ProbeId,
    /// Operation index (1-based) during which the (outer) site fired; 0
    /// for thread kills.
    pub op: u64,
    /// Event kind label of the site (e.g. `clwb`, `wpq-accept`, `phase`).
    pub kind: &'static str,
    /// Size of the site's maybe-persisted set.
    pub maybe_len: usize,
    /// What the oracle reported for the (shrunk) probe.
    pub message: String,
    /// Whether shrinking confirmed 1-minimality within its probe budget.
    pub minimal: bool,
    /// Whether an isolated replay from scratch reproduced the failure.
    pub reproduced: bool,
}

impl Failure {
    /// The probe as campaigns print it and `replay_site` parses it.
    pub fn triple(&self) -> String {
        self.probe.to_string()
    }
}

/// Counters of one campaign over one `(workload, scheme)` setting. Each
/// campaign fills the groups its steps touch and leaves the rest zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Mutator sites the reference run fired in total.
    pub total_sites: u64,
    /// Per-kind site counts from the reference run.
    pub site_counts: Vec<(SiteKind, u64)>,
    /// Outer (mutator) sites chosen for capture (nested only).
    pub outer_targeted: u64,
    /// Outer sites actually captured (nested only).
    pub outer_captured: u64,
    /// Outer images whose recovery fired at least one durability event.
    pub nested_outer: u64,
    /// Recovery-phase durability events summed over captured outer images.
    pub recovery_sites: u64,
    /// Sites chosen for lattice exploration (recovery sites for nested).
    pub targeted: u64,
    /// Sites actually captured; each contributes a lattice.
    pub captured: u64,
    /// Subset images materialized and run through the oracle.
    pub images: u64,
    /// Sites whose lattice was explored exhaustively.
    pub exhaustive_sites: u64,
    /// Sites with an empty maybe-persisted set (base image only).
    pub empty_lattices: u64,
    /// Sites whose maybe-persisted set extends beyond the explored 64-entry
    /// window.
    pub truncated_lattices: u64,
    /// Largest maybe-persisted set seen (may exceed the window).
    pub max_maybe: usize,
    /// Passing images whose recovery found an in-flight cycle.
    pub mid_cycle: u64,
    /// Objects finished / already durable across passing recoveries.
    pub recovered_objects: u64,
    /// Objects undone (FFCCD not-reached) across passing recoveries.
    pub undone_objects: u64,
    /// Sampled kill runs executed (thread-crash only).
    pub runs: u64,
    /// Kills that actually fired.
    pub kills_fired: u64,
    /// Planned kills that never fired (site past the thread's last event).
    pub kills_unfired: u64,
    /// Victims that died *inside* a structure op (the ambiguous window).
    pub inflight_ops: u64,
    /// Failures (must be empty), shrunk where possible; at most one per
    /// site — a broken site stops exploring after its first failing subset.
    pub failures: Vec<Failure>,
}

/// What [`replay`] produced.
#[derive(Clone, Debug)]
pub struct Replay {
    /// 1-based op index during which the (outer) site fired; for a thread
    /// kill, the ops the victim completed before dying.
    pub op: u64,
    /// The site's maybe-persisted set (empty for a thread kill).
    pub maybe: MaybeSet,
    /// The materialized subset image the oracle judged; the pinned
    /// regression tests fingerprint it byte-for-byte. For a thread kill,
    /// the machine's crash image after the survivors drained.
    pub image: CrashImage,
    /// The oracle's verdict.
    pub outcome: Result<(), String>,
    /// What the kill did (thread-kill probes only).
    pub kill: Option<VictimReport>,
}

/// The geometry every `sec7_1` machine-crash campaign — and therefore
/// every pinned probe — runs at: a 1200/900×3 mix on an 8 MiB pool with
/// cycles triggering from 4 KiB live. `replay_site` and the regression
/// tests call this same function, so a printed probe resolves to the same
/// durability event everywhere.
pub fn sec71_config(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix {
        init: 1200,
        phase_ops: 900,
        phases: 3,
    };
    cfg.pool.data_bytes = 8 << 20;
    cfg.pool.machine.seed = seed;
    cfg.seed = seed;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
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

/// `cfg`'s pool with the machine seeded `seed` and pinned to the engine's
/// single-bank deterministic mode: site IDs and the images captured at
/// them must be byte-reproducible from a probe alone, and the engine
/// itself rejects site tracking on a banked engine.
pub(crate) fn deterministic_pool(cfg: &DriverConfig, seed: u64) -> PoolConfig {
    PoolConfig {
        machine: MachineConfig {
            seed,
            banks: 1,
            ..cfg.pool.machine.clone()
        },
        ..cfg.pool.clone()
    }
}

/// The op a captured site fired during, with what the key-set oracle
/// checks each slot against. Every capture drained at one op boundary
/// shares its `slots`.
#[derive(Clone)]
pub(crate) struct FiringOp {
    /// 1-based op index.
    pub op: u64,
    /// Every slot's live keys after the op (thread `i` owns slot `i`; the
    /// final sets for wind-down sites).
    pub slots: Arc<Vec<BTreeSet<u64>>>,
    /// The turn holder's slot and the op the site fired inside, whose key
    /// the image may hold either side of. `None` for the op's last site,
    /// which saw it complete, and for wind-down sites.
    pub inflight: Option<(usize, OpRecord)>,
}

/// One deterministic run identity: every pipeline step reruns exactly this.
#[derive(Clone, Copy)]
pub(crate) struct Run<'a> {
    /// Called on the validating worker too, hence `Sync`.
    pub make: &'a (dyn Fn() -> Box<dyn Workload> + Sync),
    pub scheme: Scheme,
    /// Machine seed; also salts every selection stream.
    pub seed: u64,
    pub cfg: &'a DriverConfig,
    /// Mutator threads, one workload instance each.
    pub threads: usize,
}

impl Run<'_> {
    /// The workload's registry, plus the multi-threaded driver's root
    /// directory when there is more than one thread.
    pub(crate) fn registry(&self) -> TypeRegistry {
        mt_registry((self.make)().registry(), self.threads).0
    }

    /// Runs the §6 mix once on a fresh heap with `hook` at every op
    /// boundary: `threads` instances, above one under the §7.1e runs'
    /// seeded turn schedule. `track` arms site tracking first.
    fn drive(&self, track: impl FnOnce(&PmEngine), hook: &mut OpHook<'_>) -> DefragHeap {
        let workloads: Vec<Box<dyn Workload>> = (0..self.threads).map(|_| (self.make)()).collect();
        let pool = deterministic_pool(self.cfg, self.seed);
        let registry = mt_registry(workloads[0].registry(), self.threads).0;
        let heap =
            DefragHeap::create(pool, registry, fault_defrag(self.scheme)).expect("campaign pool");
        track(heap.engine());
        let cfg = DriverConfig {
            schedule: campaign_config(self.scheme, self.seed).schedule,
            ..self.cfg.clone()
        };
        run_mt_hooked(self.make, workloads, &cfg, &heap, hook);
        heap
    }

    /// The reference run: counts every durability event (store, clwb,
    /// sfence, WPQ traffic, eviction, GC phase mark) as a deterministic
    /// site.
    pub(crate) fn enumerate(&self) -> SiteSummary {
        let heap = self.drive(PmEngine::site_tracking_enumerate, &mut None);
        heap.engine().site_tracking_stop()
    }

    /// Reruns with capture armed for `targets`, handing every capture to
    /// `on_capture` at the op boundary that drains it (under
    /// [`Run::capture_and_validate`] memory stays bounded by the channel
    /// plus one op), with every slot's key set after that op and the op
    /// itself unless the site is its last ([`FiringOp`]). The hook's
    /// [`OpRecord`]s keep the key sets; a drain shares them, so they are
    /// copied at the next op only while a capture still holds them. Sites
    /// firing during wind-down (`exit()`) see the final key sets and are
    /// labelled with the last boundary's op.
    ///
    /// The run stops at the boundary where it hands over its last target,
    /// or where `on_capture` returns `false` (replays: the shortest
    /// reproducing op prefix; the pipeline: its worker died).
    pub(crate) fn capture(
        &self,
        targets: BTreeSet<u64>,
        on_capture: &mut (dyn FnMut(SiteCapture, FiringOp) -> bool + Send),
    ) {
        let last_target = targets.last().copied();
        let end = (self.cfg.mix.per_thread_ops(self.threads) * self.threads) as u64;
        let mut slots = Arc::new(vec![BTreeSet::new(); self.threads]);
        let mut stopped = false;
        let mut hook = |op: u64, heap: &DefragHeap, tid: usize, _: &LiveKeys, done: OpRecord| {
            let set = &mut Arc::make_mut(&mut slots)[tid];
            if done.insert {
                set.insert(done.key);
            } else {
                set.remove(&done.key);
            }
            let engine = heap.engine();
            let caps = engine.drain_site_captures();
            if caps.is_empty() {
                return true;
            }
            let last = engine.sites_fired() - 1;
            for cap in caps {
                let id = cap.site.id;
                let at = FiringOp {
                    op,
                    slots: Arc::clone(&slots),
                    inflight: (id != last).then_some((tid, done)),
                };
                if !on_capture(cap, at) || Some(id) == last_target {
                    stopped = true;
                    return false;
                }
            }
            true
        };
        let heap = self.drive(|e| e.site_tracking_capture(targets), &mut Some(&mut hook));
        if !stopped {
            let at = FiringOp {
                op: end,
                slots,
                inflight: None,
            };
            for cap in heap.engine().drain_site_captures() {
                if !on_capture(cap, at.clone()) {
                    break;
                }
            }
        }
        heap.engine().site_tracking_stop();
    }

    /// The capture run on the calling thread, with `check` run on each
    /// capture, in capture order, by one scoped worker thread into
    /// `report`, which is returned. Captures wait in a channel of
    /// [`CAPTURE_QUEUE`] entries. A panic in `check` stops the capture run
    /// at its next op boundary and is re-raised here with its original
    /// payload.
    ///
    /// One worker, not a pool: the capture run keeps one core busy, and
    /// `sec7_1 --jobs N` already spreads settings over the others.
    pub(crate) fn capture_and_validate(
        &self,
        targets: BTreeSet<u64>,
        mut report: Report,
        mut check: impl FnMut(&mut Report, &SiteCapture, &FiringOp) + Send,
    ) -> Report {
        let (tx, rx) = mpsc::sync_channel::<(SiteCapture, FiringOp)>(CAPTURE_QUEUE);
        thread::scope(|s| {
            let worker = s.spawn(move || {
                for (cap, at) in rx {
                    check(&mut report, &cap, &at);
                }
                report
            });
            self.capture(targets, &mut |cap, at| tx.send((cap, at)).is_ok());
            drop(tx);
            worker
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    }

    /// Recovers `image` and runs both validators: GC metadata
    /// ([`validate_heap`]) and every slot's key set ([`check_slot`]
    /// through a fresh instance and, with more than one thread, a context
    /// bound to the slot), which must equal the set after the firing op or,
    /// in the turn holder's slot of a site inside the op, the set before
    /// it (a capture can land mid-operation, where the in-progress key is
    /// legitimately half-visible). `idempotent` adds the contract of
    /// recovery-phase probes: a second `recover()` is a byte-identical
    /// no-op.
    pub(crate) fn oracle(
        &self,
        image: &CrashImage,
        at: &FiringOp,
        idempotent: bool,
    ) -> Result<RecoveryReport, String> {
        let mut fresh = (self.make)();
        let registry = mt_registry(fresh.registry(), self.threads).0;
        let defrag = fault_defrag(self.scheme);
        let (heap, rec) = if idempotent {
            let (heap, rerun) =
                DefragHeap::open_recovered_idempotent(image, None, registry, defrag)
                    .map_err(|e| format!("nested recovery failed: {e}"))?;
            if !rerun.is_noop() {
                return Err(format!(
                    "recovery not idempotent: media fingerprint 0x{:x} -> 0x{:x}, rerun had_cycle={}",
                    rerun.fingerprint, rerun.rerun_fingerprint, rerun.rerun.had_cycle
                ));
            }
            (heap, rerun.report)
        } else {
            DefragHeap::open_recovered(image, registry, defrag)
                .map_err(|e| format!("recovery failed: {e}"))?
        };
        validate_heap(&heap).map_err(|es| format!("GC metadata: {}", es.join("; ")))?;
        for (slot, expected) in at.slots.iter().enumerate() {
            if slot > 0 {
                fresh = (self.make)();
            }
            let mut ctx = Ctx::new(heap.pool().machine());
            ctx.set_root_shard((self.threads > 1).then_some(slot as u64));
            fresh.reopen(&heap, &mut ctx);
            let inflight = at.inflight.filter(|&(s, _)| s == slot).map(|(_, op)| op);
            check_slot(&mut *fresh, &heap, &mut ctx, expected, inflight)
                .map_err(|e| format!("slot {slot}: {e}"))?;
        }
        Ok(rec)
    }

    /// Explores one captured site's lattice: materialize up to
    /// `images_per_site` subsets of its maybe-persisted set
    /// ([`choose_masks`]), run each through the oracle, and shrink the
    /// first failure to a 1-minimal subset ([`shrink_subset`]; shrink
    /// probes re-validate images, not runs) — then stop, further masks
    /// would mostly restate the same bug. `probe` identifies the site
    /// (mask 0): its packed `site_id` salts the mask stream and its phase
    /// picks the oracle. Entries beyond the 64-entry mask window are never
    /// persisted; such a site counts as a truncated lattice.
    pub(crate) fn explore(
        &self,
        report: &mut Report,
        cap: &SiteCapture,
        at: &FiringOp,
        images_per_site: u64,
        probe: ProbeId,
    ) {
        report.captured += 1;
        report.max_maybe = report.max_maybe.max(cap.maybe.len());
        if cap.maybe.is_empty() {
            report.empty_lattices += 1;
        }
        let window = cap.maybe.window();
        if cap.maybe.len() > window as usize {
            report.truncated_lattices += 1;
        }
        let (masks, exhaustive) = choose_masks(window, images_per_site, self.seed, probe.site_id);
        if exhaustive {
            report.exhaustive_sites += 1;
        }
        let check = |mask: u64| -> Result<RecoveryReport, String> {
            let image = cap
                .image
                .with_persisted_subset(&cap.maybe, mask)
                .map_err(|e| e.to_string())?;
            self.oracle(&image, at, probe.phase == ProbePhase::Recovery)
        };
        for mask in masks {
            report.images += 1;
            let first_msg = match check(mask) {
                Ok(rec) => {
                    report.mid_cycle += u64::from(rec.had_cycle);
                    report.recovered_objects += rec.finished + rec.already_durable;
                    report.undone_objects += rec.undone;
                    continue;
                }
                Err(msg) => msg,
            };
            let (min_mask, minimal) = shrink_subset(mask, |m| check(m).is_err(), SHRINK_MAX_PROBES);
            let message = if min_mask == mask {
                first_msg
            } else {
                check(min_mask).err().unwrap_or(first_msg)
            };
            report.failures.push(Failure {
                probe: ProbeId {
                    subset_mask: min_mask,
                    ..probe
                },
                op: at.op,
                kind: cap.site.kind.label(),
                maybe_len: cap.maybe.len(),
                message,
                minimal,
                reproduced: false,
            });
            return;
        }
    }
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
fn choose_masks(window: u32, budget: u64, seed: u64, site_id: u64) -> (Vec<u64>, bool) {
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

/// Puts a campaign's failures in probe order and replays the first eight
/// from scratch ([`replay`]), marking each one the replay fails again
/// `reproduced`.
pub(crate) fn confirm(
    report: &mut Report,
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    cfg: &DriverConfig,
) {
    report.failures.sort_by_key(|f| f.probe);
    for f in report.failures.iter_mut().take(8) {
        let rerun = replay(make, scheme, f.probe, cfg);
        f.reproduced = rerun.is_some_and(|r| r.outcome.is_err());
    }
}

/// Runs `recover()` on a restart of `image` with recovery-phase site
/// tracking armed — enumerating when `targets` is `None`, capturing those
/// sites otherwise. The restarted engine carries the image's single-bank
/// deterministic config, so recovery's event sequence is a pure function
/// of the image.
pub(crate) fn track_recovery(
    image: &CrashImage,
    registry: &TypeRegistry,
    scheme: Scheme,
    targets: Option<BTreeSet<u64>>,
) -> (
    Result<RecoveryReport, PoolError>,
    SiteSummary,
    Vec<SiteCapture>,
) {
    let eng = image.restart();
    match targets {
        None => eng.site_tracking_enumerate_phase(SitePhase::Recovery),
        Some(targets) => eng.site_tracking_capture_phase(targets, SitePhase::Recovery),
    }
    let outcome = recover(&eng, registry, scheme);
    let caps = eng.drain_site_captures();
    (outcome, eng.site_tracking_stop(), caps)
}

/// Replays one probe from scratch, exactly as the campaign that printed it
/// ran it: the workload reruns under `cfg` on `probe.threads` threads with
/// capture armed for the probe's (outer) site and stops at the op it fires
/// during; a recovery-phase probe then re-crashes `recover()` on that image
/// at its recovery site; the probe's subset is materialized and judged by
/// the oracle. A thread-kill probe instead reruns the §7.1e run
/// ([`crate::thread_crash::campaign_config`], which ignores `cfg`) with
/// that one kill.
///
/// Returns `None` when a site never fires (wrong seed, workload, scheme or
/// configuration).
pub fn replay(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    probe: ProbeId,
    cfg: &DriverConfig,
) -> Option<Replay> {
    if let ProbePhase::ThreadKill { victim } = probe.phase {
        return crate::thread_crash::replay_kill(make, scheme, probe.seed, probe.site_id, victim);
    }
    let run = Run {
        make,
        scheme,
        seed: probe.seed,
        cfg,
        threads: probe.threads,
    };
    let mut fired = None;
    run.capture(
        [probe.outer_site()].into_iter().collect(),
        &mut |cap, at| {
            fired = Some((cap, at));
            false
        },
    );
    let (mut cap, at) = fired?;
    let nested = probe.phase == ProbePhase::Recovery;
    if nested {
        let targets = [probe.recovery_site()].into_iter().collect();
        let registry = run.registry();
        let (_, _, caps) = track_recovery(&cap.image, &registry, scheme, Some(targets));
        cap = caps.into_iter().next()?;
    }
    let (image, outcome) = match cap
        .image
        .with_persisted_subset(&cap.maybe, probe.subset_mask)
    {
        Ok(image) => {
            let outcome = run.oracle(&image, &at, nested).map(|_| ());
            (image, outcome)
        }
        Err(e) => (cap.image, Err(e.to_string())),
    };
    Some(Replay {
        op: at.op,
        maybe: cap.maybe,
        image,
        outcome,
        kill: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last site before an op's boundary saw the op complete: its
    /// image passes against the post-op key set and fails against the
    /// pre-op one, and `capture` hands the oracle the post-op set alone.
    #[test]
    fn boundary_capture_is_judged_against_the_post_op_set() {
        let make: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(crate::LinkedList::new());
        let (scheme, seed) = (Scheme::FfccdFenceFree, 0xB0DA);
        let mut cfg = sec71_config(scheme, seed);
        cfg.mix = PhaseMix::tiny();
        let run = Run {
            make,
            scheme,
            seed,
            cfg: &cfg,
            threads: 1,
        };
        // Op 100 inserts a key: the sets on either side of it differ.
        let k = 100;
        let (mut last, mut pre, mut post) = (0, BTreeSet::new(), BTreeSet::new());
        let mut hook = |op: u64, heap: &DefragHeap, _: usize, live: &LiveKeys, _: OpRecord| {
            if op == k - 1 {
                pre = live.to_btree_set();
            } else if op == k {
                last = heap.engine().sites_fired() - 1;
                post = live.to_btree_set();
            }
            true
        };
        run.drive(PmEngine::site_tracking_enumerate, &mut Some(&mut hook));
        assert_eq!(post.len(), pre.len() + 1);

        let mut captured = 0;
        run.capture([last].into_iter().collect(), &mut |cap, at| {
            captured += 1;
            assert_eq!(
                (at.op, &*at.slots, at.inflight),
                (k, &vec![post.clone()], None)
            );
            run.oracle(&cap.image, &at, false)
                .expect("the image holds the post-op key set");
            let before_op = FiringOp {
                op: k,
                slots: Arc::new(vec![pre.clone()]),
                inflight: None,
            };
            assert!(
                run.oracle(&cap.image, &before_op, false).is_err(),
                "the completed insert must not pass as the pre-op set"
            );
            false
        });
        assert_eq!(captured, 1);
    }

    /// A capture run that stops where it hands over its last target hands
    /// over exactly what a run going on to a wind-down target does up to
    /// there — same sites, ops, key sets and images — and the wind-down
    /// capture is labelled with the last boundary's op and sees the final
    /// key set with no op in flight.
    #[test]
    fn capture_stopping_at_its_last_target_loses_nothing() {
        let make: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(crate::LinkedList::new());
        let (scheme, seed) = (Scheme::Sfccd, 0x5700);
        let mut cfg = sec71_config(scheme, seed);
        // 1216 ops = 38 × 32: the last op may trigger a cycle, and at this
        // seed one does, so `exit()` winds it down.
        cfg.mix = PhaseMix {
            init: 400,
            phase_ops: 272,
            phases: 3,
        };
        let run = Run {
            make,
            scheme,
            seed,
            cfg: &cfg,
            threads: 1,
        };
        let (mut boundary, mut last_op, mut last_keys) = (0, 0, BTreeSet::new());
        let mut hook = |op: u64, heap: &DefragHeap, _: usize, live: &LiveKeys, _: OpRecord| {
            (boundary, last_op) = (heap.engine().sites_fired(), op);
            last_keys = live.to_btree_set();
            true
        };
        let heap = run.drive(PmEngine::site_tracking_enumerate, &mut Some(&mut hook));
        let summary = heap.engine().site_tracking_stop();
        assert!(
            summary.total > boundary,
            "the run must wind down a cycle in flight"
        );
        let early: BTreeSet<u64> = (1..=8).map(|k| k * boundary / 10).collect();
        let captures = |targets: BTreeSet<u64>| {
            let mut got = Vec::new();
            run.capture(targets, &mut |cap, at| {
                let fp = cap.image.media().fingerprint();
                got.push((cap.site.id, at.op, at.slots, at.inflight, fp));
                true
            });
            got
        };
        let stopped = captures(early.clone());
        let mut to_the_end = captures(early.iter().copied().chain([boundary]).collect());
        let (id, op, slots, inflight, _) = to_the_end.pop().expect("the wind-down capture");
        assert_eq!(stopped.len(), early.len());
        assert_eq!(stopped, to_the_end);
        assert_eq!((id, op), (boundary, last_op));
        assert_eq!(
            last_op,
            (cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) as u64
        );
        assert_eq!((&*slots, inflight), (&vec![last_keys], None));
    }

    /// A threaded image is judged slot by slot: the image at an op's last
    /// site passes against every slot's set, and fails, naming the slot,
    /// once one key is missing from slot 1's.
    #[test]
    fn threaded_oracle_checks_every_slot() {
        let make: &(dyn Fn() -> Box<dyn Workload> + Sync) = &|| Box::new(crate::LinkedList::new());
        let (scheme, seed) = (Scheme::FfccdCheckLookup, 0x2510);
        let mut cfg = sec71_config(scheme, seed);
        cfg.mix = PhaseMix::tiny();
        let run = Run {
            make,
            scheme,
            seed,
            cfg: &cfg,
            threads: 2,
        };
        let mut last = 0;
        let mut hook = |op: u64, heap: &DefragHeap, _: usize, _: &LiveKeys, _: OpRecord| {
            if op == 600 {
                last = heap.engine().sites_fired() - 1;
            }
            true
        };
        run.drive(PmEngine::site_tracking_enumerate, &mut Some(&mut hook));
        let mut captured = 0;
        run.capture([last].into_iter().collect(), &mut |cap, at| {
            captured += 1;
            assert_eq!((at.op, at.slots.len(), at.inflight), (600, 2, None));
            run.oracle(&cap.image, &at, false)
                .expect("every slot holds its post-op set");
            let mut slots = (*at.slots).clone();
            let key = slots[1].pop_first().expect("slot 1 holds keys");
            let lost = FiringOp {
                slots: Arc::new(slots),
                ..at
            };
            let err = run
                .oracle(&cap.image, &lost, false)
                .expect_err("slot 1 holds a key its set lacks");
            assert!(err.starts_with("slot 1: "), "{err}");
            assert!(err.contains(&key.to_string()), "{err}");
            false
        });
        assert_eq!(captured, 1);
    }

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
