//! Fault-injection harness (paper §7.1).
//!
//! Two complementary campaigns:
//!
//! * **Op-boundary injection** ([`run_fault_injection`],
//!   [`run_mt_fault_injection`]) — crash images at scheduled operation
//!   indices, the paper's original methodology;
//! * **Crash-site sweep** ([`run_crash_site_sweep`], §7.1b) — images at
//!   *durability-event granularity*: the engine enumerates every store /
//!   clwb / sfence / WPQ / eviction / GC-phase event as a deterministic
//!   site, and a replay run captures an image right after each chosen
//!   site. This probes the persist-ordering windows inside operations,
//!   which op spacing can never reach. It is the simplest generator over
//!   the shared [`crate::campaign`] pipeline; a failing site replays from
//!   its printed probe via [`crate::campaign::replay`].
//!
//! Every image is restarted, recovered with the scheme's recovery
//! procedure, and validated twice — GC-metadata consistency
//! ([`ffccd::validate_heap`]) and workload topology/key-set consistency
//! ([`crate::Workload::validate`]).

use std::collections::BTreeSet;

use ffccd::{validate_heap, DefragConfig, DefragHeap, Scheme};
use ffccd_pmem::{CrashImage, Ctx};
use ffccd_pmop::TypeRegistry;

use crate::campaign::{fault_defrag, seeded_pool, Report, Run};
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

impl FaultReport {
    /// Recovers image `i`, tallies its recovery report and runs the
    /// GC-metadata checker; hands the recovered heap back when both passed.
    fn recover(
        &mut self,
        i: usize,
        image: &CrashImage,
        registry: TypeRegistry,
        defrag: DefragConfig,
    ) -> Option<DefragHeap> {
        let (heap, rec) = match DefragHeap::open_recovered(image, registry, defrag) {
            Ok(recovered) => recovered,
            Err(e) => {
                self.failures
                    .push(format!("image {i}: recovery failed: {e}"));
                return None;
            }
        };
        self.mid_cycle += u64::from(rec.had_cycle);
        self.recovered_objects += rec.finished + rec.already_durable;
        self.undone_objects += rec.undone;
        if let Err(es) = validate_heap(&heap) {
            self.failures
                .push(format!("image {i}: GC metadata: {}", es.join("; ")));
            return None;
        }
        Some(heap)
    }
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
        report.recover(i, image, reg, defrag);
    }
    report
}

/// Operation indices at which [`run_fault_injection`] captures crash
/// images: evenly spaced across the *post-init* phase window — where the
/// delete/insert churn and the compaction cycles it triggers actually
/// happen — and never at op 0 (an untouched heap recovers trivially). If
/// more injections are requested than the phase window has ops, spacing
/// falls back to the whole run (still skipping op 0).
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
        if let Some(heap2) = report.recover(i, image, fresh.registry(), defrag) {
            let mut ctx = Ctx::new(heap2.pool().machine());
            fresh.reopen(&heap2, &mut ctx);
            if let Err(e) = fresh.validate(&heap2, &mut ctx, expected) {
                report.failures.push(format!("image {i}: {e}"));
            }
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
}

impl CrashPlan {
    /// A plan capturing up to `budget` sites of the run seeded `seed`.
    pub fn new(seed: u64, budget: u64) -> Self {
        CrashPlan { seed, budget }
    }
}

/// Sweeps crash sites for one workload under one scheme (§7.1b): the
/// [`crate::campaign`] pipeline with the one-mask lattice `{0}` — at every
/// targeted site exactly the base image, in which nothing volatile
/// persisted, is recovered and validated. Targets are exhaustive under
/// `plan.budget`, seeded-random beyond ([`choose_targets`]).
///
/// Runs under the fault-campaign defragmentation thresholds whatever
/// `cfg.defrag` says.
pub fn run_crash_site_sweep(
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    plan: &CrashPlan,
    cfg: &DriverConfig,
) -> Report {
    let run = Run {
        make: make_workload,
        scheme,
        seed: plan.seed,
        cfg,
    };
    run.sweep(plan.budget, 1, 0)
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
