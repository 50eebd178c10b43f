//! §7.1e — the thread-crash campaign.
//!
//! The whole-machine campaigns in [`crate::faults`] kill *every* thread at
//! once; this one kills K of N mutator threads at sampled durability-event
//! ordinals ([`crate::driver::run_mt_faulted`]) while the survivors keep
//! running — the fault model of the detectable-persistent-object
//! literature, and the one that actually exercises the concurrent mutator
//! paths: orphaned arenas, orphaned counter state and GC-trigger duty
//! all outlive their thread.
//!
//! Discipline mirrors the crash-site sweeps: runs use the seeded turn
//! scheduler plus the engine's single-bank deterministic mode, so each
//! thread's durability-event ordinal stream is a pure function of the run
//! seed and every failure reduces to a replayable
//! `(seed, kill_site, victim)` triple. A *reference run* (empty plan)
//! first measures each thread's event total so kill sites are sampled from
//! the middle of the real range; multi-kill failures shrink to 1-minimal
//! single-kill triples before reporting.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ffccd::{DefragHeap, ProbeId, Scheme};
use ffccd_pmem::MaybeSet;

use crate::campaign::{confirm, deterministic_pool, fault_defrag, Failure, Replay, Report};
use crate::driver::{
    mt_registry, run_mt_faulted_on, DriverConfig, MtSchedule, PhaseMix, ThreadCrashOutcome,
    ThreadFaultPlan, ThreadKill,
};
use crate::workload::Workload;

/// Mutator threads per campaign run (and per replayed kill).
pub const THREADS: usize = 4;

/// The driver configuration every thread-crash run uses: fault-campaign
/// defrag thresholds (cycles actually trigger at test scale), single-bank
/// deterministic engine, seeded turn schedule, tiny §6 mix.
pub fn campaign_config(scheme: Scheme, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.defrag = fault_defrag(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.seed = seed;
    cfg.pool = deterministic_pool(&cfg, seed);
    cfg.pool.data_bytes = 8 << 20;
    cfg.schedule = MtSchedule::Seeded(seed.rotate_left(21) ^ 0x7C4A_55ED);
    cfg
}

/// Runs one faulted run on a fresh heap, catching checker panics as
/// `Err(message)`. The heap comes back so a replay can image it.
fn run_one(
    make: &dyn Fn() -> Box<dyn Workload>,
    cfg: &DriverConfig,
    plan: &ThreadFaultPlan,
) -> (DefragHeap, Result<ThreadCrashOutcome, String>) {
    let (reg, _) = mt_registry(make().registry(), THREADS);
    let heap = DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("thread-crash pool");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_mt_faulted_on(make, THREADS, cfg, &heap, plan)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    });
    (heap, outcome)
}

/// [`crate::campaign::replay`] for a thread-kill probe: the campaign run
/// with that one kill. `None` when the kill never fires.
pub(crate) fn replay_kill(
    make: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    seed: u64,
    kill_site: u64,
    victim: usize,
) -> Option<Replay> {
    let cfg = campaign_config(scheme, seed);
    let (heap, outcome) = run_one(make, &cfg, &ThreadFaultPlan::single(victim, kill_site));
    let kill = match &outcome {
        Ok(out) => Some(*out.victims.first().filter(|v| v.fired)?),
        // The checkers only run (and panic) after the kill fired.
        Err(_) => None,
    };
    Some(Replay {
        op: kill.map_or(0, |v| v.ops_completed),
        maybe: MaybeSet::default(),
        image: heap.engine().crash_image(),
        outcome: outcome.map(|_| ()),
        kill,
    })
}

/// Runs `runs` sampled kill runs of one `(scheme, workload)` §7.1e cell,
/// each killing `kills_per_run` threads (clamped to `THREADS - 1`: at
/// least one survivor must drain, or the run degenerates to a
/// whole-machine crash the other campaigns already cover). `seed` seeds
/// the run, the turn schedule and the site sampling.
///
/// Panics only if the *reference* run (no kills) fails — that is an
/// ordinary mt-driver bug, not a thread-crash finding. Kill-run failures
/// are shrunk to 1-minimal single-kill probes, put in probe order, and the
/// first eight replayed from their probes ([`crate::campaign::replay`]):
/// a failure is `reproduced` when its replay fails again.
pub fn run_thread_crash_campaign(
    make: &(dyn Fn() -> Box<dyn Workload> + Sync),
    scheme: Scheme,
    seed: u64,
    runs: usize,
    kills_per_run: usize,
) -> Report {
    let cfg = campaign_config(scheme, seed);
    let reference = run_one(make, &cfg, &ThreadFaultPlan::default())
        .1
        .unwrap_or_else(|e| {
            let workload = make().name().to_owned();
            panic!("{workload}/{scheme:?}: reference run (no kills) failed: {e}")
        });
    let events = reference.events_per_thread;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1E_5EED);
    let mut report = Report::default();
    for _ in 0..runs {
        let kills = kills_per_run.clamp(1, THREADS - 1);
        let mut pool: Vec<usize> = (0..THREADS).collect();
        let mut plan = ThreadFaultPlan::default();
        for _ in 0..kills {
            let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
            // Sample from the middle of the thread's real event range:
            // the first eighth is mostly setup-adjacent traffic and the
            // last eighth often lands past the victim's final event.
            let total = events[victim].max(8);
            let kill_site = rng.gen_range(total / 8..=total * 7 / 8).max(1);
            plan.kills.push(ThreadKill { victim, kill_site });
        }
        report.runs += 1;
        match run_one(make, &cfg, &plan).1 {
            Ok(out) => {
                for v in &out.victims {
                    if v.fired {
                        report.kills_fired += 1;
                        report.inflight_ops += u64::from(v.inflight.is_some());
                    } else {
                        report.kills_unfired += 1;
                    }
                }
            }
            Err(e) => {
                // Shrink: find the 1-minimal single kills that still
                // fail; fall back to blaming the whole plan if only the
                // combination fails.
                let single = plan.kills.len() == 1;
                let mut culprits: Vec<(ThreadKill, String)> = Vec::new();
                if !single {
                    for k in &plan.kills {
                        let alone = ThreadFaultPlan::single(k.victim, k.kill_site);
                        if let Err(se) = run_one(make, &cfg, &alone).1 {
                            culprits.push((*k, se));
                        }
                    }
                }
                let minimal = single || !culprits.is_empty();
                if culprits.is_empty() {
                    culprits = plan.kills.iter().map(|k| (*k, e.clone())).collect();
                }
                for (k, message) in culprits {
                    report.kills_fired += 1;
                    report.failures.push(Failure {
                        probe: ProbeId::thread_kill(seed, k.kill_site, k.victim),
                        op: 0,
                        kind: "thread-kill",
                        maybe_len: 0,
                        message,
                        minimal,
                        reproduced: false,
                    });
                }
            }
        }
    }
    confirm(&mut report, make, scheme, &cfg);
    report
}
