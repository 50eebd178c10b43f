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

use ffccd::Scheme;

use crate::driver::{
    run_mt_faulted, DriverConfig, MtConfig, MtSchedule, PhaseMix, ThreadCrashOutcome,
    ThreadFaultPlan, ThreadKill,
};
use crate::faults::{deterministic_pool, fault_defrag};
use crate::workload::Workload;

/// Campaign shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct ThreadCrashSettings {
    /// Mutator threads per run.
    pub threads: usize,
    /// Threads killed per sampled run (clamped to `threads - 1`: at least
    /// one survivor must drain, or the run degenerates to a whole-machine
    /// crash the other campaigns already cover).
    pub kills_per_run: usize,
    /// Sampled kill runs per `(scheme, workload)` cell.
    pub runs: usize,
    /// Seed for the run, the turn schedule, and the site sampling.
    pub seed: u64,
}

impl ThreadCrashSettings {
    /// The full campaign cell: 4 threads, 6 sampled runs, one kill each,
    /// plus 2 double-kill runs' worth via `kills_per_run` handled by the
    /// caller.
    pub fn full(seed: u64) -> Self {
        ThreadCrashSettings {
            threads: 4,
            kills_per_run: 1,
            runs: 6,
            seed,
        }
    }

    /// CI smoke: 2 sampled runs.
    pub fn smoke(seed: u64) -> Self {
        ThreadCrashSettings {
            threads: 4,
            kills_per_run: 1,
            runs: 2,
            seed,
        }
    }
}

/// One failing, fully replayable kill.
#[derive(Clone, Debug)]
pub struct ThreadCrashFailure {
    /// Workload display name.
    pub workload: String,
    /// Scheme the run used.
    pub scheme: Scheme,
    /// Run seed (keys, machine, turn schedule, sampling).
    pub seed: u64,
    /// Thread that was killed.
    pub victim: usize,
    /// Durability-event ordinal the kill fired at.
    pub kill_site: u64,
    /// First checker divergence.
    pub error: String,
}

impl ThreadCrashFailure {
    /// The replay triple, as the campaign output prints it.
    pub fn triple(&self) -> String {
        format!(
            "(seed={:#x}, kill_site={}, victim={}) scheme={:?} workload={}",
            self.seed, self.kill_site, self.victim, self.scheme, self.workload
        )
    }
}

/// Aggregate outcome of one `(scheme, workload)` campaign cell.
#[derive(Clone, Debug, Default)]
pub struct ThreadCrashReport {
    /// Sampled kill runs executed (reference run not counted).
    pub runs: u64,
    /// Kills that actually fired.
    pub kills_fired: u64,
    /// Planned kills that never fired (site past the thread's last event).
    pub kills_unfired: u64,
    /// Victims that died *inside* a structure op (the ambiguous window).
    pub inflight_ops: u64,
    /// Replayable failures (must be empty for the campaign to pass).
    pub failures: Vec<ThreadCrashFailure>,
}

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
    cfg.mt = MtConfig {
        schedule: MtSchedule::Seeded(seed.rotate_left(21) ^ 0x7C4A_55ED),
        counter_flush_every: None,
    };
    cfg
}

/// Runs one faulted run, catching checker panics as `Err(message)`.
fn run_one(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
    plan: &ThreadFaultPlan,
) -> Result<ThreadCrashOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_mt_faulted(make, threads, cfg, plan)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

/// Runs the §7.1e campaign cell for one `(scheme, workload)` pair.
///
/// Panics only if the *reference* run (no kills) fails — that is an
/// ordinary mt-driver bug, not a thread-crash finding. Kill-run failures
/// are shrunk to 1-minimal triples and returned in the report.
pub fn run_thread_crash_campaign(
    make: &dyn Fn() -> Box<dyn Workload>,
    scheme: Scheme,
    settings: &ThreadCrashSettings,
) -> ThreadCrashReport {
    let threads = settings.threads.max(2);
    let cfg = campaign_config(scheme, settings.seed);
    let workload = make().name().to_owned();
    let reference = run_one(make, threads, &cfg, &ThreadFaultPlan::default())
        .unwrap_or_else(|e| panic!("{workload}/{scheme:?}: reference run (no kills) failed: {e}"));
    let events = reference.events_per_thread;

    let mut rng = SmallRng::seed_from_u64(settings.seed ^ 0xD1E_5EED);
    let mut report = ThreadCrashReport::default();
    for _ in 0..settings.runs {
        let kills = settings.kills_per_run.clamp(1, threads - 1);
        let mut pool: Vec<usize> = (0..threads).collect();
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
        match run_one(make, threads, &cfg, &plan) {
            Ok(out) => {
                for v in &out.victims {
                    if v.fired {
                        report.kills_fired += 1;
                        if v.inflight.is_some() {
                            report.inflight_ops += 1;
                        }
                    } else {
                        report.kills_unfired += 1;
                    }
                }
            }
            Err(e) => {
                // Shrink: find the 1-minimal single kills that still
                // fail; fall back to blaming the whole plan if only the
                // combination fails.
                let mut minimal: Vec<(ThreadKill, String)> = Vec::new();
                if plan.kills.len() > 1 {
                    for k in &plan.kills {
                        let single = ThreadFaultPlan::single(k.victim, k.kill_site);
                        if let Err(se) = run_one(make, threads, &cfg, &single) {
                            minimal.push((*k, se));
                        }
                    }
                }
                if minimal.is_empty() {
                    minimal = plan.kills.iter().map(|k| (*k, e.clone())).collect();
                }
                for (k, error) in minimal {
                    report.kills_fired += 1;
                    report.failures.push(ThreadCrashFailure {
                        workload: workload.clone(),
                        scheme,
                        seed: settings.seed,
                        victim: k.victim,
                        kill_site: k.kill_site,
                        error,
                    });
                }
            }
        }
    }
    report
}
