//! The four benchmark workloads. Each function here runs one *round*: a
//! fresh set-up (timed as `setup_s`) followed by one timed window over a
//! fixed, seed-generated amount of work. `run.rs` repeats rounds until the
//! requested measuring time is used and reports medians.
//!
//! Why these four (the one-line versions are in `BENCHMARK.json`):
//!
//! * `kv_churn` — the paper's main scenario (§6 insert/delete phases on
//!   pmemkv with concurrent defragmentation), driven by a benchmark-owned
//!   loop so every call into a layer can carry a span. `core` GC, the
//!   first-touch/in-cycle barrier and `pmop` alloc/free do most of the work.
//! * `kv_read` — lookups only on a populated store: no GC cycle, no
//!   allocator call. A GC or allocator change must predict *no change*
//!   here; an engine read-path or out-of-cycle-barrier change shows here
//!   first.
//! * `driver_mt2` — `driver::run_mt` as shipped with two free-running
//!   mutators on a banked engine: the path every `fig*`/`table*` bin
//!   takes, the only one where bank locks, relocation stripes and arenas
//!   are contended, and — against `kv_churn` — the price of the driver.
//! * `crash_sweep` — `faults::run_crash_site_sweep` over the four schemes:
//!   site tracking, `crash_image`, `core::recovery` and the key-set
//!   oracle, the layers the other three barely touch and the path that
//!   dominates CI wall-clock.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ffccd::{DefragConfig, DefragHeap, GcStatsSnapshot, Scheme};
use ffccd_pmem::{Ctx, EngineStats, MachineConfig, ThreadStats};
use ffccd_pmop::PoolConfig;
use ffccd_workloads::driver::{self, DriverConfig, PhaseMix};
use ffccd_workloads::faults::{run_crash_site_sweep, CrashPlan};
use ffccd_workloads::{Pmemkv, Workload};

use crate::ops::{churn_trace, read_trace, ChurnShape, Op};
use crate::record::{InstanceLog, Recorded, Sink};
use crate::trace::{spans_from_logs, Span, Tracer, ROOT};

pub const NAMES: [&str; 4] = ["kv_churn", "kv_read", "driver_mt2", "crash_sweep"];

/// Objects the GC pump relocates per call and ops between trigger checks:
/// `DriverConfig::gc_batch` and the literal in `driver::run_on`.
const GC_BATCH: usize = 32;
const TRIGGER_EVERY: usize = 32;

/// Work per round. `FULL` is sized so a round's window takes 2–4 s on the
/// 2-core build host: several rounds fit a run, and the live sets stay
/// larger than the 3 MiB simulated cache (see README, "Sizes").
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub churn: ChurnShape,
    pub kv_pool_bytes: u64,
    pub read_keys: usize,
    pub read_gets: usize,
    pub mt_mix: PhaseMix,
    pub sweep_mix: PhaseMix,
    pub sweep_pool_bytes: u64,
    /// Crash sites per scheme.
    pub sweep_budget: u64,
    /// The insert/delete-only mix the recovery and driver-overhead probes
    /// run.
    pub probe_churn: ChurnShape,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        churn: ChurnShape {
            init: 30_000,
            phase_ops: 24_000,
            phases: 3,
            get_pct: 30,
            value_size: 128,
        },
        kv_pool_bytes: 64 << 20,
        read_keys: 50_000,
        read_gets: 600_000,
        mt_mix: PhaseMix {
            init: 30_000,
            phase_ops: 24_000,
            phases: 3,
        },
        sweep_mix: PhaseMix {
            init: 1_500,
            phase_ops: 1_200,
            phases: 3,
        },
        sweep_pool_bytes: 8 << 20,
        sweep_budget: 32,
        probe_churn: ChurnShape {
            init: 5_000,
            phase_ops: 4_000,
            phases: 3,
            get_pct: 0,
            value_size: 128,
        },
    };

    pub const SMOKE: Sizes = Sizes {
        churn: ChurnShape {
            init: 3_000,
            phase_ops: 2_400,
            phases: 3,
            get_pct: 30,
            value_size: 128,
        },
        kv_pool_bytes: 8 << 20,
        read_keys: 3_000,
        read_gets: 30_000,
        mt_mix: PhaseMix {
            init: 3_000,
            phase_ops: 2_400,
            phases: 3,
        },
        sweep_mix: PhaseMix {
            init: 500,
            phase_ops: 400,
            phases: 3,
        },
        sweep_pool_bytes: 4 << 20,
        sweep_budget: 4,
        probe_churn: ChurnShape {
            init: 1_500,
            phase_ops: 1_200,
            phases: 3,
            get_pct: 0,
            value_size: 128,
        },
    };
}

/// Who issues a round's ops, which decides what can be seen from outside.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Issuer {
    /// The benchmark's own loop: every call into a layer can carry a span.
    #[default]
    BenchmarkLoop,
    /// `driver::run_mt_on`: only the `Workload` calls are visible.
    RunMt,
    /// `faults::run_crash_site_sweep`: an op is a crash site, and the heaps
    /// are the sweep's own.
    Sweep,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    pub issuer: Issuer,
    pub setup_s: f64,
    pub window_s: f64,
    /// Ops attempted in the window (crash sites, on `crash_sweep`).
    pub attempted: u64,
    pub failed: u64,
    /// Recorder logs of the window.
    pub logs: Vec<InstanceLog>,
    /// `crash_sweep` only: logs of the uncrashed reference runs made during
    /// set-up, which supply the simulated metrics (see [`Round::sim_logs`]).
    pub reference_logs: Option<Vec<InstanceLog>>,
    /// Raw `Ctx::cycles()` of the app context at window end (set-up
    /// included), where the benchmark owns the context.
    pub app_ctx_cycles: Option<u64>,
    pub gc: Option<GcStatsSnapshot>,
    pub gc_ctx_stats: Option<ThreadStats>,
    pub engine: Option<EngineStats>,
    pub spans: Vec<Span>,
}

impl Round {
    /// The logs whose simulated-cycle samples, fragmentation samples and
    /// context counters describe the program this workload runs.
    pub fn sim_logs(&self) -> &[InstanceLog] {
        self.reference_logs.as_deref().unwrap_or(&self.logs)
    }
}

fn pmemkv() -> Box<dyn Workload> {
    Box::new(Pmemkv::new())
}

/// The default machine (Table 2) seeded with `seed`, with `banks` engine
/// banks: 1 is the deterministic mode.
pub fn machine(seed: u64, banks: usize) -> MachineConfig {
    MachineConfig {
        seed,
        banks,
        ..MachineConfig::default()
    }
}

/// A pool of 4 KiB pages on [`machine`].
pub fn pool(seed: u64, data_bytes: u64, banks: usize) -> PoolConfig {
    PoolConfig {
        data_bytes,
        os_page_size: 4096,
        machine: machine(seed, banks),
    }
}

/// The paper's normal thresholds under `FfccdCheckLookup`, with the
/// min-live floor lowered so cycles trigger at benchmark scale.
pub fn kv_defrag() -> DefragConfig {
    DefragConfig {
        min_live_bytes: 4096,
        ..DefragConfig::normal(Scheme::FfccdCheckLookup)
    }
}

/// Runs one round of `workload`.
pub fn round(workload: &str, seed: u64, sizes: &Sizes, traced: bool) -> Round {
    match workload {
        "kv_churn" => kv_churn(seed, sizes, traced),
        "kv_read" => kv_read(seed, sizes, traced),
        "driver_mt2" => driver_mt2(seed, sizes, traced),
        "crash_sweep" => crash_sweep(seed, sizes, traced),
        other => panic!("unknown workload {other:?} (known: {NAMES:?})"),
    }
}

fn kv_churn(seed: u64, sizes: &Sizes, traced: bool) -> Round {
    let t_setup = Instant::now();
    let trace = churn_trace(seed, sizes.churn);
    kv_round(
        t_setup,
        pool(seed, sizes.kv_pool_bytes, 1),
        kv_defrag(),
        &[],
        trace.ops.iter().copied(),
        &trace.live,
        traced,
    )
}

fn kv_read(seed: u64, sizes: &Sizes, traced: bool) -> Round {
    let t_setup = Instant::now();
    let (populate, lookups) = read_trace(
        seed,
        sizes.read_keys,
        sizes.read_gets,
        80,
        10,
        sizes.churn.value_size,
    );
    kv_round(
        t_setup,
        pool(seed, sizes.kv_pool_bytes, 1),
        kv_defrag(),
        &populate.ops,
        lookups.iter().map(|&key| Op::Get { key }),
        &populate.live,
        traced,
    )
}

/// The benchmark-owned loop's state: one app context issuing ops through
/// the recorder, one GC context lent to the collector between ops.
struct KvLoop {
    heap: DefragHeap,
    w: Recorded,
    app_ctx: Ctx,
    gc_ctx: Ctx,
    iterations: usize,
}

impl KvLoop {
    /// Issues `ops`, pumping the collector after every op exactly as
    /// `driver::run_on` does: `step_compaction` while a cycle is armed,
    /// else a trigger check every 32 ops.
    fn run(&mut self, ops: impl Iterator<Item = Op>, tracer: &mut Tracer) {
        let KvLoop {
            heap,
            w,
            app_ctx,
            gc_ctx,
            iterations,
        } = self;
        for op in ops {
            let i = *iterations as u32;
            let iter_span = tracer.open("iter", ROOT, i);
            let op_span = match op {
                Op::Insert { key, value_size } => {
                    let s = tracer.open("workloads.insert", iter_span, i);
                    w.insert(heap, app_ctx, key, value_size);
                    s
                }
                Op::Delete { key } => {
                    let s = tracer.open("workloads.delete", iter_span, i);
                    w.delete(heap, app_ctx, key);
                    s
                }
                Op::Get { key } => {
                    let s = tracer.open("workloads.get", iter_span, i);
                    w.contains(heap, app_ctx, key);
                    s
                }
            };
            tracer.close(op_span);
            *iterations += 1;
            if heap.in_cycle() {
                let s = tracer.open("core.step_compaction", iter_span, i);
                heap.step_compaction(gc_ctx, GC_BATCH);
                tracer.close(s);
            } else if iterations.is_multiple_of(TRIGGER_EVERY) {
                let s = tracer.open("core.trigger_check", iter_span, i);
                let started = heap.maybe_defrag(gc_ctx);
                tracer.close(s);
                if started && s != ROOT {
                    // Mark + summary ran: a different cost class from the
                    // threshold check that found nothing to do.
                    tracer.spans[s as usize].name = "core.trigger";
                }
            }
            tracer.close(iter_span);
        }
    }
}

/// One round of the benchmark-owned loop: replays `populate` (still
/// set-up), then the timed `window`; `exit` and `flush_stats` close the
/// window as they close `driver::run_on`. The driver-equivalence test
/// holds this loop and `driver::run` together.
pub fn kv_round(
    t_setup: Instant,
    pool_cfg: PoolConfig,
    defrag: DefragConfig,
    populate: &[Op],
    window: impl Iterator<Item = Op>,
    expect_live: &BTreeSet<u64>,
    traced: bool,
) -> Round {
    let sink = Sink::new();
    let w = Recorded::new(pmemkv(), &sink);
    let heap = DefragHeap::create(pool_cfg, w.registry(), defrag).expect("benchmark pool creation");
    let _mutator = heap.register_mutator();
    let mut l = KvLoop {
        app_ctx: heap.ctx(),
        gc_ctx: heap.ctx(),
        heap,
        w,
        iterations: 0,
    };
    l.w.setup(&l.heap, &mut l.app_ctx);
    if !populate.is_empty() {
        l.run(populate.iter().copied(), &mut Tracer::new(&sink, false));
        // Neither a cycle the populate step armed nor its batched barrier
        // counters may spill into the window.
        l.heap.exit(&mut l.gc_ctx);
        l.heap.flush_stats(&mut l.app_ctx);
    }
    l.w.begin_window();
    let mut tracer = Tracer::new(&sink, traced);
    let engine_before = l.heap.engine().stats();
    let gc_before = l.heap.gc_stats();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_window = Instant::now();
    l.run(window, &mut tracer);
    let s = tracer.open("core.exit", ROOT, l.iterations as u32);
    l.heap.exit(&mut l.gc_ctx);
    l.heap.flush_stats(&mut l.app_ctx);
    tracer.close(s);
    let window_s = t_window.elapsed().as_secs_f64();

    let valid = l.w.validate(&l.heap, &mut l.heap.ctx(), expect_live);
    if let Err(e) = &valid {
        eprintln!("end-of-window validation FAILED: {e}");
    }
    let KvLoop {
        heap,
        w,
        app_ctx,
        gc_ctx,
        ..
    } = l;
    drop(w);
    let logs = sink.take();
    Round {
        setup_s,
        window_s,
        attempted: logs[0].samples.iter().filter(|s| s.kind.is_op()).count() as u64,
        failed: logs[0].failed_ops + u64::from(valid.is_err()),
        issuer: Issuer::BenchmarkLoop,
        logs,
        reference_logs: None,
        app_ctx_cycles: Some(app_ctx.cycles()),
        gc: Some(gc_combine(heap.gc_stats(), gc_before, u64::wrapping_sub)),
        gc_ctx_stats: Some(gc_ctx.stats),
        engine: Some(engine_delta(heap.engine().stats(), engine_before)),
        spans: tracer.spans,
    }
}

fn driver_mt2(seed: u64, sizes: &Sizes, traced: bool) -> Round {
    const THREADS: usize = 2;
    let t_setup = Instant::now();
    let sink = Sink::new();
    let make = Recorded::factory(pmemkv, &sink);
    let cfg = DriverConfig {
        defrag: kv_defrag(),
        pool: pool(seed, sizes.kv_pool_bytes, 8),
        mix: sizes.mt_mix,
        seed,
        ..DriverConfig::new(Scheme::FfccdCheckLookup)
    };
    let (reg, _) = driver::mt_registry(pmemkv().registry(), THREADS);
    let heap =
        DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("benchmark pool creation");

    // `run_mt_on` whole: the root directory and per-thread workload set-up,
    // the op loop with its own key picking and sampler, wind-down, and the
    // per-shard op-log oracle, which panics on any divergence.
    let result = catch_unwind(AssertUnwindSafe(|| {
        driver::run_mt_on(&make, THREADS, &cfg, &heap, None)
    }));
    let total_s = t_setup.elapsed().as_secs_f64();

    // Set-up ends where the recorder saw the first op start; the sink's
    // clock started with `t_setup`.
    let logs = sink.take();
    let first_op_ns = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.kind.is_op())
        .map(|s| s.start_ns)
        .min();
    let setup_s = first_op_ns.map_or(total_s, |ns| ns as f64 / 1e9);
    let window_s = total_s - setup_s;
    let planned = ((cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) / THREADS * THREADS) as u64;
    let (attempted, failed, gc) = match &result {
        Ok(r) => (
            r.ops,
            logs.iter().map(|l| l.failed_ops + l.validate_errors).sum(),
            Some(r.gc),
        ),
        // The oracle (or the structure) panicked: nothing this round
        // produced can be trusted.
        Err(_) => (planned, planned, None),
    };
    Round {
        setup_s,
        window_s,
        attempted,
        failed,
        spans: if traced {
            spans_from_logs(&logs)
        } else {
            Vec::new()
        },
        issuer: Issuer::RunMt,
        logs,
        gc,
        engine: Some(heap.engine().stats()),
        ..Round::default()
    }
}

/// The configuration `faults::run_crash_site_sweep` runs each scheme
/// under (`faults::fault_defrag`, which is crate-private): low thresholds
/// so cycles trigger at sweep scale.
fn sweep_defrag(scheme: Scheme) -> DefragConfig {
    DefragConfig {
        min_live_bytes: 1 << 12,
        cooldown_ops: 64,
        ..DefragConfig::normal(scheme)
    }
}

fn crash_sweep(seed: u64, sizes: &Sizes, traced: bool) -> Round {
    let t_setup = Instant::now();
    let cfg_for = |scheme| DriverConfig {
        pool: pool(seed, sizes.sweep_pool_bytes, 1),
        mix: sizes.sweep_mix,
        seed,
        ..DriverConfig::new(scheme)
    };
    // Set-up: one uncrashed `driver::run` per scheme, under the sweep's own
    // configuration. The sweep reports no simulated numbers; these
    // reference runs are where this workload's simulated metrics come from
    // (the program being crashed).
    let reference = Sink::new();
    let mut reference_gc = GcStatsSnapshot::default();
    for scheme in Scheme::DEFRAG_SCHEMES {
        let mut w = Recorded::new(pmemkv(), &reference);
        let r = driver::run(
            &mut w,
            &DriverConfig {
                defrag: sweep_defrag(scheme),
                ..cfg_for(scheme)
            },
        );
        reference_gc = gc_combine(reference_gc, r.gc, u64::wrapping_add);
    }
    let reference_logs = reference.take();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let sink = Sink::new();
    let make = Recorded::factory(pmemkv, &sink);
    let mut attempted = 0;
    let mut failed = 0;
    let t_window = Instant::now();
    for scheme in Scheme::DEFRAG_SCHEMES {
        let plan = CrashPlan::new(seed, sizes.sweep_budget);
        let report = run_crash_site_sweep(&make, scheme, &plan, &cfg_for(scheme));
        for f in &report.failures {
            eprintln!("crash_sweep {scheme}: FAILED {}: {}", f.triple(), f.message);
        }
        attempted += report.targeted;
        failed += report.targeted - report.captured + report.failures.len() as u64;
    }
    let window_s = t_window.elapsed().as_secs_f64();

    let logs = sink.take();
    failed += reference_logs.iter().map(|l| l.failed_ops).sum::<u64>();
    Round {
        setup_s,
        window_s,
        attempted,
        failed,
        spans: if traced {
            spans_from_logs(&logs)
        } else {
            Vec::new()
        },
        issuer: Issuer::Sweep,
        logs,
        reference_logs: Some(reference_logs),
        gc: Some(reference_gc),
        ..Round::default()
    }
}

fn engine_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        media_line_writes: after.media_line_writes - before.media_line_writes,
        evictions: after.evictions - before.evictions,
        pending_lines_queued: after.pending_lines_queued - before.pending_lines_queued,
        pending_lines_persisted: after.pending_lines_persisted - before.pending_lines_persisted,
    }
}

fn gc_combine(a: GcStatsSnapshot, b: GcStatsSnapshot, f: fn(u64, u64) -> u64) -> GcStatsSnapshot {
    GcStatsSnapshot {
        mark_cycles: f(a.mark_cycles, b.mark_cycles),
        summary_cycles: f(a.summary_cycles, b.summary_cycles),
        copy_cycles: f(a.copy_cycles, b.copy_cycles),
        check_lookup_cycles: f(a.check_lookup_cycles, b.check_lookup_cycles),
        state_cycles: f(a.state_cycles, b.state_cycles),
        ref_fixup_cycles: f(a.ref_fixup_cycles, b.ref_fixup_cycles),
        sweep_cycles: f(a.sweep_cycles, b.sweep_cycles),
        recovery_cycles: f(a.recovery_cycles, b.recovery_cycles),
        barrier_invocations: f(a.barrier_invocations, b.barrier_invocations),
        objects_relocated: f(a.objects_relocated, b.objects_relocated),
        cycles_completed: f(a.cycles_completed, b.cycles_completed),
        frames_released: f(a.frames_released, b.frames_released),
        objects_swept: f(a.objects_swept, b.objects_swept),
    }
}
