//! Turns rounds into the named metrics of `spec`.
//!
//! Set-up time is the median over a run's rounds. Host throughput is the
//! best round's: a busy neighbour on the build host only ever slows a round
//! down, and across ten runs the best round moved a third less than the
//! median round did (README, "End-to-end metrics"). Latency percentiles pool
//! every round's samples (more samples reach a higher percentile). Simulated
//! numbers and counts are sums over rounds divided by summed ops: every round
//! of a deterministic workload replays the same trace, so they equal any
//! single round's and do not move with the number of rounds a faster or
//! slower host fits into a run.

use ffccd_pmem::ThreadStats;
use std::collections::BTreeMap;

use ffccd::GcStatsSnapshot;
use ffccd_pmem::EngineStats;

use crate::record::{InstanceLog, Kind, Sample};
use crate::spec::Metric;
use crate::trace::{totals_by_name, NameTotals};
use crate::workloads::{Issuer, Round};

/// A metric value, or why this workload cannot produce it.
pub type Reading = Result<f64, &'static str>;

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The order statistic at quantile `q` of sorted samples.
fn quantile(sorted: &[u32], q: f64) -> f64 {
    f64::from(sorted[((sorted.len() - 1) as f64 * q) as usize])
}

/// Fewest samples at which the 99.99th percentile still has ten beyond it.
const P9999_MIN_SAMPLES: usize = 100_000;

fn window_ops(logs: &[InstanceLog]) -> impl Iterator<Item = &Sample> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.kind.is_op())
}

/// Host ns of each loop iteration: from one op's start to the next op's
/// start on the same instance — the op plus whatever its caller did before
/// it could issue the next (the GC pump, the driver's key picking and
/// sampler). On a sweep one iteration is one crash site instead: from the
/// making of the instance that validates the recovered image to the end of
/// its last call.
fn iteration_ns(rounds: &[Round]) -> Vec<u32> {
    let mut out = Vec::new();
    for (round, log) in rounds
        .iter()
        .flat_map(|r| r.logs.iter().map(move |l| (r, l)))
    {
        if round.issuer == Issuer::Sweep {
            let validates = log.samples.iter().any(|s| s.kind == Kind::Validate);
            if let (true, Some(last)) = (validates, log.samples.last()) {
                let end = last.start_ns + u64::from(last.host_ns);
                out.push(u32::try_from(end - log.created_ns).unwrap_or(u32::MAX));
            }
        } else {
            let starts: Vec<u64> = log
                .samples
                .iter()
                .filter(|s| s.kind.is_op())
                .map(|s| s.start_ns)
                .collect();
            out.extend(
                starts
                    .windows(2)
                    .map(|w| u32::try_from(w[1] - w[0]).unwrap_or(u32::MAX)),
            );
        }
    }
    out.sort_unstable();
    out
}

/// One round's iteration-time percentiles in µs: (p50, p99).
pub fn round_iteration_us(round: &Round) -> (f64, f64) {
    let iters = iteration_ns(std::slice::from_ref(round));
    (quantile(&iters, 0.50) / 1e3, quantile(&iters, 0.99) / 1e3)
}

fn sim_op_cycles(rounds: &[Round]) -> Vec<u32> {
    let mut out: Vec<u32> = rounds
        .iter()
        .flat_map(|r| window_ops(r.sim_logs()))
        .map(|s| s.sim_cycles)
        .collect();
    out.sort_unstable();
    out
}

/// `VmHWM` of this process. Recorded with every result but not an
/// end-to-end metric: on `crash_sweep` it swings by a fifth from seed to
/// seed (how many captured images one op happens to hold at once), which no
/// regression bound survives.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `readings` in `spec`'s order; a name nothing measured reads as such.
pub fn in_spec_order(
    spec: &[Metric],
    readings: &[(&'static str, Reading)],
) -> Vec<(&'static str, Reading)> {
    spec.iter()
        .map(|&(name, _)| {
            let found = readings.iter().find(|(n, _)| *n == name);
            (name, found.map_or(Err("nothing measures it"), |(_, r)| *r))
        })
        .collect()
}

/// The end-to-end metrics.
pub fn end_to_end(rounds: &[Round]) -> Vec<(&'static str, Reading)> {
    let sim = sim_op_cycles(rounds);
    let sim_total: f64 = sim.iter().map(|&c| f64::from(c)).sum();
    let (footprint, live) = rounds
        .iter()
        .flat_map(|r| r.sim_logs())
        .fold((0u64, 0u64), |(f, l), log| {
            (f + log.footprint_sum, l + log.live_sum)
        });
    vec![
        (
            "setup_s",
            Ok(median(
                &mut rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
            )),
        ),
        (
            "host_ops_per_s",
            Ok(rounds
                .iter()
                .map(|r| r.attempted as f64 / r.window_s)
                .fold(0.0, f64::max)),
        ),
        ("sim_cycles_per_op", Ok(sim_total / sim.len() as f64)),
        ("sim_op_p50_cycles", Ok(quantile(&sim, 0.50))),
        ("sim_op_p99_cycles", Ok(quantile(&sim, 0.99))),
        ("frag_ratio_avg", Ok(footprint as f64 / live as f64)),
    ]
}

fn stats_delta(log: &InstanceLog) -> ThreadStats {
    let (a, b) = (&log.ctx_stats, &log.ctx_stats_base);
    ThreadStats {
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        stores: a.stores - b.stores,
        loads: a.loads - b.loads,
        clwbs: a.clwbs - b.clwbs,
        sfences: a.sfences - b.sfences,
        wpq_drained: a.wpq_drained - b.wpq_drained,
        tlb_l1_hits: a.tlb_l1_hits - b.tlb_l1_hits,
        tlb_l2_hits: a.tlb_l2_hits - b.tlb_l2_hits,
        tlb_misses: a.tlb_misses - b.tlb_misses,
        relocates: a.relocates - b.relocates,
        checklookups: a.checklookups - b.checklookups,
        shared_line_reads: a.shared_line_reads - b.shared_line_reads,
        barrier_fastpath_hits: a.barrier_fastpath_hits - b.barrier_fastpath_hits,
    }
}

const OPAQUE_LOOP: &str =
    "the driver's own loop makes these calls; they cannot be timed from outside";
const NO_HEAP: &str = "the sweep owns its heaps; their counters are not reachable from outside";
const TOO_FEW: &str = "fewer than 100 000 samples: no ten samples beyond p99.99";

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    // A workload that never makes this kind of call spends nothing on it.
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-layer metrics one workload's traced run measures itself (the
/// probes supply the rest). `rounds` are all the rounds of the run (traced
/// and untraced alternate); spans come from the traced ones.
pub fn per_layer(rounds: &[Round]) -> Vec<(&'static str, Reading)> {
    let issuer = rounds[0].issuer;
    let nrounds = rounds.len() as f64;
    let mut out: Vec<(&'static str, Reading)> = Vec::new();

    // Window-wide numbers.
    let iters = iteration_ns(rounds);
    let sim = sim_op_cycles(rounds);
    let sim_total: f64 = sim.iter().map(|&c| f64::from(c)).sum();
    let p9999 = |sorted: &[u32]| {
        if sorted.len() >= P9999_MIN_SAMPLES {
            Ok(quantile(sorted, 0.9999))
        } else {
            Err(TOO_FEW)
        }
    };
    out.push(("host_iter_p50_us", Ok(quantile(&iters, 0.50) / 1e3)));
    out.push(("host_iter_p99_us", Ok(quantile(&iters, 0.99) / 1e3)));
    out.push(("host_iter_p9999_us", p9999(&iters).map(|ns| ns / 1e3)));
    out.push(("sim_op_p9999_cycles", p9999(&sim)));
    // Per-round mean of a `gc_stats()` counter.
    let gc = |f: fn(&GcStatsSnapshot) -> u64| -> Reading {
        let mut total = 0u64;
        for r in rounds {
            total += f(r
                .gc
                .as_ref()
                .ok_or("the round panicked before reporting GC stats")?);
        }
        Ok(total as f64 / nrounds)
    };
    out.push((
        "sim_gc_overhead_pct",
        gc(|g| g.total_gc_cycles()).map(|per_round| 100.0 * per_round * nrounds / sim_total),
    ));
    let ops_per_s = |traced: bool| {
        let mut v: Vec<f64> = rounds
            .iter()
            .filter(|r| r.spans.is_empty() != traced)
            .map(|r| r.attempted as f64 / r.window_s)
            .collect();
        (!v.is_empty()).then(|| median(&mut v))
    };
    out.push((
        "bench.trace_overhead_pct",
        match (ops_per_s(false), ops_per_s(true)) {
            (Some(off), Some(on)) => Ok(100.0 * (off - on) / off),
            _ => Err("needs one traced and one untraced round"),
        },
    ));

    // workloads: the recorder's samples around `Workload::*`; host time
    // from the window, simulated cycles from the program it runs.
    let window_logs = || rounds.iter().flat_map(|r| &r.logs);
    let sim_logs = || rounds.iter().flat_map(|r| r.sim_logs());
    let samples = |logs: &mut dyn Iterator<Item = &InstanceLog>, kind: Kind| -> Vec<Sample> {
        logs.flat_map(|l| &l.samples)
            .filter(|s| s.kind == kind)
            .copied()
            .collect()
    };
    for (host, sim, kind) in [
        (
            "workloads.insert_host_ns",
            "workloads.insert_sim_cycles",
            Kind::Insert,
        ),
        (
            "workloads.delete_host_ns",
            "workloads.delete_sim_cycles",
            Kind::Delete,
        ),
        (
            "workloads.get_host_ns",
            "workloads.get_sim_cycles",
            Kind::Get,
        ),
    ] {
        let in_window = samples(&mut window_logs(), kind);
        out.push((
            host,
            Ok(mean(in_window.iter().map(|s| f64::from(s.host_ns)))),
        ));
        let in_program = samples(&mut sim_logs(), kind);
        out.push((
            sim,
            Ok(mean(in_program.iter().map(|s| f64::from(s.sim_cycles)))),
        ));
    }
    let validates = samples(&mut window_logs(), Kind::Validate);
    out.push((
        "workloads.validate_host_ms",
        Ok(mean(validates.iter().map(|s| f64::from(s.host_ns))) / 1e6),
    ));

    // core GC: host side from spans around the pump (the benchmark-owned
    // loop only), simulated side and counts from `gc_stats()`.
    let traced: Vec<&Round> = rounds.iter().filter(|r| !r.spans.is_empty()).collect();
    let mut span_totals: BTreeMap<&str, NameTotals> = BTreeMap::new();
    for (name, t) in traced.iter().flat_map(|r| totals_by_name(&r.spans)) {
        let e = span_totals.entry(name).or_default();
        e.calls += t.calls;
        e.total_ns += t.total_ns;
    }
    let span = |name: &str| span_totals.get(name).copied().unwrap_or_default();
    let pump = |value: f64| -> Reading {
        if issuer == Issuer::BenchmarkLoop {
            Ok(value)
        } else {
            Err(OPAQUE_LOOP)
        }
    };
    let mean_ns = |t: NameTotals| t.total_ns as f64 / t.calls.max(1) as f64;
    let ntraced = traced.len().max(1) as f64;
    let (trigger, step) = (span("core.trigger"), span("core.step_compaction"));
    let pump_ns = trigger.total_ns
        + step.total_ns
        + span("core.trigger_check").total_ns
        + span("core.exit").total_ns;
    let traced_window_ns: f64 = traced.iter().map(|r| r.window_s * 1e9).sum();
    out.push(("core.trigger_host_ms", pump(mean_ns(trigger) / 1e6)));
    out.push(("core.trigger_count", pump(trigger.calls as f64 / ntraced)));
    out.push(("core.step_host_us", pump(mean_ns(step) / 1e3)));
    out.push(("core.step_count", pump(step.calls as f64 / ntraced)));
    out.push(("core.exit_host_ms", pump(mean_ns(span("core.exit")) / 1e6)));
    out.push((
        "core.gc_host_share_pct",
        pump(100.0 * pump_ns as f64 / traced_window_ns),
    ));
    out.push(("core.mark_sim_cycles", gc(|g| g.mark_cycles)));
    out.push(("core.summary_sim_cycles", gc(|g| g.summary_cycles)));
    out.push(("core.copy_sim_cycles", gc(|g| g.copy_cycles)));
    out.push((
        "core.check_lookup_sim_cycles",
        gc(|g| g.check_lookup_cycles),
    ));
    out.push(("core.state_sim_cycles", gc(|g| g.state_cycles)));
    out.push(("core.ref_fixup_sim_cycles", gc(|g| g.ref_fixup_cycles)));
    out.push(("core.sweep_sim_cycles", gc(|g| g.sweep_cycles)));
    out.push(("core.cycles_completed", gc(|g| g.cycles_completed)));
    out.push(("core.objects_relocated", gc(|g| g.objects_relocated)));
    out.push(("core.frames_released", gc(|g| g.frames_released)));
    out.push(("core.barrier_invocations", gc(|g| g.barrier_invocations)));

    // pmop occupancy, from the recorder's `PmPool::stats()` samples.
    let frag_samples: u64 = sim_logs().map(|l| l.frag_samples).sum();
    const MIB: f64 = (1u64 << 20) as f64;
    out.push((
        "pmop.footprint_peak_mib",
        Ok(sim_logs().map(|l| l.footprint_peak).max().unwrap_or(0) as f64 / MIB),
    ));
    out.push((
        "pmop.live_avg_mib",
        Ok(sim_logs().map(|l| l.live_sum).sum::<u64>() as f64 / frag_samples as f64 / MIB),
    ));

    // Per-op counts: the app contexts' counters across the window's ops,
    // plus the GC context's where the benchmark owns it.
    let mut st = ThreadStats::default();
    for log in sim_logs() {
        st.merge(&stats_delta(log));
    }
    for gc_ctx in rounds.iter().filter_map(|r| r.gc_ctx_stats.as_ref()) {
        st.merge(gc_ctx);
    }
    let ops = sim.len() as f64;
    let line_reads = (st.cache_hits + st.cache_misses).max(1) as f64;
    out.push(("arch.relocates_per_op", Ok(st.relocates as f64 / ops)));
    out.push(("arch.checklookups_per_op", Ok(st.checklookups as f64 / ops)));
    out.push((
        "arch.barrier_fastpath_hit_pct",
        Ok(100.0 * st.barrier_fastpath_hits as f64 / st.checklookups.max(1) as f64),
    ));
    out.push(("pmem.loads_per_op", Ok(st.loads as f64 / ops)));
    out.push(("pmem.stores_per_op", Ok(st.stores as f64 / ops)));
    out.push(("pmem.clwbs_per_op", Ok(st.clwbs as f64 / ops)));
    out.push(("pmem.sfences_per_op", Ok(st.sfences as f64 / ops)));
    out.push((
        "pmem.cache_hit_pct",
        Ok(100.0 * st.cache_hits as f64 / line_reads),
    ));
    out.push((
        "pmem.tlb_misses_per_kop",
        Ok(1e3 * st.tlb_misses as f64 / ops),
    ));
    out.push((
        "pmem.wpq_drained_per_kop",
        Ok(1e3 * st.wpq_drained as f64 / ops),
    ));
    let engine = |f: fn(&EngineStats) -> u64| -> Reading {
        let mut total = 0u64;
        for r in rounds {
            total += f(r.engine.as_ref().ok_or(NO_HEAP)?);
        }
        Ok(total as f64 / rounds.iter().map(|r| r.attempted).sum::<u64>() as f64)
    };
    out.push((
        "pmem.media_line_writes_per_op",
        engine(|e| e.media_line_writes),
    ));
    out.push(("pmem.evictions_per_op", engine(|e| e.evictions)));
    out.push((
        "pmem.shared_line_reads_pct",
        Ok(100.0 * st.shared_line_reads as f64 / line_reads),
    ));
    out.push((
        "pmem.host_ns_per_access",
        if issuer == Issuer::Sweep {
            // The window is recovery and validation, not the counted ops.
            Err(NO_HEAP)
        } else {
            let window_ns: f64 = rounds.iter().map(|r| r.window_s * 1e9).sum();
            Ok(window_ns / (st.loads + st.stores + st.clwbs + st.sfences).max(1) as f64)
        },
    ));
    out
}
