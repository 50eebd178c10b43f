//! The metric names and units this benchmark emits. `BENCHMARK.json` at the
//! repo root lists the same names (a test and `run --smoke` hold the two
//! together); the names are fixed so later changes can be compared.

/// `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// What a user of the system sees; measured with tracing off. Every
/// workload produces every one of these, and none is ever 0.
pub const END_TO_END: [Metric; 6] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "ops/s"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_op_p50_cycles", "cycles"),
    ("sim_op_p99_cycles", "cycles"),
    ("frag_ratio_avg", "ratio"),
];

/// Single layers; measured by the traced run and the probes after it.
pub const PER_LAYER: [Metric; 76] = [
    // Window-wide numbers that not every workload can produce, or that
    // are too sensitive to host scheduling to carry a bound (see README).
    ("host_iter_p50_us", "us"),
    ("host_iter_p99_us", "us"),
    ("host_iter_p9999_us", "us"),
    ("sim_op_p9999_cycles", "cycles"),
    ("sim_gc_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    // workloads
    ("workloads.insert_host_ns", "ns"),
    ("workloads.delete_host_ns", "ns"),
    ("workloads.get_host_ns", "ns"),
    ("workloads.insert_sim_cycles", "cycles"),
    ("workloads.delete_sim_cycles", "cycles"),
    ("workloads.get_sim_cycles", "cycles"),
    ("workloads.validate_host_ms", "ms"),
    ("workloads.driver_overhead_host_ns_per_op", "ns"),
    // core: GC
    ("core.trigger_host_ms", "ms"),
    ("core.trigger_count", "count"),
    ("core.step_host_us", "us"),
    ("core.step_count", "count"),
    ("core.exit_host_ms", "ms"),
    ("core.gc_host_share_pct", "%"),
    ("core.mark_sim_cycles", "cycles"),
    ("core.summary_sim_cycles", "cycles"),
    ("core.copy_sim_cycles", "cycles"),
    ("core.check_lookup_sim_cycles", "cycles"),
    ("core.state_sim_cycles", "cycles"),
    ("core.ref_fixup_sim_cycles", "cycles"),
    ("core.sweep_sim_cycles", "cycles"),
    ("core.cycles_completed", "count"),
    ("core.objects_relocated", "count"),
    ("core.frames_released", "count"),
    ("core.barrier_invocations", "count"),
    // core: read barrier (probe)
    ("core.barrier_out_of_cycle_host_ns", "ns"),
    ("core.barrier_in_cycle_host_ns", "ns"),
    ("core.barrier_first_touch_host_ns", "ns"),
    ("core.barrier_in_cycle_sim_cycles", "cycles"),
    ("core.barrier_first_touch_sim_cycles.espresso", "cycles"),
    ("core.barrier_first_touch_sim_cycles.sfccd", "cycles"),
    ("core.barrier_first_touch_sim_cycles.ffccd", "cycles"),
    ("core.barrier_first_touch_sim_cycles.checklookup", "cycles"),
    // core: recovery (probe)
    ("core.recovery_host_ms", "ms"),
    ("core.recovery_sim_cycles", "cycles"),
    ("core.recovery_finished", "count"),
    ("core.recovery_undone", "count"),
    // pmop
    ("pmop.alloc_host_ns", "ns"),
    ("pmop.free_host_ns", "ns"),
    ("pmop.alloc_sim_cycles", "cycles"),
    ("pmop.free_sim_cycles", "cycles"),
    ("pmop.alloc_2t_host_ns", "ns"),
    ("pmop.stats_host_ns", "ns"),
    ("pmop.footprint_peak_mib", "MiB"),
    ("pmop.live_avg_mib", "MiB"),
    ("pmop.alloc_failures", "count"),
    // arch
    ("arch.checklookup_host_ns", "ns"),
    ("arch.checklookup_sim_cycles", "cycles"),
    ("arch.relocate_host_ns", "ns"),
    ("arch.pmft_soft_lookup_host_ns", "ns"),
    ("arch.relocates_per_op", "count"),
    ("arch.checklookups_per_op", "count"),
    ("arch.barrier_fastpath_hit_pct", "%"),
    // pmem
    ("pmem.loads_per_op", "count"),
    ("pmem.stores_per_op", "count"),
    ("pmem.clwbs_per_op", "count"),
    ("pmem.sfences_per_op", "count"),
    ("pmem.cache_hit_pct", "%"),
    ("pmem.tlb_misses_per_kop", "count"),
    ("pmem.wpq_drained_per_kop", "count"),
    ("pmem.media_line_writes_per_op", "count"),
    ("pmem.evictions_per_op", "count"),
    ("pmem.shared_line_reads_pct", "%"),
    ("pmem.host_ns_per_access", "ns"),
    ("pmem.load_hit_host_ns", "ns"),
    ("pmem.load_miss_host_ns", "ns"),
    ("pmem.store_host_ns", "ns"),
    ("pmem.persist_host_ns", "ns"),
    ("pmem.load_hit_2t_host_ns", "ns"),
    ("pmem.crash_image_host_ms", "ms"),
];

/// Workloads that run one mutator on the single-bank engine: their
/// simulated metrics and counts repeat bit for bit.
pub fn is_deterministic(workload: &str) -> bool {
    workload != "driver_mt2"
}

/// Whether a metric is a simulated number or count that must repeat bit
/// for bit on a deterministic workload (`verify-repeat` checks these).
pub fn repeats_exactly(name: &str) -> bool {
    let per_op_count = (name.starts_with("pmem.") || name.starts_with("arch."))
        && (name.ends_with("_per_op") || name.ends_with("_per_kop"));
    name.starts_with("sim_")
        || name.contains("_sim_cycles")
        || per_op_count
        || matches!(
            name,
            "frag_ratio_avg"
                | "core.cycles_completed"
                | "core.objects_relocated"
                | "core.frames_released"
                | "core.barrier_invocations"
        )
}
