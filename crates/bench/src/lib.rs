//! Shared harness for the per-table / per-figure benchmark binaries.
//!
//! Every binary regenerates one table or figure of the FFCCD paper; see
//! `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded outputs.
//!
//! Scale: the paper runs 5 M-insert initialization with 4 M-op phases on a
//! real machine; the cycle-level simulation runs the same mix divided by
//! [`scale`] (default 500, override with `FFCCD_SCALE=<n>`; smaller n =
//! bigger runs). "2 MB huge pages" are simulated at 64 KiB so page-count
//! effects survive the scale-down (documented in DESIGN.md).

#![warn(missing_docs)]

pub mod arch_sweep;
pub mod campaign;

use ffccd::{DefragConfig, Scheme};
use ffccd_pmem::MachineConfig;
use ffccd_pmop::PoolConfig;
use ffccd_workloads::driver::{run, DriverConfig, PhaseMix, RunResult};
use ffccd_workloads::Workload;

/// Divisor applied to the paper's operation counts (default 500).
pub fn scale() -> usize {
    std::env::var("FFCCD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(500)
}

/// Simulated "huge page" size standing in for 2 MB at evaluation scale.
pub const HUGE_PAGE_SIM: u64 = 64 << 10;

/// Fan-out width for binaries that parallelize independent rows or sweep
/// settings over host threads: `--jobs N` / `--jobs=N` on the command
/// line, else 1 (fully sequential). Every consumer runs rows through
/// `ffccd_workloads::par::parallel_map`, whose results are input-ordered —
/// output is identical at every job count.
pub fn jobs() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--jobs=").and_then(|s| s.parse().ok()) {
            return v;
        }
    }
    1
}

/// Builds the standard driver configuration for a scheme at the current
/// scale. `huge_pages` selects the simulated 2 MB footprint granularity.
pub fn driver_config(scheme: Scheme, huge_pages: bool, seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix::paper_scaled(scale());
    cfg.pool = PoolConfig {
        data_bytes: 64 << 20,
        os_page_size: if huge_pages { HUGE_PAGE_SIM } else { 4096 },
        machine: MachineConfig {
            seed,
            ..MachineConfig::default()
        },
    };
    cfg.seed = seed;
    cfg.defrag = match scheme {
        Scheme::Baseline => DefragConfig::baseline(),
        s => DefragConfig::normal(s),
    };
    cfg.defrag.min_live_bytes = 1 << 14;
    cfg
}

/// Runs one workload under one scheme with the standard configuration.
pub fn run_workload(
    workload: &mut dyn Workload,
    scheme: Scheme,
    huge: bool,
    seed: u64,
) -> RunResult {
    let cfg = driver_config(scheme, huge, seed);
    run(workload, &cfg)
}

/// Constructs each microbenchmark by name (Table 3 rows).
pub fn microbenchmarks() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ffccd_workloads::LinkedList::new()),
        Box::new(ffccd_workloads::AvlTree::new()),
        Box::new(ffccd_workloads::StringSwap::new()),
        Box::new(ffccd_workloads::BplusTree::new()),
        Box::new(ffccd_workloads::RbTree::new()),
    ]
}

/// Constructs each application workload (Table 4 rows, single-threaded).
pub fn applications() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ffccd_workloads::BzTree::new()),
        Box::new(ffccd_workloads::FpTree::new()),
        Box::new(ffccd_workloads::Echo::with_buckets(32768)),
        Box::new(ffccd_workloads::Pmemkv::new()),
    ]
}

/// Mebibytes, two decimals.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints the standard bench header with scale information.
pub fn header(what: &str) {
    rule(72);
    println!("{what}");
    println!(
        "scale: paper ops / {} (set FFCCD_SCALE to change); '2MB' pages simulated at {} KiB",
        scale(),
        HUGE_PAGE_SIM >> 10
    );
    rule(72);
}

/// GC breakdown of a run as percentages over a baseline's app cycles —
/// the y-axis of Figures 5, 14a and 15a.
#[derive(Clone, Copy, Debug)]
pub struct Breakdown {
    /// Marking + sweep + summary (the idempotent phases).
    pub mark_summary_pct: f64,
    /// Object copies including their persist traffic.
    pub copy_pct: f64,
    /// Barrier check + forwarding lookup.
    pub check_lookup_pct: f64,
    /// Moved-state updates including their persist traffic.
    pub state_pct: f64,
    /// Reference fixups.
    pub ref_pct: f64,
    /// Sum of the above.
    pub total_pct: f64,
}

/// Computes the GC-over-application breakdown.
pub fn breakdown(ours: &RunResult, baseline_app_cycles: u64) -> Breakdown {
    let b = baseline_app_cycles.max(1) as f64;
    let pct = |c: u64| c as f64 / b * 100.0;
    let mark = ours.gc.mark_cycles + ours.gc.sweep_cycles + ours.gc.summary_cycles;

    Breakdown {
        mark_summary_pct: pct(mark),
        copy_pct: pct(ours.gc.copy_cycles),
        check_lookup_pct: pct(ours.gc.check_lookup_cycles),
        state_pct: pct(ours.gc.state_cycles),
        ref_pct: pct(ours.gc.ref_fixup_cycles),
        total_pct: pct(mark
            + ours.gc.copy_cycles
            + ours.gc.check_lookup_cycles
            + ours.gc.state_cycles
            + ours.gc.ref_fixup_cycles),
    }
}

/// The four defragmentation schemes of Figures 14/15, in paper order.
pub const FIG_SCHEMES: [Scheme; 4] = [
    Scheme::Espresso,
    Scheme::Sfccd,
    Scheme::FfccdFenceFree,
    Scheme::FfccdCheckLookup,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_positive() {
        assert!(scale() > 0);
    }

    #[test]
    fn microbenchmark_names_match_table3() {
        let names: Vec<&str> = microbenchmarks().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["LL", "AVL", "SS", "BT", "RBT"]);
    }

    #[test]
    fn application_names_match_table4() {
        let names: Vec<&str> = applications().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["BzTree", "FPTree", "Echo", "pmemkv"]);
    }

    #[test]
    fn breakdown_percentages_are_consistent() {
        let mut w = ffccd_workloads::LinkedList::new();
        let mut cfg = driver_config(Scheme::FfccdCheckLookup, false, 3);
        cfg.mix = PhaseMix::tiny();
        cfg.defrag.min_live_bytes = 1 << 12;
        let r = run(&mut w, &cfg);
        let bd = breakdown(&r, r.app_cycles);
        let sum =
            bd.mark_summary_pct + bd.copy_pct + bd.check_lookup_pct + bd.state_pct + bd.ref_pct;
        assert!((sum - bd.total_pct).abs() < 1e-6);
    }
}
