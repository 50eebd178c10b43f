//! Fault-injection tour: crash an AVL tree mid-compaction under every
//! scheme and watch each recovery discipline do its thing.
//!
//! Run with: `cargo run --release --example crash_recovery`

use ffccd::Scheme;
use ffccd_pmem::MachineConfig;
use ffccd_pmop::PoolConfig;
use ffccd_workloads::driver::{DriverConfig, PhaseMix};
use ffccd_workloads::faults::{run_crash_site_sweep, CrashPlan};
use ffccd_workloads::AvlTree;

fn main() {
    println!("Injecting crashes into an AVL tree under each crash-consistent scheme.");
    println!("Each crash image is restarted, recovered, and validated twice:");
    println!("GC metadata consistency + tree topology/key-set consistency (§7.1).\n");
    for scheme in [
        Scheme::Espresso,
        Scheme::Sfccd,
        Scheme::FfccdFenceFree,
        Scheme::FfccdCheckLookup,
    ] {
        let mut cfg = DriverConfig::new(scheme);
        cfg.mix = PhaseMix {
            init: 800,
            phase_ops: 600,
            phases: 3,
        };
        cfg.pool = PoolConfig {
            data_bytes: 16 << 20,
            os_page_size: 4096,
            machine: MachineConfig::default(),
        };
        let plan = CrashPlan::new(0xC4A5, 8);
        let report = run_crash_site_sweep(&|| Box::new(AvlTree::new()), scheme, &plan, &cfg);
        println!(
            "{:<22} {} crash sites, {} mid-cycle, {} objects finished by recovery, \
             {} undone, {}",
            scheme.label(),
            report.captured,
            report.mid_cycle,
            report.recovered_objects,
            report.undone_objects,
            if report.failures.is_empty() {
                "ALL CONSISTENT".to_owned()
            } else {
                format!("{} FAILURES: {:?}", report.failures.len(), report.failures)
            }
        );
        assert!(report.failures.is_empty());
    }
    println!("\nNote the scheme signatures: Espresso never needs undo (two fences);");
    println!("SFCCD re-copies mismatched objects (one fence); the FFCCD schemes are");
    println!("the only ones that *undo* relocations — objects whose copies never");
    println!("reached the persistence domain (the reached bitmap proves it).");
}
