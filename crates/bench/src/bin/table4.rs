//! Table 4 — fragmentation effectiveness on concurrent PM data structures
//! and applications: BzTree and FPTree (1 and 4 threads), Echo, pmemkv.
//!
//! The six rows are independent runs (each builds its own pool), so they
//! fan out over `--jobs N` host threads; rows print in fixed order once
//! the fan-out joins, so the output is job-count invariant.

use ffccd::Scheme;
use ffccd_bench::{driver_config, header, jobs, mib, rule};
use ffccd_workloads::driver::{run_mt, DriverConfig, MtSchedule};
use ffccd_workloads::par::parallel_map;
use ffccd_workloads::{BzTree, Echo, FpTree, Pmemkv, Workload};

/// One table row: PMDK-reported MiB, actual live MiB, our footprint MiB,
/// and the fragmentation reduction percentage.
type Row = (f64, f64, f64, f64);

/// One row's recipe: label, workload factory, driver thread count, seed.
type Spec = (&'static str, fn() -> Box<dyn Workload>, usize, u64);

/// Baseline against FFCCD (+checklookup) on `threads` mutators. The
/// seeded turn schedule makes the threaded rows reproducible.
fn row(make: &dyn Fn() -> Box<dyn Workload>, threads: usize, seed: u64) -> Row {
    let run_under = |scheme| {
        let cfg = DriverConfig {
            schedule: MtSchedule::Seeded(seed),
            ..driver_config(scheme, true, seed)
        };
        run_mt(make, threads, &cfg)
    };
    let base = run_under(Scheme::Baseline);
    let ours = run_under(Scheme::FfccdCheckLookup);
    (
        mib(base.avg_footprint),
        mib(base.avg_live),
        mib(ours.avg_footprint),
        ours.fragmentation_reduction_vs(&base),
    )
}

fn main() {
    header("Table 4: Fragmentation effectiveness for applications (2MB pages)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>12}",
        "DS & App.", "PMDK(MB)", "Actual", "Ours", "Reduction%"
    );
    rule(60);
    let specs: [Spec; 6] = [
        ("BzTree", || Box::new(BzTree::new()), 1, 0x7AB41),
        ("BzTree (4T)", || Box::new(BzTree::new()), 4, 0x7AB42),
        ("FPTree", || Box::new(FpTree::new()), 1, 0x7AB43),
        ("FPTree (4T)", || Box::new(FpTree::new()), 4, 0x7AB44),
        ("Echo", || Box::new(Echo::new()), 1, 0x7AB45),
        ("pmemkv", || Box::new(Pmemkv::new()), 1, 0x7AB46),
    ];
    let rows: Vec<(&str, Row)> = parallel_map(&specs, jobs(), |_, &(name, make, threads, seed)| {
        (name, row(&make, threads, seed))
    });
    let mut sums = [0.0f64; 4];
    for (name, (pmdk, actual, ours, red)) in &rows {
        println!("{name:<12} {pmdk:>10.2} {actual:>10.2} {ours:>10.2} {red:>12.1}");
        for (s, v) in sums.iter_mut().zip([*pmdk, *actual, *ours, *red]) {
            *s += v;
        }
    }
    rule(60);
    let n = rows.len() as f64;
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>12.1}",
        "Avg.",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n
    );
    println!("(paper: reductions 36.0/36.5/44.6/44.0/28.2/46.4%, avg 39.3%; Echo's");
    println!(" bucket array pins memory; BzTree's COW+append fragments less)");
}
