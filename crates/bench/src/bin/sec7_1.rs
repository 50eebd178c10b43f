//! §7.1 — crash-consistency fault-injection campaigns.
//!
//! With no flag, runs the §7.1b crash-site sweep — the paper's nine
//! workloads under each crash-consistent scheme, and the concurrent trees
//! at 2/4/8 threads — which captures images right after individual
//! durability events (stores, clwb, sfence, WPQ traffic, evictions, GC
//! phase transitions) anywhere in the run, inside operations included (the
//! paper executes one thousand injections across 26 settings). One flag
//! selects one of the deeper campaigns:
//!
//! * `--adversary` (§7.1c) — at each targeted site, *maybe-persisted
//!   subsets*: every combination of dirty-cache and in-flight lines is a
//!   legal ADR durability outcome;
//! * `--nested` (§7.1d) — crashes *inside recovery*: each nested image
//!   must recover, validate, and satisfy the idempotence contract (a
//!   second `recover()` is a byte-identical no-op);
//! * `--thread-crash` (§7.1e) — K of N mutator *threads* die at sampled
//!   durability-event ordinals while the survivors drain.
//!
//! The sweep, `--adversary` and `--nested` are one function,
//! `run_crash_site_sweep`, under three `CrashPlan`s.
//!
//! `--smoke` selects the CI geometry; `--jobs N` fans the settings of a
//! campaign out over threads. Each campaign's full and smoke budgets are
//! constants of its spec, and nothing is read from the environment. Every
//! machine-crash campaign pins the engine to its single-bank deterministic
//! mode and rows print in fixed setting order after the fan-out joins, so
//! tables are identical at every job count.
//!
//! Every image is recovered and validated with both checkers
//! (program-data and GC-metadata consistency). A failing row prints its
//! 1-minimal probes, each ending in the `replay_site` command that reruns
//! exactly that failure.

use ffccd::Scheme;
use ffccd_bench::campaign::{campaign_workload, scheme_key, sec71_config, Factory};
use ffccd_bench::{header, jobs, rule, FIG_SCHEMES};
use ffccd_workloads::campaign::Report;
use ffccd_workloads::faults::{run_crash_site_sweep, CrashPlan};
use ffccd_workloads::par::parallel_map;
use ffccd_workloads::thread_crash::run_thread_crash_campaign;

/// One table row to compute: a workload under a scheme at a seed.
struct Setting {
    label: String,
    /// The workload's name without the thread count, as `replay_site`
    /// takes it.
    workload: &'static str,
    make: Factory,
    scheme: Scheme,
    seed: u64,
    /// Mutator threads of a sweep row (1: the single-thread driver).
    threads: usize,
}

/// One computed table row.
struct Row {
    cells: Vec<u64>,
    ok: bool,
    failures: Vec<String>,
    /// Lattices wider than the explored subset window (§7.1c/d).
    truncated: u64,
}

/// One campaign as data: what to run and how to print it.
struct CampaignSpec {
    title: &'static str,
    /// Prefix of the summary lines.
    tag: &'static str,
    /// `(header, width)` of the numeric columns between scheme and result.
    columns: &'static [(&'static str, usize)],
    rule: usize,
    settings: Vec<Setting>,
    /// Computes one row at the spec's budgets.
    run: Box<dyn Fn(&Setting) -> Row + Sync>,
    /// The budgets the summary line reports, e.g. `", budget 64"`.
    geometry: String,
    pass_note: &'static str,
    fail_note: &'static str,
}

impl Setting {
    fn new(workload: &'static str, scheme: Scheme, seed: u64, threads: usize) -> Setting {
        Setting {
            label: match threads {
                1 => workload.to_owned(),
                t => format!("{workload} {t}T"),
            },
            workload,
            make: campaign_workload(workload).expect("campaign workload"),
            scheme,
            seed,
            threads,
        }
    }
}

/// `workloads × FIG_SCHEMES`, seeded `seed_base + 17·workload + scheme`.
fn grid(workloads: &[&'static str], seed_base: u64) -> Vec<Setting> {
    let mut settings = Vec::new();
    for (wi, &name) in workloads.iter().enumerate() {
        for (si, &scheme) in FIG_SCHEMES.iter().enumerate() {
            let seed = seed_base + wi as u64 * 17 + si as u64;
            settings.push(Setting::new(name, scheme, seed, 1));
        }
    }
    settings
}

impl Row {
    /// Every campaign's row: failures print as replayable probes.
    fn of(s: &Setting, report: &Report, ok: bool, cells: Vec<u64>) -> Row {
        let failures = report.failures.iter().map(|f| {
            format!(
                "{} during {} (op {}, maybe {}): {}{}{}; replay: replay_site {} {} '{}'",
                f.probe,
                f.kind,
                f.op,
                f.maybe_len,
                f.message,
                if f.minimal { " [1-minimal]" } else { "" },
                if f.reproduced { " [reproduced]" } else { "" },
                s.workload,
                scheme_key(s.scheme),
                f.probe,
            )
        });
        Row {
            cells,
            ok,
            failures: failures.collect(),
            truncated: 0,
        }
    }
}

/// The paper's nine single-thread workloads × the four schemes, then the
/// concurrent trees under FFCCD at 2/4/8 threads; 64 sites per setting
/// (smoke: 4).
fn sweep_spec(smoke: bool) -> CampaignSpec {
    let budget = if smoke { 4 } else { 64 };
    let single = [
        "LL", "AVL", "pmemkv", "SS", "BT", "RBT", "BzTree", "FPTree", "Echo",
    ];
    let mut settings = grid(&single, 0x517e00);
    for (wi, name) in ["BzTree", "FPTree"].into_iter().enumerate() {
        for (ti, threads) in [2, 4, 8].into_iter().enumerate() {
            let seed = 0x517f00 + wi as u64 * 17 + ti as u64;
            settings.push(Setting::new(name, Scheme::FfccdCheckLookup, seed, threads));
        }
    }
    CampaignSpec {
        title: "Section 7.1b: crash-site sweep (durability-event granularity)",
        tag: "sweep",
        columns: &[
            ("sites", 10),
            ("targeted", 9),
            ("captured", 9),
            ("mid-cycle", 10),
        ],
        rule: 82,
        settings,
        run: Box::new(move |s| {
            let cfg = sec71_config(s.scheme, s.seed);
            let plan = CrashPlan {
                threads: s.threads,
                ..CrashPlan::new(s.seed, budget)
            };
            let r = run_crash_site_sweep(&*s.make, s.scheme, &plan, &cfg);
            // The site space must be rich enough for a meaningful sweep,
            // every targeted site must fire on replay, and every image
            // must validate.
            let ok = r.failures.is_empty()
                && r.captured == r.targeted
                && (budget < 50 || r.targeted >= 50);
            let cells = vec![r.total_sites, r.targeted, r.captured, r.mid_cycle];
            Row::of(s, &r, ok, cells)
        }),
        geometry: format!(", budget {budget}"),
        pass_note: " (paper: both GC schemes passed all tests)",
        fail_note: "",
    }
}

/// LL/AVL/pmemkv × the four schemes; 8 sites x 64 subset images per
/// setting (smoke: 4 x 32).
fn adversary_spec(smoke: bool) -> CampaignSpec {
    let (sites, images) = if smoke { (4, 32) } else { (8, 64) };
    CampaignSpec {
        title: "Section 7.1c: adversarial persistence exploration (maybe-persisted subsets)",
        tag: "adversary",
        columns: &[
            ("sites", 10),
            ("capt", 6),
            ("images", 8),
            ("exhaust", 7),
            ("empty", 6),
            ("max-maybe", 9),
        ],
        rule: 92,
        settings: grid(&["LL", "AVL", "pmemkv"], 0xadfe00),
        run: Box::new(move |s| {
            let cfg = sec71_config(s.scheme, s.seed);
            let plan = CrashPlan {
                images_per_site: images,
                ..CrashPlan::new(s.seed, sites)
            };
            let r = run_crash_site_sweep(&*s.make, s.scheme, &plan, &cfg);
            // Every targeted site must fire on replay, each contributes at
            // least its base image, and every subset must recover — or the
            // failure must shrink to a replayable minimal triple (still
            // FAIL, but actionable).
            let ok = r.failures.is_empty() && r.captured == r.targeted && r.images >= r.captured;
            let cells = vec![
                r.total_sites,
                r.captured,
                r.images,
                r.exhaustive_sites,
                r.empty_lattices,
                r.max_maybe as u64,
            ];
            Row {
                truncated: r.truncated_lattices,
                ..Row::of(s, &r, ok, cells)
            }
        }),
        geometry: format!(", {sites} sites x {images} images"),
        pass_note: " (every explored durability outcome recovers)",
        fail_note: " (triples above replay the minimal subsets)",
    }
}

/// LL/AVL/pmemkv × the four schemes; 16 outer images x 8 recovery sites
/// x 64 subset images per setting (smoke: 6 x 3 x 16).
fn nested_spec(smoke: bool) -> CampaignSpec {
    let (outer, sites, images) = if smoke { (6, 3, 16) } else { (16, 8, 64) };
    CampaignSpec {
        title: "Section 7.1d: nested-crash exploration (crashes inside recovery)",
        tag: "nested",
        columns: &[
            ("outer", 6),
            ("nested", 7),
            ("rec-site", 8),
            ("capt", 6),
            ("images", 8),
            ("exhaust", 7),
            ("empty", 6),
            ("trunc", 6),
        ],
        rule: 102,
        settings: grid(&["LL", "AVL", "pmemkv"], 0x9e57ed),
        run: Box::new(move |s| {
            let cfg = sec71_config(s.scheme, s.seed);
            let plan = CrashPlan {
                images_per_site: images,
                recovery_sites: sites,
                ..CrashPlan::new(s.seed, outer)
            };
            let r = run_crash_site_sweep(&*s.make, s.scheme, &plan, &cfg);
            // Every targeted outer site must fire on replay, at least one
            // outer image must yield a non-quiescent recovery (else the
            // campaign explored nothing), and every nested image must pass
            // the idempotent-recovery oracle.
            let ok = r.failures.is_empty()
                && r.outer_captured == r.outer_targeted
                && r.nested_outer > 0
                && r.images >= r.captured;
            let cells = vec![
                r.outer_captured,
                r.nested_outer,
                r.recovery_sites,
                r.captured,
                r.images,
                r.exhaustive_sites,
                r.empty_lattices,
                r.truncated_lattices,
            ];
            Row {
                truncated: r.truncated_lattices,
                ..Row::of(s, &r, ok, cells)
            }
        }),
        geometry: format!(", {outer} outer x {sites} sites x {images} images"),
        pass_note: " (every explored nested crash recovers idempotently)",
        fail_note: " (probes above replay the minimal subsets)",
    }
}

/// 4 schemes × 4 workloads, including the detectable queue, which forfeits
/// the in-flight ambiguity; each cell samples single-kill runs — plus
/// double-kill runs in the full geometry — under the seeded turn scheduler.
fn thread_crash_spec(smoke: bool) -> CampaignSpec {
    CampaignSpec {
        title: "Section 7.1e: thread-crash exploration (K of N mutators die, survivors drain)",
        tag: "thread-crash",
        columns: &[("runs", 6), ("fired", 7), ("unfired", 8), ("in-flight", 9)],
        rule: 76,
        settings: grid(&["LL", "DQ", "AVL", "pmemkv"], 0x7c4a00),
        run: Box::new(move |s| {
            let make = &*s.make;
            let single_kill_runs = if smoke { 2 } else { 6 };
            let mut r = run_thread_crash_campaign(make, s.scheme, s.seed, single_kill_runs, 1);
            if !smoke {
                // Two extra double-kill runs per cell: only survivors
                // drain, and failures still shrink to single-kill probes.
                let double = run_thread_crash_campaign(make, s.scheme, s.seed, 2, 2);
                r.runs += double.runs;
                r.kills_fired += double.kills_fired;
                r.kills_unfired += double.kills_unfired;
                r.inflight_ops += double.inflight_ops;
                r.failures.extend(double.failures);
            }
            // Every cell must actually fire kills (a campaign that samples
            // only past-the-end sites explored nothing), and every run
            // must pass the checker suite.
            let ok = r.failures.is_empty() && r.kills_fired > 0;
            let cells = vec![r.runs, r.kills_fired, r.kills_unfired, r.inflight_ops];
            Row::of(s, &r, ok, cells)
        }),
        geometry: String::new(),
        pass_note: " (every surviving cohort drains to a consistent heap)",
        fail_note: " (triples above replay the kills)",
    }
}

/// Runs one campaign and prints its table; returns the failed settings.
fn run_campaign(spec: &CampaignSpec, jobs: usize) -> u64 {
    header(spec.title);
    let mut head = format!("{:<8} {:<22}", "bench", "scheme");
    for (name, width) in spec.columns {
        head += &format!(" {name:>width$}");
    }
    println!("{head} {:>8}", "result");
    rule(spec.rule);
    let rows = parallel_map(&spec.settings, jobs.max(1), |_, s| (spec.run)(s));
    let mut failures = 0;
    let mut truncated = 0;
    for (s, row) in spec.settings.iter().zip(rows) {
        let mut line = format!("{:<8} {:<22}", s.label, s.scheme.label());
        for (cell, (_, width)) in row.cells.iter().zip(spec.columns) {
            line += &format!(" {cell:>width$}");
        }
        println!("{line} {:>8}", if row.ok { "PASS" } else { "FAIL" });
        if !row.ok {
            failures += 1;
            for f in row.failures.iter().take(3) {
                println!("    {f}");
            }
        }
        truncated += row.truncated;
    }
    rule(spec.rule);
    if truncated > 0 {
        println!(
            "{}: {truncated} lattices extended beyond the 64-entry window",
            spec.tag
        );
    }
    let n = spec.settings.len();
    let verdict = if failures == 0 {
        format!("ALL PASS{}", spec.pass_note)
    } else {
        format!("{failures} settings FAILED{}", spec.fail_note)
    };
    println!(
        "{}: {n} settings{}, jobs {jobs}: {verdict}",
        spec.tag, spec.geometry
    );
    failures
}

fn main() {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let smoke = flag("--smoke");
    let spec = if flag("--thread-crash") {
        thread_crash_spec(smoke)
    } else if flag("--nested") {
        nested_spec(smoke)
    } else if flag("--adversary") {
        adversary_spec(smoke)
    } else {
        sweep_spec(smoke)
    };
    if run_campaign(&spec, jobs()) > 0 {
        std::process::exit(1);
    }
}
