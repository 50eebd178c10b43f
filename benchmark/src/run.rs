//! One run of one workload: rounds until the measuring time is used, then
//! the metrics, the result files, and the result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::{obj, Value};
use crate::report::{
    end_to_end, in_spec_order, peak_rss_mib, per_layer, round_iteration_us, Reading,
};
use crate::spec::{is_deterministic, Metric, END_TO_END, PER_LAYER};
use crate::workloads::{round, Round, Sizes};
use crate::{probes, trace};

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// `benchmark/out/`, next to this package's manifest: the one place the
/// benchmark writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Short git revision of the checkout, or `unknown` outside a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The simulated side of a deterministic workload must not differ between
/// two rounds of one run: every round replays the same trace.
fn rounds_repeat(rounds: &[Round]) -> bool {
    let fingerprint = |r: &Round| {
        let sim: u64 = r
            .sim_logs()
            .iter()
            .flat_map(|l| &l.samples)
            .map(|s| u64::from(s.sim_cycles))
            .sum();
        (
            sim,
            r.attempted,
            r.gc,
            r.sim_logs().iter().map(|l| l.footprint_sum).sum::<u64>(),
        )
    };
    rounds
        .windows(2)
        .all(|w| fingerprint(&w[0]) == fingerprint(&w[1]))
}

/// Runs the workload and prints the result line. Returns whether every
/// output was correct.
pub fn run(args: &RunArgs) -> bool {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let t_run = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut readings: Vec<(&'static str, Reading)>;
    let spec: &[Metric];
    if args.trace {
        // Half the time for the window, traced and untraced rounds taking
        // turns (their throughput ratio is the tracing overhead); half for
        // the probes.
        while rounds.len() < 2 || t_run.elapsed().as_secs_f64() < args.seconds / 2.0 {
            let traced = rounds.len() % 2 == 1;
            rounds.push(round(&args.workload, args.seed, &sizes, traced));
        }
        let probes = probes::run_all(
            args.seed,
            Duration::from_secs_f64(args.seconds / 2.0),
            sizes.probe_churn,
        );
        readings = per_layer(&rounds);
        readings.extend(probes.into_iter().map(|(name, v)| (name, Ok(v))));
        spec = &PER_LAYER;
    } else {
        let mut measured = 0.0;
        while measured < args.seconds {
            let r = round(&args.workload, args.seed, &sizes, false);
            measured += r.window_s;
            rounds.push(r);
        }
        readings = end_to_end(&rounds);
        spec = &END_TO_END;
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let repeats = !is_deterministic(&args.workload) || rounds_repeat(&rounds);
    if !repeats {
        eprintln!(
            "NOT REPEATABLE: two rounds of {} disagree on simulated numbers",
            args.workload
        );
    }
    let correct = failed == 0 && repeats;

    let readings = in_spec_order(spec, &readings);
    let mode = if args.trace { "layers" } else { "e2e" };
    eprintln!(
        "\n{} [{}] seed {} — {} rounds, {} ops attempted, {} failed",
        args.workload,
        mode,
        args.seed,
        rounds.len(),
        attempted,
        failed
    );
    for (i, r) in rounds.iter().enumerate() {
        let (p50, p99) = round_iteration_us(r);
        eprintln!(
            "  round {i}: setup {:.4} s, window {:.3} s, {:.1} ops/s, iter p50 {p50:.3} us p99 {p99:.3} us{}",
            r.setup_s,
            r.window_s,
            r.attempted as f64 / r.window_s,
            if r.spans.is_empty() { "" } else { " (traced)" }
        );
    }
    eprintln!(
        "  peak RSS {:.1} MiB (not a gated metric; spans included when traced)",
        peak_rss_mib()
    );
    let mut metrics = Vec::new();
    let mut not_available = Vec::new();
    for ((name, reading), (_, unit)) in readings.iter().zip(spec) {
        match reading {
            Ok(v) => eprintln!("  {name:<48} {v:>16.4} {unit}"),
            Err(why) => {
                eprintln!("  {name:<48} {:>16} ({why})", "n/a");
                not_available.push((*name, Value::Str((*why).to_owned())));
            }
        }
        // The result line carries numbers only: a metric this workload
        // cannot produce reads 0 there and is listed with its reason in
        // the result file and above.
        let value = reading.unwrap_or(0.0);
        metrics.push((
            *name,
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str((*unit).to_owned())),
            ]),
        ));
    }

    let meta = obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("rounds", Value::Num(rounds.len() as f64)),
        ("peak_rss_mib", Value::Num(peak_rss_mib())),
        ("git_rev", Value::Str(git_rev())),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
    ]);
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let file = obj([
            ("meta", meta.clone()),
            ("ops_attempted", Value::Num(attempted as f64)),
            ("ops_failed", Value::Num(failed as f64)),
            ("not_available", obj(not_available)),
            ("result", result.clone()),
        ]);
        std::fs::write(
            dir.join(format!("result-{}-{mode}.json", args.workload)),
            file.render() + "\n",
        )?;
        if let Some(traced) = rounds.iter().rev().find(|r| !r.spans.is_empty()) {
            std::fs::write(
                dir.join(format!("trace-{}.json", args.workload)),
                trace::render(meta, &traced.spans),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", dir.display());
    }
    println!("{}", result.render());
    correct
}
