//! Command line of the benchmark.
//!
//! ```text
//! ffccd-benchmark run --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! ffccd-benchmark run [--seed N] [--seconds S] [--trace] [--smoke]    every workload, each in its own process
//! ffccd-benchmark verify-repeat [--seed N] [--seconds S] [--smoke]    two full sets, compared
//! ```

use std::process::ExitCode;

use ffccd_benchmark::run::{run, RunArgs};
use ffccd_benchmark::sets::{run_all_workloads, verify_repeat, SetArgs};
use ffccd_benchmark::workloads::NAMES;

const USAGE: &str = "usage: ffccd-benchmark <run|verify-repeat> [--workload W] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--smoke]";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let command = it.next().ok_or("missing subcommand")?.clone();
    let mut cli = Cli {
        command,
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (known: {NAMES:?})"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                let s = value("a number")?;
                cli.seed = s
                    .strip_prefix("0x")
                    .map_or_else(|| s.parse(), |h| u64::from_str_radix(h, 16))
                    .map_err(|_| format!("--seed: {s:?} is not a number"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                let secs: f64 = s
                    .parse()
                    .map_err(|_| format!("--seconds: {s:?} is not a number"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds: {secs} is outside (0, 600]"));
                }
                cli.seconds = Some(secs);
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                cli.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Smoke runs take tiny sizes and a fraction of a second per window.
    let seconds = cli.seconds.unwrap_or(if cli.smoke { 0.2 } else { 20.0 });
    let ok = match (cli.command.as_str(), cli.workload) {
        ("run", Some(workload)) => run(&RunArgs {
            workload,
            seed: cli.seed,
            seconds,
            trace: cli.trace.unwrap_or(false),
            smoke: cli.smoke,
        }),
        ("run", None) => run_all_workloads(&SetArgs {
            seed: cli.seed,
            seconds,
            smoke: cli.smoke,
            trace: cli.trace,
        }),
        ("verify-repeat", _) => verify_repeat(&SetArgs {
            seed: cli.seed,
            seconds,
            smoke: cli.smoke,
            trace: None,
        }),
        (other, _) => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
