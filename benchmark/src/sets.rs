//! Sets of runs: every workload in its own process (so `peak_rss_mib` is
//! per workload), each result checked against `BENCHMARK.json`, and
//! `verify-repeat`, which runs two sets and compares them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::{self, obj, Value};
use crate::spec::{is_deterministic, repeats_exactly};
use crate::workloads::NAMES;

#[derive(Clone, Copy, Debug)]
pub struct SetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `Some(t)`: only runs with tracing `t`; `None`: both.
    pub trace: Option<bool>,
}

/// What `BENCHMARK.json` promises about one metric.
#[derive(Clone, Debug)]
struct Promise {
    name: String,
    unit: String,
    /// Share by which the metric may worsen; end-to-end metrics only.
    bound: Option<f64>,
}

struct Contract {
    end_to_end: Vec<Promise>,
    per_layer: Vec<Promise>,
}

fn contract_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn load_contract() -> Result<Contract, String> {
    let path = contract_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let promises = |key: &str| -> Result<Vec<Promise>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|m| {
                Ok(Promise {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("metric without name")?
                        .to_owned(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or("metric without unit")?
                        .to_owned(),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if workloads != NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {workloads:?}, the benchmark runs {NAMES:?}"
        ));
    }
    Ok(Contract {
        end_to_end: promises("end_to_end")?,
        per_layer: promises("per_layer")?,
    })
}

/// Checks one result line's shape against the contract and returns its
/// metric values.
fn check_result(result: &Value, promised: &[Promise]) -> Result<BTreeMap<String, f64>, String> {
    let keys: Vec<&str> = result
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        return Err("attempted is not a number of at least 1".to_owned());
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics is not an object")?;
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = promised.iter().map(|p| p.name.as_str()).collect();
    if emitted != expected {
        let missing: Vec<_> = expected.iter().filter(|n| !emitted.contains(n)).collect();
        let extra: Vec<_> = emitted.iter().filter(|n| !expected.contains(n)).collect();
        return Err(format!(
            "metric names differ from BENCHMARK.json: missing {missing:?}, not promised {extra:?}"
        ));
    }
    let mut values = BTreeMap::new();
    for ((name, m), p) in metrics.iter().zip(promised) {
        let unit = m.get("unit").and_then(Value::as_str);
        if unit != Some(p.unit.as_str()) {
            return Err(format!(
                "{name}: unit {unit:?}, BENCHMARK.json says {:?}",
                p.unit
            ));
        }
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: value is not a number"))?;
        values.insert(name.clone(), v);
    }
    Ok(values)
}

/// One run in a child process; its parsed result line.
fn run_child(workload: &str, trace: bool, args: &SetArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    let result = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: exited with {}; result {line}",
            out.status
        ));
    }
    Ok(result)
}

type SetResults = BTreeMap<(String, bool), BTreeMap<String, f64>>;

/// Runs every workload (each traced and/or untraced as `args.trace` says),
/// checks every result against `BENCHMARK.json`, and prints one line per
/// run. `Err` carries what went wrong, after all runs were attempted.
fn run_set(args: &SetArgs, contract: &Contract) -> Result<SetResults, Vec<String>> {
    let mut results = SetResults::new();
    let mut errors = Vec::new();
    for workload in NAMES {
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            let promised = if trace {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            match run_child(workload, trace, args).and_then(|r| {
                let values = check_result(&r, promised)?;
                Ok((r, values))
            }) {
                Ok((result, values)) => {
                    let line = obj([
                        ("workload", Value::Str(workload.to_owned())),
                        ("trace", Value::Bool(trace)),
                        ("seed", Value::Num(args.seed as f64)),
                        ("result", result),
                    ]);
                    println!("{}", line.render());
                    results.insert((workload.to_owned(), trace), values);
                }
                Err(e) => errors.push(format!("{workload} (trace {}): {e}", u8::from(trace))),
            }
        }
    }
    if errors.is_empty() {
        Ok(results)
    } else {
        Err(errors)
    }
}

fn report(errors: &[String]) -> bool {
    for e in errors {
        eprintln!("FAILED: {e}");
    }
    errors.is_empty()
}

/// `run` without `--workload`. With `--smoke` this is the CI step: tiny
/// sizes, both modes, every emitted name and unit checked against
/// `BENCHMARK.json`.
pub fn run_all_workloads(args: &SetArgs) -> bool {
    let args = SetArgs {
        trace: if args.smoke {
            args.trace
        } else {
            Some(args.trace.unwrap_or(false))
        },
        ..*args
    };
    let contract = match load_contract() {
        Ok(c) => c,
        Err(e) => return report(&[e]),
    };
    match run_set(&args, &contract) {
        Ok(results) => {
            eprintln!(
                "{} runs, every name and unit as BENCHMARK.json promises",
                results.len()
            );
            true
        }
        Err(errors) => report(&errors),
    }
}

/// Runs two full sets back to back and checks that they agree: simulated
/// numbers and counts of the deterministic workloads bit for bit, every
/// other end-to-end metric within its `BENCHMARK.json` bound.
pub fn verify_repeat(args: &SetArgs) -> bool {
    let contract = match load_contract() {
        Ok(c) => c,
        Err(e) => return report(&[e]),
    };
    let mut sets = Vec::new();
    for label in ["first", "second"] {
        eprintln!("verify-repeat: {label} set");
        match run_set(args, &contract) {
            Ok(s) => sets.push(s),
            Err(errors) => return report(&errors),
        }
    }
    let bound_of: BTreeMap<&str, f64> = contract
        .end_to_end
        .iter()
        .filter_map(|p| Some((p.name.as_str(), p.bound?)))
        .collect();
    let mut errors = Vec::new();
    let (mut exact, mut bounded) = (0, 0);
    for ((workload, trace), first) in &sets[0] {
        let second = &sets[1][&(workload.clone(), *trace)];
        for (name, &a) in first {
            let b = second[name];
            if is_deterministic(workload) && repeats_exactly(name) {
                exact += 1;
                if a != b {
                    errors.push(format!(
                        "{workload}: {name} must repeat exactly: {a} then {b}"
                    ));
                }
            } else if let Some(&bound) = bound_of.get(name.as_str()).filter(|_| !*trace) {
                bounded += 1;
                let diff = (a - b).abs() / a.abs();
                if diff > bound {
                    errors.push(format!(
                        "{workload}: {name} differs by {:.1} % (bound {:.0} %): {a} then {b}",
                        diff * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    eprintln!("verify-repeat: {exact} values compared exactly, {bounded} within their bounds");
    report(&errors)
}
