//! `BENCHMARK.json` and the benchmark agree, and every workload produces
//! every end-to-end metric at smoke size.

use ffccd_benchmark::json::{parse, Value};
use std::time::Duration;

use ffccd_benchmark::probes;
use ffccd_benchmark::report::{end_to_end, in_spec_order, per_layer};
use ffccd_benchmark::spec::{is_deterministic, END_TO_END, PER_LAYER};
use ffccd_benchmark::workloads::{round, Sizes, NAMES};

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let owned = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
        spec.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
    for m in doc.get("end_to_end").and_then(Value::as_arr).expect("list") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

#[test]
fn every_workload_produces_every_metric() {
    let probed = probes::run_all(5, Duration::ZERO, Sizes::SMOKE.probe_churn);
    for workload in NAMES {
        let rounds = [
            round(workload, 5, &Sizes::SMOKE, false),
            round(workload, 5, &Sizes::SMOKE, true),
        ];
        for r in &rounds {
            assert!(r.attempted > 0, "{workload}");
            assert_eq!(r.failed, 0, "{workload}");
        }
        if is_deterministic(workload) {
            assert_eq!(
                rounds[0].gc, rounds[1].gc,
                "{workload}: rounds replay one trace"
            );
        }
        for (name, reading) in in_spec_order(&END_TO_END, &end_to_end(&rounds)) {
            let v = reading.unwrap_or_else(|why| panic!("{workload}: {name} unavailable: {why}"));
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
        // Every per-layer name has a source; a workload may still be unable
        // to produce some, and says why.
        let mut layers = per_layer(&rounds);
        layers.extend(probed.iter().map(|&(name, v)| (name, Ok(v))));
        for (name, reading) in in_spec_order(&PER_LAYER, &layers) {
            match reading {
                Ok(v) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
                Err(why) => assert_ne!(why, "nothing measures it", "{workload}: {name}"),
            }
        }
    }
}
