//! Runs every workload of `BENCHMARK.json` in `--smoke` mode, the way the
//! driver invokes it, and checks the result line against the contract: the
//! four keys, every metric of the requested list by name with its unit, none
//! missing and none extra, outputs correct and no failed operation.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn metric_units(doc: &Value, list: &str) -> BTreeMap<String, String> {
    entries(doc, list)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn every_workload_smoke_runs_and_prints_exactly_the_contracted_metrics() {
    let contract = benchmark_json();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in entries(&contract, "workloads") {
        let name = text(workload, "name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .arg("--out-dir")
                .arg(&out_dir)
                .output()
                .expect("bench_e2e starts");
            let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
            assert!(
                output.status.success(),
                "{name} --trace {trace} exited with {}:\n{stdout}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("the run printed something");
            let Value::Map(result) = serde_json::parse_value(last).expect("the last line is JSON") else {
                panic!("the last line is not an object: {last}")
            };
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{name} --trace {trace}");
            let result = Value::Map(result);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name} --trace {trace}:\n{stdout}"
            );
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{name} --trace {trace}");
            assert!(matches!(result.get("attempted"), Some(Value::Num(n)) if *n >= 1.0 && n.fract() == 0.0));

            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("`metrics` is not an object")
            };
            let printed: BTreeMap<String, String> =
                metrics.iter().map(|(k, v)| (k.clone(), text(v, "unit").to_string())).collect();
            assert_eq!(
                printed,
                metric_units(&contract, list),
                "{name} --trace {trace}: printed metrics differ from BENCHMARK.json `{list}`"
            );
            for (metric, entry) in metrics {
                let Some(Value::Num(value)) = entry.get("value") else {
                    panic!("{name} {metric}: value is not a number")
                };
                assert!(value.is_finite(), "{name} {metric} is not finite");
                if list == "end_to_end" {
                    assert!(*value > 0.0, "{name} {metric}: an end-to-end metric must never be 0");
                }
            }
        }
        // The traced run leaves its host-clock spans behind.
        let trace_file = out_dir.join(format!("{name}.trace.json"));
        let spans =
            serde_json::parse_value(&std::fs::read_to_string(&trace_file).expect("trace file exists")).expect("trace parses");
        assert!(matches!(spans.get("traceEvents"), Some(Value::Seq(events)) if !events.is_empty()));
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", "no_such_workload", "--trace", "0"])
        .output()
        .expect("bench_e2e starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result may be printed for a refused run");
}
