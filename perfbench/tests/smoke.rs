//! Smoke test: every workload at a tiny size, untraced and traced. Checks
//! that each run passes its correctness checks, emits every metric of its
//! catalogue with its unit, and that `BENCHMARK.json` and `layer_map.json`
//! name the same metrics and workloads as the code.

use gsino_bench::report::{get, JsonDoc};
use gsino_perfbench::{run, Args, Size, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str::<JsonDoc>(&text)
        .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
        .0
}

fn repo_file(name: &str) -> Value {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join(name))
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    array(get(bench, &[key]).expect(key))
        .iter()
        .map(|m| {
            (
                str_of(get(m, &["name"]).expect("name")).to_string(),
                str_of(get(m, &["unit"]).expect("unit")).to_string(),
            )
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    assert_eq!(listed(&bench, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = array(get(&bench, &["workloads"]).expect("workloads"))
        .iter()
        .map(|w| str_of(get(w, &["name"]).expect("name")))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in array(get(&bench, &["end_to_end"]).unwrap()) {
        let bound = number(get(m, &["bound"]).expect("bound"));
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn layer_map_covers_every_layer_metric() {
    let map = repo_file("layer_map.json");
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    for (name, _) in PER_LAYER {
        let entry = get(&map, &["layers", name]).unwrap_or_else(|| panic!("{name} unmapped"));
        for target in array(get(entry, &["moves"]).expect("moves")) {
            let metric = str_of(get(target, &["metric"]).expect("metric"));
            let workload = str_of(get(target, &["workload"]).expect("workload"));
            assert!(
                e2e.contains(&metric),
                "{name} moves unknown metric {metric}"
            );
            assert!(
                WORKLOADS.contains(&workload),
                "{name} names unknown workload {workload}"
            );
        }
    }
}

fn checks_for(workload: &str, trace: bool) -> Vec<&'static str> {
    let mut checks = vec![
        "text_round_trip_is_identity",
        "every_net_routed",
        "violating_nets_zero",
    ];
    if workload == "eco_wire" {
        checks.extend([
            "pinning_violations_zero",
            "divergences_zero",
            "session_identical_to_scratch_flow",
        ]);
        if trace {
            checks.extend(["in_process_replay_identical", "bare_replay_identical"]);
        }
    }
    if trace {
        checks.push("traced_flow_identical_to_run_gsino");
    }
    checks
}

#[test]
fn every_workload_runs_tiny_and_reports_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.3,
                trace,
                size: Size::Tiny,
            };
            let report = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            for name in checks_for(workload, trace) {
                let passed = report
                    .checks
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, ok)| *ok);
                assert_eq!(passed, Some(true), "{workload} trace={trace}: check {name}");
            }
            assert!(
                report.correct(trace),
                "{workload} trace={trace}: {:?}",
                report.checks
            );
            assert!(report.attempted >= 1);
            assert_eq!(report.failed, 0, "{workload} trace={trace}");

            let line = serde_json::from_str::<JsonDoc>(&report.result_line(trace))
                .expect("result line is JSON")
                .0;
            let keys: Vec<&str> = match &line {
                Value::Object(m) => m.iter().map(|(k, _)| k).collect(),
                other => panic!("result line is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&line, &["correct"]), Some(&Value::Bool(true)));
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let metrics = match get(&line, &["metrics"]) {
                Some(Value::Object(m)) => m,
                other => panic!("metrics is not an object: {other:?}"),
            };
            assert_eq!(metrics.len(), catalogue.len());
            for (name, unit) in catalogue {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(get(m, &["unit"]).map(str_of), Some(*unit), "{name}");
                let value = number(get(m, &["value"]).expect("value"));
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
            }
            load_detail(&report.detail_line());
        }
    }
}

fn load_detail(line: &str) {
    let detail = serde_json::from_str::<JsonDoc>(line)
        .expect("detail line is JSON")
        .0;
    assert!(get(&detail, &["detail", "circuit_digest"]).is_some());
    assert!(get(&detail, &["detail", "checks"]).is_some());
}
