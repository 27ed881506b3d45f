//! Self-check of the benchmark: every workload in brief mode, untraced
//! and traced, against the metric list in `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use cim_sim::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["detailed_light", "fleet_observed", "overload_faults"];

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs one brief invocation; returns (stdout lines, parsed result).
fn run(workload: &str, trace: bool) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--brief"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload} trace={trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = json::parse(lines.last().expect("a result line")).expect("result is JSON");
    (lines, result)
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} has a numeric value"))
}

fn check_result(workload: &str, result: &Json, lines: &[String], metrics: &[(String, String)]) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {lines:#?}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let printed = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(
        printed.len(),
        metrics.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in metrics {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let got_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        assert_eq!(got_unit, Some(unit.as_str()), "{workload}: unit of {name}");
        assert!(value(result, name).is_finite(), "{workload}: {name}");
        assert!(
            lines
                .iter()
                .any(|l| l == &format!("{name} = {} {unit}", value(result, name))),
            "{workload}: {name} printed by name with its unit"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let spec = spec();
    let metrics = declared(&spec, "end_to_end");
    for w in WORKLOADS {
        let (lines, result) = run(w, false);
        check_result(w, &result, &lines, &metrics);
        let probe_ms: f64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("probe: median "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .expect("probe time printed");
        assert!(probe_ms > 0.0, "{w}: probe ran");
        for name in ["host_us_per_req", "setup_s", "peak_rss_mb", "sim_p99_us"] {
            assert!(value(&result, name) > 0.0, "{w}: {name} nonzero");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let spec = spec();
    let metrics = declared(&spec, "per_layer");
    for w in WORKLOADS {
        let (lines, result) = run(w, true);
        check_result(w, &result, &lines, &metrics);
        for name in [
            "run.allocs_per_req",
            "engine.allocs_per_req",
            "engine.run_us_per_req",
        ] {
            assert!(value(&result, name) > 0.0, "{w}: {name} counted");
        }
        for (name, _) in &metrics {
            let v = value(&result, name);
            if name.starts_with("obs.") && w != "fleet_observed" {
                assert_eq!(v, 0.0, "{w}: obs is off, {name} must be zero");
            }
            if name.starts_with("fleet.") && w != "fleet_observed" {
                assert_eq!(v, 0.0, "{w}: no fleet, {name} must be zero");
            }
            if name.starts_with("service.") && w == "fleet_observed" {
                assert_eq!(v, 0.0, "{w}: no service front door, {name} must be zero");
            }
        }
        if w == "fleet_observed" {
            assert!(
                value(&result, "obs.us_per_req") > 0.0,
                "obs measured on the fleet"
            );
        }
    }
}
