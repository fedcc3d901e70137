//! `BENCHMARK.json` and the program agree on every name.

mod common;

use common::{names, spec};
use sc_benchmark::workload::WORKLOADS;
use sc_json::Value;
use std::process::Command;

#[test]
fn list_prints_exactly_the_workloads_of_benchmark_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_sc-benchmark"))
        .arg("list")
        .output()
        .expect("run list");
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(listed, names("workloads"));
    assert_eq!(listed, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
}

#[test]
fn benchmark_json_points_at_this_package_and_its_run_length() {
    let spec = spec();
    let paths = spec.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let seconds = spec.get("run_seconds").and_then(Value::as_u64).expect("run_seconds");
    assert_eq!(seconds as f64, sc_benchmark::DEFAULT_SECONDS);
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn unknown_workloads_and_flags_are_usage_errors() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--bogus"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sc-benchmark"))
            .args(args)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result line on a usage error");
    }
}
