//! One short window of every workload against a live cluster: every
//! self-check holds and every promised metric comes out.
//!
//! One test function, so the four clusters run one after the other
//! rather than fighting over the cores.

mod common;

use sc_benchmark::run::{run, Plan};
use sc_benchmark::workload::WORKLOADS;
use sc_json::Value;
use std::time::Duration;

#[test]
fn every_workload_passes_its_self_checks_in_one_window() {
    let plan = Plan {
        setups: 1,
        open_windows: 1,
        open_window: Duration::from_millis(1_500),
        closed_windows: 1,
        closed_window: Duration::from_millis(500),
        trace: false,
    };
    let end_to_end = common::names("end_to_end");
    for w in &WORKLOADS {
        let outcome = run(w, 5, &plan).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for c in &outcome.checks {
            assert!(c.passed, "{}: check failed: {}", w.name, c.what);
        }
        assert_eq!(outcome.failed, 0, "{}", w.name);
        assert!(outcome.correct());
        assert!(outcome.attempted > 0);
        let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            reported, end_to_end,
            "{}: metrics as BENCHMARK.json orders them",
            w.name
        );
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        let line = sc_benchmark::result_line(&outcome);
        let parsed = Value::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
