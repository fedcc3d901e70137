//! Per-scenario throughput + good-ruler rows: every canned adversarial
//! scenario (flash crowd, diurnal drift, peer churn, false-hit storm,
//! two-level hierarchy) replayed once on the deterministic simnet,
//! reporting wall-clock ns per simulated request next to the ruler's
//! quality dimensions (hit ratio, false-hit ratio, virtual p99).
//!
//! Like the scaleout suite this is a fixed-work measurement — one
//! seeded run per scenario — so it ignores `SC_BENCH_MS`. Run via
//! `scripts/bench.sh`, which sets `SC_BENCH_JSON` to write the tracked
//! `BENCH_scenarios.json` at the repo root. The ruler numbers are
//! deterministic; only the ns/request timing varies between hosts.

// A timing harness: it reads the wall clock by design.
#![allow(clippy::disallowed_methods)]

use sc_json::Value;
use sc_proxy::simnet::{run_scenario, ScenarioConfig, SimConfig};
use sc_trace::scenario;
use std::time::Instant;

const SEED: u64 = 0xBE7C;

/// Every knob literal: the bench must measure the same schedule no
/// matter what `SC_SIM_*` is set in the environment.
fn bench_cfg() -> ScenarioConfig {
    ScenarioConfig {
        sim: SimConfig {
            proxies: 8,
            local_ops: 0,
            horizon_ms: 2_000,
            keepalive_ms: 50,
            cache_docs: 48,
            expected_docs: 64,
            load_factor: 8,
            hashes: 4,
            loss: 0.12,
            duplicate: 0.08,
            delay_us: (200, 40_000),
            crashes: 2,
            partitions: 2,
            settle_ticks: 400,
            fanout_slots: 1,
            initial_seq: 0,
        },
        windows: 8,
        origin_rtt_us: 120_000,
        local_service_us: 200,
    }
}

fn main() {
    let mut results: Vec<(String, Value)> = Vec::new();
    for name in scenario::scenario_names() {
        let s = scenario::by_name(name, 8, SEED).expect("canned scenario name");
        let start = Instant::now();
        let out = run_scenario(bench_cfg(), SEED, &s);
        let elapsed = start.elapsed();
        let r = &out.report;
        assert!(
            out.sim.converged,
            "{name} must reconverge under the bench fault plan"
        );
        let ns_per_req = elapsed.as_nanos() as f64 / r.requests.max(1) as f64;
        println!(
            "scenarios/{name}: {ns_per_req:.0} ns/request, hit {:.1}%, false-hit {:.2}%, p99 {} us",
            100.0 * r.hit_ratio(),
            100.0 * r.false_hit_ratio(),
            r.latency_p99_us
        );
        results.push((format!("{name}/ns-per-request"), Value::Float(ns_per_req)));
        results.push((format!("{name}/hit-ratio"), Value::Float(r.hit_ratio())));
        results.push((
            format!("{name}/false-hit-ratio"),
            Value::Float(r.false_hit_ratio()),
        ));
        results.push((format!("{name}/requests"), Value::UInt(r.requests)));
        results.push((
            format!("{name}/latency-p99-us"),
            Value::UInt(r.latency_p99_us),
        ));
        results.push((
            format!("{name}/update-datagrams"),
            Value::UInt(r.datagrams_by_op[0].1 + r.datagrams_by_op[1].1),
        ));
    }

    // Tracked JSON output: only when the driver asks for it
    // (`scripts/bench.sh` sets SC_BENCH_JSON to the repo-root path), so
    // `cargo test` runs never dirty the tree.
    if let Ok(path) = std::env::var("SC_BENCH_JSON") {
        let doc = Value::Object(vec![
            ("suite".into(), Value::Str("scenarios".into())),
            ("results".into(), Value::Object(results)),
        ]);
        std::fs::write(&path, doc.to_pretty() + "\n").expect("write SC_BENCH_JSON");
        println!("wrote {path}");
    }
}
