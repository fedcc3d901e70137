#![warn(missing_docs)]

//! The repository's benchmark: a live four-daemon loopback cluster
//! under an open-loop then a closed-loop load, reporting the metrics
//! `BENCHMARK.json` names. See `README.md` for the glossary.
//!
//! * [`affinity`] — which core each daemon and driver runs on;
//! * [`workload`] — the four workloads and their seeded request streams;
//! * [`rig`] — starting, warming and inspecting the cluster;
//! * [`client`] — the verifying keep-alive HTTP client;
//! * [`drive`] — the open-loop and closed-loop phases and their windows;
//! * [`trace`] — in-memory spans, written out at exit;
//! * [`replay`] — the single-threaded stage replay through the layers'
//!   public functions;
//! * [`micro`] — per-call probes of operations no span can reach;
//! * [`run`] — one run: set-up, phases, self-checks, metrics.

pub mod affinity;
pub mod client;
pub mod drive;
pub mod micro;
pub mod replay;
pub mod rig;
pub mod run;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Where the traced run writes its spans: `out/` beside this package's
/// manifest (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &run::Outcome) -> String {
    use sc_json::Value;
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        ("attempted".to_string(), Value::UInt(outcome.attempted)),
        ("failed".to_string(), Value::UInt(outcome.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
    .to_compact()
}
