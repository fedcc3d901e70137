//! Shared plumbing for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper: it prints the same rows/series the paper reports (with a
//! `paper:` reference line where the original numbers are known) and
//! writes machine-readable JSON under `results/`.
//!
//! Environment knobs, honoured by every harness:
//!
//! * `SC_SCALE` — divide trace sizes by this factor (default 1; use 10
//!   for a quick pass);
//! * `SC_ORIGIN_DELAY_MS` — artificial origin latency for the live
//!   experiments (default 100; the paper used 1000);
//! * `SC_RESULTS_DIR` — where JSON results land (default `results/`).

use sc_trace::{profiles, Trace, TraceProfile};
use std::io::Write;
use std::path::PathBuf;

pub mod replay;

/// A harness knob from the environment: the one place this library
/// reads it (`crates/clippy.toml` bans `std::env::var` elsewhere).
#[allow(clippy::disallowed_methods)]
fn knob(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Trace scale divisor from `SC_SCALE`.
pub fn scale() -> usize {
    knob("SC_SCALE")
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Origin delay for live experiments, from `SC_ORIGIN_DELAY_MS`.
pub fn origin_delay_ms() -> u64 {
    knob("SC_ORIGIN_DELAY_MS")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// All five paper profiles.
pub fn all_profiles() -> Vec<TraceProfile> {
    profiles::all_profiles()
}

/// Generate a profile's trace at the configured scale.
pub fn load_trace(p: &TraceProfile) -> Trace {
    let s = scale();
    if s == 1 {
        p.generate()
    } else {
        p.generate_scaled(s)
    }
}

/// Where results land.
pub fn results_dir() -> PathBuf {
    let dir = knob("SC_RESULTS_DIR").unwrap_or_else(|| "results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Write one experiment's JSON rows.
pub fn write_results<T: sc_json::ToJson>(name: &str, rows: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(rows.to_json().to_pretty().as_bytes());
            let _ = f.write_all(b"\n");
            eprintln!("[{name}] wrote {}", path.display());
        }
        Err(e) => eprintln!("[{name}] could not write {}: {e}", path.display()),
    }
}

/// Render a fraction as a fixed-width percentage.
pub fn pct(x: f64) -> String {
    format!("{:6.2}%", x * 100.0)
}

/// Render bytes with a binary-unit suffix.
pub fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_default_sanely() {
        // (Can't set env vars safely in parallel tests; just check the
        // defaults parse when unset.)
        assert!(scale() >= 1);
        assert!(origin_delay_ms() > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), " 12.34%");
        assert_eq!(human_bytes(512.0), "512.0 B");
        assert_eq!(human_bytes(2048.0), "2.0 KiB");
        assert_eq!(human_bytes(3.0 * 1024.0 * 1024.0), "3.0 MiB");
    }
}
