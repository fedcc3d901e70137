//! A minimal wall-clock micro-benchmark harness.
//!
//! Replaces `criterion` for the workspace's `harness = false` bench
//! targets. Each benchmark is warmed up, then timed over enough
//! iterations to fill a small measurement window; the harness prints
//! ns/op and ops/s. The default window is a quick smoke run;
//! `scripts/bench.sh` sets `SC_BENCH_MS` for the tracked rows.

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Opaque-to-the-optimizer identity, re-exported so benches don't touch
/// `std::hint` paths directly.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Measurement window per benchmark in milliseconds (`SC_BENCH_MS`,
/// default 20, a quick smoke run).
pub fn window_ms() -> u64 {
    std::env::var("SC_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(20)
}

/// A named group of benchmarks, printed as one table.
pub struct Bench {
    suite: &'static str,
    window_ms: u64,
}

impl Bench {
    /// Start a suite; prints a header line.
    pub fn new(suite: &'static str) -> Self {
        let window_ms = window_ms();
        println!("## bench suite `{suite}` (window {window_ms} ms/case)");
        Bench { suite, window_ms }
    }

    /// Time `f`, which should perform one operation per call, and print
    /// one result row. Returns mean ns/op for callers that post-process.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> f64 {
        // Warm-up: run for ~1/4 of the window to stabilise caches and
        // let the first lazy initialisations happen off the clock.
        let warm_budget = self.window_ms.max(4) / 4;
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed().as_millis() < warm_budget as u128 {
            f();
            warm_iters += 1;
        }

        // Measure: batch iterations between clock reads so short ops are
        // not dominated by `Instant::now` overhead.
        let batch = warm_iters.clamp(1, 1 << 20);
        let start = Instant::now();
        let mut iters: u64 = 0;
        loop {
            for _ in 0..batch {
                f();
            }
            iters += batch;
            if start.elapsed().as_millis() >= self.window_ms as u128 {
                break;
            }
        }
        let elapsed = start.elapsed();
        let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
        let ops_per_s = if ns_per_op > 0.0 { 1e9 / ns_per_op } else { f64::INFINITY };
        println!(
            "{:<40} {:>14} ns/op {:>16} ops/s  ({} iters)",
            format!("{}/{}", self.suite, name),
            format_sig(ns_per_op),
            format_sig(ops_per_s),
            iters
        );
        ns_per_op
    }
}

fn format_sig(x: f64) -> String {
    if !x.is_finite() {
        "inf".into()
    } else if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bench::new("selftest");
        let mut acc = 0u64;
        let ns = b.bench("wrapping_add", || {
            acc = black_box(acc.wrapping_add(black_box(3)));
        });
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(format_sig(123456.0), "123456");
        assert_eq!(format_sig(12.3456), "12.35");
        assert_eq!(format_sig(0.1234), "0.1234");
    }
}
