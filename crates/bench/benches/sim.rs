//! Simulator throughput: requests/second through the scheme and
//! summary-cache simulators, so a full-scale figure run's cost is
//! predictable.

use sc_sim::{simulate_scheme, simulate_summary_cache, SchemeKind, SummaryCacheConfig};
use sc_trace::{GeneratorConfig, Trace, TraceGenerator, TraceStats};
use sc_util::bench::{black_box, Bench};
use summary_cache_core::{SummaryKind, UpdatePolicy};

fn small_trace() -> Trace {
    TraceGenerator::new(GeneratorConfig {
        requests: 20_000,
        clients: 64,
        documents: 8_000,
        groups: 4,
        ..Default::default()
    })
    .generate()
}

fn main() {
    let trace = small_trace();
    let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
    let n = trace.len() as u64;

    let mut b = Bench::new("sim");

    b.bench_throughput("schemes/simple-sharing", n, || {
        black_box(simulate_scheme(
            black_box(&trace),
            SchemeKind::SimpleSharing,
            budget,
        ));
    });
    b.bench_throughput("schemes/global", n, || {
        black_box(simulate_scheme(black_box(&trace), SchemeKind::Global, budget));
    });
    let bloom_cfg = SummaryCacheConfig {
        kind: SummaryKind::Bloom { load_factor: 8, hashes: 4 },
        policy: UpdatePolicy::Threshold(0.01),
    };
    b.bench_throughput("summary/bloom-lf8", n, || {
        black_box(simulate_summary_cache(black_box(&trace), &bloom_cfg, budget));
    });
    let exact_cfg = SummaryCacheConfig {
        kind: SummaryKind::ExactDirectory,
        policy: UpdatePolicy::Threshold(0.01),
    };
    b.bench_throughput("summary/exact-directory", n, || {
        black_box(simulate_summary_cache(black_box(&trace), &exact_cfg, budget));
    });

    b.bench("trace/generate-20k", || {
        black_box(small_trace());
    });
}
