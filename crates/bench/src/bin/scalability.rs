//! Section V-F — scalability of summary cache.
//!
//! Two parts:
//!
//! 1. the paper's back-of-the-envelope worked example (100 proxies ×
//!    8 GB, load factor 16, 10 hashes, 1 % threshold) plus a sweep over
//!    proxy counts, via the closed-form calculator;
//! 2. "we have performed simulations with larger number of proxies and
//!    the results verify these back of the envelope calculations" — a
//!    trace-driven sweep over group counts showing per-request protocol
//!    overhead stays flat while ICP's grows linearly.

use sc_bench::{pct, rule, scale, write_results};
use sc_sim::{simulate_summary_cache, SummaryCacheConfig};
use sc_trace::{GeneratorConfig, TraceGenerator, TraceStats};
use summary_cache_core::scalability::{estimate, Deployment};
use summary_cache_core::{SummaryKind, UpdatePolicy};

struct AnalyticRow {
    proxies: u32,
    summary_mb: f64,
    peer_memory_mb: f64,
    update_msgs_per_request: f64,
    false_hit_per_request: f64,
    overhead_msgs_per_request: f64,
}

struct SimRow {
    groups: u32,
    sc_messages_per_request: f64,
    icp_messages_per_request: f64,
    total_hit_ratio: f64,
}

sc_json::json_struct!(AnalyticRow {
    proxies,
    summary_mb,
    peer_memory_mb,
    update_msgs_per_request,
    false_hit_per_request,
    overhead_msgs_per_request
});
sc_json::json_struct!(SimRow {
    groups,
    sc_messages_per_request,
    icp_messages_per_request,
    total_hit_ratio
});

fn main() {
    println!("Section V-F: scalability");
    println!("\n-- analytic (the paper's worked example and a proxy-count sweep) --");
    let header = format!(
        "{:>8} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "proxies", "summary MB", "peer mem MB", "upd/req", "false/req", "msgs/req"
    );
    println!("{header}");
    rule(&header);
    let mut analytic = Vec::new();
    for proxies in [4u32, 16, 32, 64, 100, 200] {
        let e = estimate(Deployment {
            proxies,
            ..Deployment::paper_example()
        });
        let row = AnalyticRow {
            proxies,
            summary_mb: e.summary_bytes as f64 / (1 << 20) as f64,
            peer_memory_mb: e.peer_memory_bytes as f64 / (1 << 20) as f64,
            update_msgs_per_request: e.update_messages_per_request,
            false_hit_per_request: e.false_hit_per_request,
            overhead_msgs_per_request: e.overhead_messages_per_request,
        };
        println!(
            "{:>8} {:>12.1} {:>14.0} {:>12.5} {:>12.4} {:>12.4}",
            row.proxies,
            row.summary_mb,
            row.peer_memory_mb,
            row.update_msgs_per_request,
            row.false_hit_per_request,
            row.overhead_msgs_per_request
        );
        analytic.push(row);
    }
    println!("paper @100: 2 MB/summary, ~200 MB peer memory + 8 MB counters,");
    println!("paper @100: <0.01 update msgs/req, ~4.7% false hits, <0.06 msgs/req total.");

    println!("\n-- simulation sweep over proxy-group counts --");
    let header = format!(
        "{:>8} {:>14} {:>14} {:>10}",
        "groups", "SC msgs/req", "ICP msgs/req", "hit"
    );
    println!("{header}");
    rule(&header);
    let mut sims = Vec::new();
    for groups in [4u32, 8, 16, 32] {
        let trace = TraceGenerator::new(GeneratorConfig {
            name: format!("sweep-{groups}"),
            requests: 240_000 / scale(),
            clients: groups * 40,
            documents: 100_000 / scale(),
            groups,
            seed: 0x5CA1E,
            ..Default::default()
        })
        .generate();
        let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom {
                load_factor: 16,
                hashes: 4,
            },
            // Request-cadence trigger keeps the update rate comparable
            // across group counts (Section V-A equivalence).
            policy: UpdatePolicy::EveryRequests(300),
        };
        let r = simulate_summary_cache(&trace, &cfg, budget);
        let n = r.metrics.requests.max(1) as f64;
        let row = SimRow {
            groups,
            sc_messages_per_request: (r.metrics.queries_sent + r.metrics.update_messages) as f64
                / n,
            icp_messages_per_request: r.icp_queries as f64 / n,
            total_hit_ratio: r.metrics.rates().total_hit_ratio,
        };
        println!(
            "{:>8} {:>14.4} {:>14.4} {:>10}",
            row.groups,
            row.sc_messages_per_request,
            row.icp_messages_per_request,
            pct(row.total_hit_ratio)
        );
        sims.push(row);
    }
    println!();
    println!("paper: ICP overhead grows ~linearly with proxies (N R (1-H) inquiries);");
    println!("paper: summary-cache overhead stays near-flat — it scales to ~100 proxies.");
    write_results(
        "scalability",
        &sc_json::obj! { "analytic" => analytic, "simulation" => sims },
    );
}
