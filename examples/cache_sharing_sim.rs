//! A Fig. 1-style experiment on a small synthetic trace: how much does
//! cache sharing help, and how close does ICP-style simple sharing get
//! to a fully unified cache?
//!
//! Run with: `cargo run --release --example cache_sharing_sim`

use summary_cache::sim::{simulate_scheme, simulate_summary_cache, SchemeKind, SummaryCacheConfig};
use summary_cache::trace::{profile, TraceStats};
use summary_cache::core::{SummaryKind, UpdatePolicy};

fn main() {
    // A 1/10-scale UPisa-profile trace: 8 proxy groups, ~12k requests.
    let trace = profile("UPisa").expect("built-in profile").generate_scaled(10);
    let stats = TraceStats::compute(&trace);
    println!(
        "trace: {} requests, {} clients, {} unique docs, infinite cache {} MB, max hit {:.1}%",
        stats.requests,
        stats.clients,
        stats.unique_documents,
        stats.infinite_cache_bytes >> 20,
        stats.max_hit_ratio * 100.0
    );

    // Section II methodology: total cache = 10% of the infinite size.
    let budget = stats.infinite_cache_bytes / 10;
    println!("\nscheme         total hit ratio   (cache = 10% of infinite, split 8 ways)");
    for scheme in SchemeKind::all() {
        let m = simulate_scheme(&trace, scheme, budget);
        println!(
            "{:<12}   {:>8.2}%",
            scheme.label(),
            m.rates().total_hit_ratio * 100.0
        );
    }

    // And the protocol itself: summary cache at the recommended config,
    // with the ICP message model from the same pass.
    let cfg = SummaryCacheConfig {
        kind: SummaryKind::recommended(),
        policy: UpdatePolicy::EveryRequests(50),
    };
    let r = simulate_summary_cache(&trace, &cfg, budget);
    let rates = r.metrics.rates();
    println!("\nsummary cache (bloom lf=8, k=4, update every 50 requests):");
    println!("  total hit ratio     {:>8.2}%", rates.total_hit_ratio * 100.0);
    println!("  false hits          {:>8.2}%", rates.false_hit_ratio * 100.0);
    println!("  false misses        {:>8.2}%", rates.false_miss_ratio * 100.0);
    println!(
        "  messages/request    {:>8.4}  (ICP would send {:.4})",
        rates.messages_per_request,
        r.icp_queries as f64 / r.metrics.requests as f64
    );
    println!(
        "  message reduction   {:>7.1}x",
        r.icp_queries as f64 / (r.metrics.queries_sent + r.metrics.update_messages) as f64
    );
}
