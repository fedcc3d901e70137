//! Table III — storage requirement of the summary representations, as a
//! percentage of the proxy cache size.
//!
//! The paper's reading: exact-directory costs whole percents of the
//! cache (too much when multiplied by many peers); server-name is ~10×
//! cheaper but useless (Figs. 6–7); Bloom filters at load factors 8/16/32
//! cost 0.1–0.5 % and win outright.

use sc_bench::{all_profiles, load_trace, pct, rule, write_results};
use sc_sim::{simulate_summary_cache, SummaryCacheConfig};
use sc_trace::TraceStats;
use summary_cache_core::{SummaryKind, UpdatePolicy};

struct Row {
    trace: String,
    representation: String,
    peer_summaries_bytes: f64,
    own_summary_bytes: f64,
    fraction_of_cache: f64,
}

sc_json::json_struct!(Row {
    trace,
    representation,
    peer_summaries_bytes,
    own_summary_bytes,
    fraction_of_cache
});

fn kinds() -> Vec<SummaryKind> {
    vec![
        SummaryKind::ExactDirectory,
        SummaryKind::ServerName,
        SummaryKind::Bloom { load_factor: 8, hashes: 4 },
        SummaryKind::Bloom { load_factor: 16, hashes: 4 },
        SummaryKind::Bloom { load_factor: 32, hashes: 4 },
    ]
}

fn main() {
    println!("Table III: summary storage as % of proxy cache size (all peers' summaries)");
    let header = format!(
        "{:>10} {:>18} {:>14} {:>12} {:>10}",
        "trace", "representation", "peer summaries", "own summary", "% of cache"
    );
    println!("{header}");
    rule(&header);
    let mut rows = Vec::new();
    for p in all_profiles() {
        let trace = load_trace(&p);
        let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
        for kind in kinds() {
            let cfg = SummaryCacheConfig {
                kind,
                policy: UpdatePolicy::Threshold(0.01),
            };
            let r = simulate_summary_cache(&trace, &cfg, budget);
            let row = Row {
                trace: p.name.to_string(),
                representation: kind.label(),
                peer_summaries_bytes: r.avg_peer_summary_bytes,
                own_summary_bytes: r.avg_own_summary_bytes,
                fraction_of_cache: r.summary_memory_fraction_of_cache,
            };
            println!(
                "{:>10} {:>18} {:>14} {:>12} {:>10}",
                row.trace,
                row.representation,
                sc_bench::human_bytes(row.peer_summaries_bytes),
                sc_bench::human_bytes(row.own_summary_bytes),
                pct(row.fraction_of_cache),
            );
            rows.push(row);
        }
        println!();
    }
    println!("paper: exact-directory ~ percents of cache; bloom-8 ~ 0.1-0.2%; ordering");
    println!("paper: exact > server-name > bloom-32 > bloom-16 > bloom-8 on every trace.");
    write_results("table3", &rows);
}
