//! Figs. 5–8 — the summary-representation comparison, one simulation
//! pass per (trace, representation) at the 1 % update threshold and a
//! cache of 10 % of infinite:
//!
//! * Fig. 5: total cache hit ratio;
//! * Fig. 6: false-hit ratio (log scale in the paper);
//! * Fig. 7: inter-proxy network messages per request (updates +
//!   queries), with the ICP baseline;
//! * Fig. 8: inter-proxy message **bytes** per request under the
//!   Section V-D size model, with the ICP baseline.
//!
//! Paper shape: all representations hit within a hair of exact-
//! directory (server-name even a touch higher — its false hits mask
//! false misses); false hits order server-name ≫ bloom-8 > bloom-16 >
//! bloom-32 > exact; messages collapse vs ICP; bytes drop >50 %.

use sc_bench::{all_profiles, load_trace, pct, rule, write_results};
use sc_sim::{simulate_summary_cache, SummaryCacheConfig};
use sc_trace::TraceStats;
use summary_cache_core::{SummaryKind, UpdatePolicy};

struct Row {
    trace: String,
    representation: String,
    total_hit_ratio: f64,
    false_hit_ratio: f64,
    messages_per_request: f64,
    bytes_per_request: f64,
    icp_messages_per_request: f64,
    icp_bytes_per_request: f64,
    message_reduction_factor: f64,
    byte_reduction: f64,
}

sc_json::json_struct!(Row {
    trace,
    representation,
    total_hit_ratio,
    false_hit_ratio,
    messages_per_request,
    bytes_per_request,
    icp_messages_per_request,
    icp_bytes_per_request,
    message_reduction_factor,
    byte_reduction
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
    println!("Figs. 5-8: summary representations at 1% threshold, cache = 10% infinite");
    let mut rows = Vec::new();
    for p in all_profiles() {
        let trace = load_trace(&p);
        let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
        println!("\n[{}]", p.name);
        let header = format!(
            "{:>18} {:>9} {:>10} {:>10} {:>11} {:>9} {:>9}",
            "representation", "hit", "false-hit", "msgs/req", "bytes/req", "msg x", "byte x"
        );
        println!("{header}");
        rule(&header);
        for kind in kinds() {
            let cfg = SummaryCacheConfig {
                kind,
                policy: UpdatePolicy::Threshold(0.01),
                multicast_updates: false,
            };
            let r = simulate_summary_cache(&trace, &cfg, budget);
            let rates = r.metrics.rates();
            let n = r.metrics.requests.max(1) as f64;
            let icp_msgs = r.icp_queries as f64 / n;
            let icp_bytes = r.icp_query_bytes as f64 / n;
            let row = Row {
                trace: p.name.to_string(),
                representation: kind.label(),
                total_hit_ratio: rates.total_hit_ratio,
                false_hit_ratio: rates.false_hit_ratio,
                messages_per_request: rates.messages_per_request,
                bytes_per_request: rates.bytes_per_request,
                icp_messages_per_request: icp_msgs,
                icp_bytes_per_request: icp_bytes,
                message_reduction_factor: icp_msgs / rates.messages_per_request.max(1e-12),
                byte_reduction: 1.0 - rates.bytes_per_request / icp_bytes.max(1e-12),
            };
            println!(
                "{:>18} {:>9} {:>10} {:>10.4} {:>11.1} {:>8.1}x {:>9}",
                row.representation,
                pct(row.total_hit_ratio),
                pct(row.false_hit_ratio),
                row.messages_per_request,
                row.bytes_per_request,
                row.message_reduction_factor,
                pct(row.byte_reduction),
            );
            rows.push(row);
        }
        println!(
            "{:>18} {:>9} {:>10} {:>10.4} {:>11.1}",
            "ICP",
            "(same)",
            "-",
            rows.last().unwrap().icp_messages_per_request,
            rows.last().unwrap().icp_bytes_per_request,
        );

        // The paper's effective cadence: its 1% thresholds "translate
        // into roughly 300 to 3000 user requests between updates"
        // (Section V-A) because its proxies cache 30k-100k documents.
        // Our traces are smaller, so the nominal 1% fires far more
        // often; this row matches the paper's cadence instead.
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: 8, hashes: 4 },
            policy: UpdatePolicy::EveryRequests(300),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, budget);
        let rates = r.metrics.rates();
        let n = r.metrics.requests.max(1) as f64;
        let icp_msgs = r.icp_queries as f64 / n;
        let icp_bytes = r.icp_query_bytes as f64 / n;
        let row = Row {
            trace: p.name.to_string(),
            representation: "bloom-lf8 @300req".into(),
            total_hit_ratio: rates.total_hit_ratio,
            false_hit_ratio: rates.false_hit_ratio,
            messages_per_request: rates.messages_per_request,
            bytes_per_request: rates.bytes_per_request,
            icp_messages_per_request: icp_msgs,
            icp_bytes_per_request: icp_bytes,
            message_reduction_factor: icp_msgs / rates.messages_per_request.max(1e-12),
            byte_reduction: 1.0 - rates.bytes_per_request / icp_bytes.max(1e-12),
        };
        println!(
            "{:>18} {:>9} {:>10} {:>10.4} {:>11.1} {:>8.1}x {:>9}",
            row.representation,
            pct(row.total_hit_ratio),
            pct(row.false_hit_ratio),
            row.messages_per_request,
            row.bytes_per_request,
            row.message_reduction_factor,
            pct(row.byte_reduction),
        );
        rows.push(row);
    }
    println!();
    println!("paper: hit ratios within ~1 point of exact for every representation;");
    println!("paper: false hits server-name >> bloom-8 > bloom-16 > bloom-32 ~ exact;");
    println!("paper: messages cut 25-60x vs ICP at full trace scale, bytes cut 55-64%.");
    println!("note:  at reduced SC_SCALE the caches hold fewer documents, the 1%");
    println!("note:  threshold fires more often, and both factors shrink accordingly.");
    write_results("fig5to8", &rows);
}
