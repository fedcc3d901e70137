//! Extension experiment — summary cache inside a two-level hierarchy
//! (Section VIII: "summary cache enhanced ICP can be used between
//! parent and child proxies. … Though we did not simulate the
//! scenario"). We simulate it: Questnet's real topology (12 child
//! proxies behind a regional parent), with and without sibling
//! summary-cache sharing, on every profile.

use sc_bench::{all_profiles, load_trace, pct, rule, write_results};
use sc_sim::{simulate_hierarchy, HierarchyConfig, SummaryCacheConfig};
use sc_trace::TraceStats;
use summary_cache_core::{SummaryKind, UpdatePolicy};

struct Row {
    trace: String,
    sibling_sharing: bool,
    child_hit: f64,
    sibling_hit: f64,
    parent_hit: f64,
    hierarchy_hit: f64,
    parent_load: f64,
    sibling_queries_per_request: f64,
}

sc_json::json_struct!(Row {
    trace,
    sibling_sharing,
    child_hit,
    sibling_hit,
    parent_hit,
    hierarchy_hit,
    parent_load,
    sibling_queries_per_request
});

fn main() {
    println!("Hierarchy extension: child tier (+/- sibling summary cache) behind one parent");
    let header = format!(
        "{:>10} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "trace", "sharing", "child", "sibling", "parent", "total", "parent load", "queries/r"
    );
    println!("{header}");
    rule(&header);
    let mut rows = Vec::new();
    for p in all_profiles() {
        let trace = load_trace(&p);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        for sharing in [false, true] {
            let cfg = HierarchyConfig {
                sibling_sharing: sharing.then_some(SummaryCacheConfig {
                    kind: SummaryKind::Bloom {
                        load_factor: 16,
                        hashes: 4,
                    },
                    policy: UpdatePolicy::EveryRequests(200),
                }),
                child_tier_bytes: infinite / 10,
                parent_bytes: infinite / 10,
            };
            let r = simulate_hierarchy(&trace, &cfg);
            let n = r.requests.max(1) as f64;
            let row = Row {
                trace: p.name.to_string(),
                sibling_sharing: sharing,
                child_hit: r.child_hits as f64 / n,
                sibling_hit: r.sibling_hits as f64 / n,
                parent_hit: r.parent_hits as f64 / n,
                hierarchy_hit: r.hierarchy_hit_ratio(),
                parent_load: r.parent_load(),
                sibling_queries_per_request: r.sibling_queries as f64 / n,
            };
            println!(
                "{:>10} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10.4}",
                row.trace,
                if sharing { "SC-ICP" } else { "none" },
                pct(row.child_hit),
                pct(row.sibling_hit),
                pct(row.parent_hit),
                pct(row.hierarchy_hit),
                pct(row.parent_load),
                row.sibling_queries_per_request,
            );
            rows.push(row);
        }
    }
    println!();
    println!("reading: sibling sharing converts parent hits into cheaper sibling hits,");
    println!("cutting the parent's request load while holding the hierarchy hit ratio.");
    write_results("hierarchy", &rows);
}
