//! Cross-validation between independent implementations: the scheme
//! simulator (which consults peer caches directly, as ICP effectively
//! does) and the summary-cache simulator configured so that summaries
//! are exact and always fresh. Under those settings the two must agree
//! *exactly* — any divergence is a bug in one of them.

use sc_util::prop::{check, vec_of};
use summary_cache::core::{SummaryKind, UpdatePolicy};
use summary_cache::sim::{
    simulate_scheme, simulate_summary_cache, SchemeKind, SummaryCacheConfig,
};
use summary_cache::trace::{profile, Request, Trace, TraceStats};

fn fresh_exact() -> SummaryCacheConfig {
    SummaryCacheConfig {
        kind: SummaryKind::ExactDirectory,
        policy: UpdatePolicy::Threshold(0.0), // publish after every insert
    }
}

#[test]
fn fresh_exact_summaries_equal_simple_sharing_on_profile() {
    let trace = profile("UPisa").unwrap().generate_scaled(10);
    let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
    let scheme = simulate_scheme(&trace, SchemeKind::SimpleSharing, budget);
    let summary = simulate_summary_cache(&trace, &fresh_exact(), budget);
    assert_eq!(scheme.local_hits, summary.metrics.local_hits);
    assert_eq!(scheme.remote_hits, summary.metrics.remote_hits);
    assert_eq!(scheme.local_stale_hits, summary.metrics.local_stale_hits);
    assert_eq!(summary.metrics.false_misses, 0, "fresh summaries never false-miss");
    assert_eq!(summary.metrics.false_hits, 0, "exact fresh summaries never false-hit");
}

/// The equivalence holds on arbitrary small traces, including nasty
/// interleavings of versions, clients and sizes.
#[test]
fn prop_fresh_exact_equals_simple_sharing() {
    check("prop_fresh_exact_equals_simple_sharing", 64, |rng| {
        let ops = vec_of(rng, 1..400, |r| {
            (
                r.gen_range(0u32..8),
                r.gen_range(0u64..30),
                r.gen_range(1u64..2000),
                r.gen_range(0u64..3),
            )
        });
        let requests: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, &(client, url, size_seed, version))| Request {
                time_ms: i as u64,
                client,
                url,
                server: (url / 4) as u32,
                // One size per (url, version) so staleness is driven by
                // last_modified alone, as in real traces.
                size: 100 + (url * 37 + version * 13) % size_seed.max(1),
                last_modified: version,
            })
            .collect();
        let trace = Trace {
            name: "prop".into(),
            groups: 4,
            requests,
        };
        let budget = 20_000u64;
        let scheme = simulate_scheme(&trace, SchemeKind::SimpleSharing, budget);
        let summary = simulate_summary_cache(&trace, &fresh_exact(), budget);
        assert_eq!(scheme.local_hits, summary.metrics.local_hits);
        assert_eq!(scheme.remote_hits, summary.metrics.remote_hits);
        assert_eq!(scheme.local_stale_hits, summary.metrics.local_stale_hits);
        assert_eq!(scheme.remote_stale_hits, summary.metrics.remote_stale_hits);
        assert_eq!(summary.metrics.false_hits, 0);
        assert_eq!(summary.metrics.false_misses, 0);
    });
}

/// Metric conservation: every request is exactly one of
/// {local hit, remote hit, miss}; byte accounting follows.
#[test]
fn prop_metrics_conserved() {
    check("prop_metrics_conserved", 64, |rng| {
        let ops = vec_of(rng, 1..300, |r| {
            (r.gen_range(0u32..6), r.gen_range(0u64..40))
        });
        let threshold = rng.gen_f64() * 0.2;
        let requests: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, &(client, url))| Request {
                time_ms: i as u64,
                client,
                url,
                server: (url / 4) as u32,
                size: 200 + url * 7,
                last_modified: 0,
            })
            .collect();
        let trace = Trace { name: "c".into(), groups: 3, requests };
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: 8, hashes: 4 },
            policy: UpdatePolicy::Threshold(threshold),
        };
        let r = simulate_summary_cache(&trace, &cfg, 50_000);
        let m = &r.metrics;
        assert_eq!(m.requests, trace.requests.len() as u64);
        assert!(m.local_hits + m.remote_hits <= m.requests);
        assert!(m.hit_bytes <= m.requested_bytes);
        // False hits and remote hits both require queries.
        assert!(m.queries_sent >= m.remote_hits);
        assert!(m.wasted_queries <= m.queries_sent);
        // Bloom summaries cannot false-miss *fresh* state beyond update
        // lag with threshold 0 — but with arbitrary thresholds we can
        // only bound: false misses never exceed total misses.
        assert!(m.false_misses <= m.requests - m.local_hits - m.remote_hits);
    });
}
