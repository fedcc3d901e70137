//! Cross-crate integration: trace generation → simulators → the
//! paper's qualitative claims, end to end.

use summary_cache::core::{SummaryKind, UpdatePolicy};
use summary_cache::sim::{
    simulate_scheme, simulate_summary_cache, SchemeKind, SummaryCacheConfig,
};
use summary_cache::trace::{profile, TraceStats};

fn upisa() -> (summary_cache::trace::Trace, u64) {
    let trace = profile("UPisa").expect("profile").generate_scaled(10);
    let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
    (trace, budget)
}

/// Fig. 1's headline: sharing schemes beat no-sharing decisively and
/// land within a band of the unified global cache.
#[test]
fn sharing_beats_isolation_on_every_profile() {
    for name in ["UPisa", "NLANR"] {
        let trace = profile(name).unwrap().generate_scaled(20);
        let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
        let hit = |s| simulate_scheme(&trace, s, budget).rates().total_hit_ratio;
        let none = hit(SchemeKind::NoSharing);
        let simple = hit(SchemeKind::SimpleSharing);
        let global = hit(SchemeKind::Global);
        assert!(simple > none + 0.05, "{name}: {simple} vs {none}");
        assert!(
            (simple - global).abs() < 0.12,
            "{name}: simple {simple} should track global {global}"
        );
    }
}

/// Fig. 2's headline: hit-ratio degradation grows with the update
/// threshold, and is small at 1%.
#[test]
fn update_delay_degrades_gracefully() {
    let (trace, budget) = upisa();
    let run = |t: f64| {
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::Threshold(t),
            multicast_updates: false,
        };
        simulate_summary_cache(&trace, &cfg, budget)
            .metrics
            .rates()
            .total_hit_ratio
    };
    let fresh = run(0.0);
    let one = run(0.01);
    let ten = run(0.10);
    assert!(one <= fresh + 1e-9 && ten <= one + 1e-9, "monotone: {fresh} {one} {ten}");
    assert!(fresh - one < 0.02, "1% threshold costs little: {}", fresh - one);
    assert!(fresh - ten < 0.08, "even 10% is survivable: {}", fresh - ten);
}

/// Fig. 6's ordering: false hits — server-name ≫ bloom-8 > bloom-16 >
/// bloom-32 ≥ exact-directory.
#[test]
fn false_hit_ordering_across_representations() {
    let (trace, budget) = upisa();
    let run = |kind| {
        let cfg = SummaryCacheConfig {
            kind,
            policy: UpdatePolicy::Threshold(0.01),
            multicast_updates: false,
        };
        simulate_summary_cache(&trace, &cfg, budget)
            .metrics
            .rates()
            .false_hit_ratio
    };
    let exact = run(SummaryKind::ExactDirectory);
    let server = run(SummaryKind::ServerName);
    let b8 = run(SummaryKind::Bloom { load_factor: 8, hashes: 4 });
    let b16 = run(SummaryKind::Bloom { load_factor: 16, hashes: 4 });
    let b32 = run(SummaryKind::Bloom { load_factor: 32, hashes: 4 });
    assert!(server > b8, "server {server} > bloom8 {b8}");
    assert!(b8 > b16, "bloom8 {b8} > bloom16 {b16}");
    assert!(b16 > b32, "bloom16 {b16} > bloom32 {b32}");
    assert!(b32 >= exact, "bloom32 {b32} >= exact {exact}");
    assert!(exact < 0.01, "exact-directory false hits are deletion lag only");
}

/// Fig. 5's headline: every representation's *hit ratio* lands within a
/// point or two of exact-directory — the errors barely cost hits.
#[test]
fn hit_ratio_insensitive_to_representation() {
    let (trace, budget) = upisa();
    let run = |kind| {
        let cfg = SummaryCacheConfig {
            kind,
            policy: UpdatePolicy::Threshold(0.01),
            multicast_updates: false,
        };
        simulate_summary_cache(&trace, &cfg, budget)
            .metrics
            .rates()
            .total_hit_ratio
    };
    let exact = run(SummaryKind::ExactDirectory);
    for kind in [
        SummaryKind::ServerName,
        SummaryKind::Bloom { load_factor: 8, hashes: 4 },
        SummaryKind::Bloom { load_factor: 32, hashes: 4 },
    ] {
        let h = run(kind);
        assert!(
            (h - exact).abs() < 0.02,
            "{kind:?}: {h} vs exact {exact}"
        );
    }
}

/// Fig. 7's headline: summary cache sends far fewer messages than ICP.
#[test]
fn summary_cache_slashes_messages() {
    let (trace, budget) = upisa();
    let cfg = SummaryCacheConfig {
        kind: SummaryKind::Bloom { load_factor: 16, hashes: 4 },
        policy: UpdatePolicy::EveryRequests(300),
        multicast_updates: false,
    };
    let r = simulate_summary_cache(&trace, &cfg, budget);
    let sc = r.metrics.queries_sent + r.metrics.update_messages;
    assert!(
        r.icp_queries as f64 / sc as f64 > 10.0,
        "icp {} vs sc {}",
        r.icp_queries,
        sc
    );
    // Fig. 8: bytes drop too.
    let sc_bytes = r.metrics.query_bytes + r.metrics.update_bytes;
    assert!(
        sc_bytes * 2 < r.icp_query_bytes,
        "bytes cut by >50%: sc {} vs icp {}",
        sc_bytes,
        r.icp_query_bytes
    );
}

/// The NLANR anomaly: the same trace with duplicate simultaneous
/// cross-group requests loses more hit ratio to update delay than a
/// clean trace does (Section V-A's diagnosis).
#[test]
fn nlanr_anomaly_amplifies_delay_sensitivity() {
    let nlanr = profile("NLANR").unwrap().generate_scaled(10);
    let dec = profile("DEC").unwrap().generate_scaled(10);
    let loss = |trace: &summary_cache::trace::Trace| {
        let budget = TraceStats::compute(trace).infinite_cache_bytes / 10;
        let run = |t| {
            let cfg = SummaryCacheConfig {
                kind: SummaryKind::ExactDirectory,
                policy: UpdatePolicy::Threshold(t),
                multicast_updates: false,
            };
            simulate_summary_cache(trace, &cfg, budget)
                .metrics
                .rates()
                .total_hit_ratio
        };
        run(0.0) - run(0.01)
    };
    assert!(
        loss(&nlanr) > loss(&dec),
        "NLANR must be more delay-sensitive: {} vs {}",
        loss(&nlanr),
        loss(&dec)
    );
}

/// Exact counters of the trace simulators on a fixed small UPisa
/// trace, for every representation under a fraction, a request-count
/// and a time trigger, plus the hierarchy's filter-effect rows. The
/// qualitative tests above survive a change in publish bookkeeping that
/// moves every figure a little; these counts do not.
#[test]
fn trace_simulator_counts_are_pinned() {
    use summary_cache::sim::{hierarchy::filter_effect, Metrics};
    let trace = profile("UPisa").expect("profile").generate_scaled(40);
    assert_eq!(trace.requests.len(), 3_000);
    let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;
    // Columns: requests, local / remote / local-stale / remote-stale
    // hits, false hits, false misses, queries, wasted queries, update
    // messages, update bytes, query bytes, requested bytes, hit bytes,
    // publishes.
    let counts = |m: &Metrics| {
        [
            m.requests, m.local_hits, m.remote_hits, m.local_stale_hits,
            m.remote_stale_hits, m.false_hits, m.false_misses, m.queries_sent,
            m.wasted_queries, m.update_messages, m.update_bytes, m.query_bytes,
            m.requested_bytes, m.hit_bytes, m.publishes,
        ]
    };
    let mut rows = Vec::new();
    for kind in [
        SummaryKind::ExactDirectory,
        SummaryKind::ServerName,
        SummaryKind::Bloom { load_factor: 8, hashes: 4 },
    ] {
        for policy in [
            UpdatePolicy::Threshold(0.01),
            UpdatePolicy::EveryRequests(300),
            UpdatePolicy::EveryMillis(trace.duration_ms() / 20),
        ] {
            let cfg = SummaryCacheConfig { kind, policy, multicast_updates: false };
            rows.push(counts(&simulate_summary_cache(&trace, &cfg, budget).metrics));
        }
    }
    #[rustfmt::skip]
    let want: [[u64; 15]; 9] = [
        // exact-directory
        [3000, 728, 521, 15, 10, 0, 0, 807, 0, 15764, 798896, 56490, 17512153, 4537744, 2252],
        [3000, 728, 21, 15, 0, 37, 500, 63, 40, 49, 19684, 4410, 17512153, 2795254, 7],
        [3000, 728, 301, 15, 9, 132, 220, 718, 271, 896, 379456, 50260, 17512153, 3749765, 128],
        // server-name
        [3000, 728, 521, 15, 10, 505, 0, 2483, 1676, 15764, 451472, 173810, 17512153, 4537744, 2252],
        [3000, 728, 44, 15, 0, 216, 477, 348, 295, 49, 7700, 24360, 17512153, 2959108, 7],
        [3000, 728, 371, 15, 10, 540, 150, 2445, 1862, 896, 131376, 171150, 17512153, 4016228, 128],
        // bloom, load factor 8, 4 hashes
        [3000, 728, 521, 15, 10, 584, 0, 1686, 879, 15764, 686329, 118020, 17512153, 4537744, 2252],
        [3000, 728, 24, 15, 0, 221, 497, 280, 254, 49, 2401, 19600, 17512153, 2811312, 7],
        [3000, 728, 313, 15, 9, 680, 208, 1542, 1077, 896, 43834, 107940, 17512153, 3820311, 128],
    ];
    assert_eq!(rows, want, "summary-cache counters drifted");

    // Columns: requests, child / sibling / parent hits, origin fetches,
    // parent requests, sibling queries, update messages.
    let effect: Vec<(String, [u64; 8])> = filter_effect(&trace, budget, budget)
        .into_iter()
        .map(|(label, r)| {
            let row = [
                r.requests, r.child_hits, r.sibling_hits, r.parent_hits,
                r.origin_fetches, r.parent_requests, r.sibling_queries, r.update_messages,
            ];
            (label, row)
        })
        .collect();
    let want: Vec<(String, [u64; 8])> = vec![
        ("no-sharing".into(), [3000, 728, 0, 544, 1728, 2272, 0, 0]),
        ("bloom".into(), [3000, 728, 206, 352, 1714, 2066, 1578, 294]),
        ("exact-directory".into(), [3000, 728, 185, 371, 1716, 2087, 645, 294]),
        ("server-name".into(), [3000, 728, 246, 315, 1711, 2026, 2011, 294]),
    ];
    assert_eq!(effect, want, "filter-effect rows drifted");
}
