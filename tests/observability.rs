//! Observability integration: a live SC-ICP cluster must expose its
//! whole instrument surface over each daemon's admin endpoint, and the
//! exposition must agree with the in-process registry snapshot — the
//! property that lets the table/figure harnesses read every published
//! number from sc-obs instead of side tallies.

use std::collections::BTreeSet;
use std::time::Duration;
use summary_cache::json::Value;
use summary_cache::proxy::{admin, Cluster, ClusterConfig, Mode, ReplayMode};
use summary_cache::trace::{GeneratorConfig, TraceGenerator};

fn sc_cluster() -> Cluster {
    let cfg = ClusterConfig {
        proxies: 3,
        mode: Mode::SummaryCache {
            load_factor: 16,
            hashes: 4,
            policy: summary_cache::core::UpdatePolicy::Threshold(0.01),
        },
        cache_bytes: 8 << 20,
        expected_docs: 1_000,
        origin_delay: Duration::from_millis(2),
        icp_timeout_ms: 400,
        keepalive_ms: 0,
        update_loss: 0.0,
    };
    Cluster::start(&cfg).expect("cluster start")
}

fn drive(cluster: &Cluster) {
    let trace = TraceGenerator::new(GeneratorConfig {
        name: "obs".into(),
        requests: 600,
        clients: 12,
        documents: 150,
        groups: 3,
        mean_gap_ms: 0.5,
        ..Default::default()
    })
    .generate();
    cluster.run_replay(&trace, 3, ReplayMode::PerClient).expect("replay");
}

/// Distinct instrument (metric family) names in a Prometheus text page.
fn families(page: &str) -> BTreeSet<String> {
    page.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.split(['{', ' '])
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn admin_endpoint_serves_the_full_instrument_surface() {
    let cluster = sc_cluster();
    drive(&cluster);

    let d = &cluster.daemons[0];
    let page = admin::fetch(d.admin_addr, "/metrics").expect("fetch /metrics");
    let names = families(&page);

    assert!(
        names.len() >= 15,
        "expected >= 15 distinct instruments, got {}: {names:?}",
        names.len()
    );
    // The per-peer series the paper's staleness/false-hit arguments
    // hinge on, plus the headline counters, must all be present.
    for required in [
        "sc_peer_staleness",
        "sc_peer_false_hits_total",
        "sc_peer_queries_sent_total",
        "sc_http_requests_total",
        "sc_false_hits_total",
        "sc_remote_hits_total",
        "sc_udp_datagrams_sent_total",
        "sc_request_latency_us_count",
        "sc_summary_staleness",
    ] {
        assert!(names.contains(required), "missing `{required}` in:\n{page}");
    }
    // Per-peer series carry the peer label: a 3-proxy daemon has 2 peers.
    assert_eq!(
        page.lines()
            .filter(|l| l.starts_with("sc_peer_staleness{peer="))
            .count(),
        2,
        "one staleness gauge per peer:\n{page}"
    );

    // The page is a projection of the same registry the snapshot reads.
    let snap = d.stats.snapshot();
    assert!(
        page.contains(&format!("sc_http_requests_total {}", snap.http_requests)),
        "exposition and snapshot disagree on http_requests:\n{page}"
    );

    cluster.shutdown();
}

#[test]
fn json_and_event_routes_reflect_the_run() {
    let cluster = sc_cluster();
    drive(&cluster);

    let d = &cluster.daemons[0];
    let json = admin::fetch(d.admin_addr, "/json").expect("fetch /json");
    let v = Value::parse(&json).expect("valid snapshot json");
    // The route serves the raw registry snapshot: every instrument with
    // its kind, labels and value.
    let instruments = match v.get("instruments") {
        Some(Value::Array(items)) => items,
        other => panic!("`instruments` array expected, got {other:?}"),
    };
    let reqs = instruments
        .iter()
        .find(|i| {
            i.get("name").and_then(|n| n.as_str()) == Some("sc_http_requests_total")
        })
        .and_then(|i| i.get("value"))
        .and_then(|n| n.as_f64())
        .expect("sc_http_requests_total instrument");
    assert!(reqs > 0.0, "daemon served requests: {reqs}");

    // Journal writes trail the replies that caused them; poll instead
    // of assuming the run's last event already landed.
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            let events = admin::fetch(d.admin_addr, "/events").expect("fetch /events");
            match Value::parse(&events).expect("valid events json") {
                Value::Array(items) => !items.is_empty(),
                other => panic!("/events must be an array, got {other:?}"),
            }
        }),
        "an SC run journals events"
    );

    cluster.shutdown();
}
