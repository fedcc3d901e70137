//! Live-system integration: real daemons, real sockets, real datagrams
//! on loopback — the Section VII prototype behaviours.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use summary_cache::cache::DocMeta;
use summary_cache::proxy::client::ProxyClient;
use summary_cache::proxy::config::PeerAddr;
use summary_cache::proxy::daemon::Daemon;
use summary_cache::proxy::origin::Origin;
use summary_cache::proxy::router::DirectoryInspect;
use summary_cache::proxy::{
    BenchmarkConfig, Cluster, ClusterConfig, Mode, ProxyConfig, ReplayMode,
};
use summary_cache::trace::{GeneratorConfig, TraceGenerator};
use summary_cache::wire::http::MAX_HEAD_BYTES;

fn cfg(proxies: u32, mode: Mode) -> ClusterConfig {
    ClusterConfig {
        proxies,
        mode,
        cache_bytes: 8 << 20,
        expected_docs: 1_000,
        origin_delay: Duration::from_millis(10),
        icp_timeout_ms: 400,
        keepalive_ms: 0,
        update_loss: 0.0,
    }
}

fn shared_trace(groups: u32, requests: usize) -> summary_cache::trace::Trace {
    TraceGenerator::new(GeneratorConfig {
        name: "live".into(),
        requests,
        clients: groups * 8,
        documents: requests / 5,
        groups,
        mean_gap_ms: 1.0,
        ..Default::default()
    })
    .generate()
}

/// The paper's central protocol claim, live: SC-ICP finds the same
/// remote hits as ICP with a fraction of the messages.
#[test]
fn sc_icp_matches_icp_hits_with_fewer_messages() {
    let trace = shared_trace(4, 2_000);

    let icp = Cluster::start(&cfg(4, Mode::Icp)).unwrap();
    icp.run_replay(&trace, 4, ReplayMode::PerClient).unwrap();
    let icp_totals = icp.aggregate();
    icp.shutdown();

    let sc_mode = Mode::SummaryCache {
        load_factor: 16,
        hashes: 4,
        policy: summary_cache::core::UpdatePolicy::Threshold(0.005),
    };
    let sc = Cluster::start(&cfg(4, sc_mode)).unwrap();
    sc.run_replay(&trace, 4, ReplayMode::PerClient).unwrap();
    let sc_totals = sc.aggregate();
    sc.shutdown();

    assert!(icp_totals.remote_hits > 20, "workload has remote hits: {icp_totals:?}");
    // SC finds most of ICP's remote hits (summaries lag a little)...
    assert!(
        sc_totals.remote_hits as f64 > icp_totals.remote_hits as f64 * 0.6,
        "sc {} vs icp {}",
        sc_totals.remote_hits,
        icp_totals.remote_hits
    );
    // ...while sending far fewer queries. (This workload shares heavily
    // — most documents really are at some peer — so candidates are
    // genuine; the reduction is bounded by the true remote-hit rate.)
    assert!(
        sc_totals.icp_queries_sent * 2 < icp_totals.icp_queries_sent,
        "sc queries {} vs icp {}",
        sc_totals.icp_queries_sent,
        icp_totals.icp_queries_sent
    );
    // Hit ratios within a couple of points.
    assert!(
        (sc_totals.hit_ratio() - icp_totals.hit_ratio()).abs() < 0.04,
        "sc {:.3} vs icp {:.3}",
        sc_totals.hit_ratio(),
        icp_totals.hit_ratio()
    );
}

/// Remote stale hits, live: a peer advertises a document, but its copy
/// is an older version — the fetch must fall through to the origin and
/// be counted as a remote stale hit, in ICP and in SC mode alike. The
/// peer did answer HIT, so it is not also a false hit.
#[test]
fn remote_stale_hit_falls_through_to_origin() {
    let sc = Mode::SummaryCache {
        load_factor: 16,
        hashes: 4,
        policy: summary_cache::core::UpdatePolicy::Threshold(0.0),
    };
    for mode in [Mode::Icp, sc] {
        let cluster = Cluster::start(&cfg(2, mode)).unwrap();
        let (d0, d1) = (&cluster.daemons[0], &cluster.daemons[1]);
        let url = "http://server-1.trace.invalid/doc/7";
        let mut c0 = ProxyClient::connect(d0.http_addr).unwrap();
        let mut c1 = ProxyClient::connect(d1.http_addr).unwrap();
        // Proxy 0 caches version 1.
        assert_eq!(
            c0.get(url, DocMeta { size: 1000, last_modified: 1 }).unwrap().status,
            200
        );
        // In SC mode proxy 1 queries only the peers its replicas name:
        // wait until its replica of proxy 0 carries the new document.
        assert!(
            mode == Mode::Icp
                || sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
                    d1.replica_bits(0).is_some_and(|b| Some(b) == d0.published_bits())
                }),
            "{mode:?}: proxy 1's replica of proxy 0 never converged"
        );
        // Proxy 1's client wants version 2: proxy 0 answers HIT, but
        // the fetched copy is stale.
        assert_eq!(
            c1.get(url, DocMeta { size: 1000, last_modified: 2 }).unwrap().status,
            200
        );
        let s1 = d1.stats.snapshot();
        assert_eq!(s1.remote_stale_hits, 1, "{mode:?}: {s1:?}");
        assert_eq!(s1.remote_hits, 0, "{mode:?}: {s1:?}");
        assert_eq!(s1.false_hits, 0, "{mode:?}: {s1:?}");
        cluster.shutdown();
    }
}

/// Regression: an all-miss ICP round must resolve as soon as the last
/// MISS reply lands, not sit out the timeout. The old accounting set
/// `outstanding` to the configured peer count before sending, so any
/// datagram that failed to send (or raced the replies) left the waiter
/// pinned until `icp_timeout_ms`.
#[test]
fn all_miss_icp_round_beats_the_timeout() {
    let mut config = cfg(3, Mode::Icp);
    config.icp_timeout_ms = 2_000;
    config.origin_delay = Duration::from_millis(10);
    let cluster = Cluster::start(&config).unwrap();
    let mut c0 = ProxyClient::connect(cluster.daemons[0].http_addr).unwrap();
    // Warm one request through so sockets and threads are all up.
    c0.get(
        "http://server-0.trace.invalid/warm",
        DocMeta { size: 100, last_modified: 1 },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    for i in 0..5 {
        let url = format!("http://server-0.trace.invalid/unique/{i}");
        // Nobody has these: both peers answer MISS, then origin serves.
        c0.get(&url, DocMeta { size: 100, last_modified: 1 }).unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(1_000),
        "5 all-miss rounds took {elapsed:?}; a single 2s timeout would dwarf this"
    );
    let s0 = cluster.daemons[0].stats.snapshot();
    assert_eq!(s0.remote_hits, 0);
    assert!(s0.icp_queries_sent >= 12, "queries did go out: {s0:?}");
    cluster.shutdown();
}

/// A query that never leaves the socket counts as an immediate MISS:
/// the only peer has an IPv6 ICP address, so every `send_to` from the
/// daemon's IPv4 socket fails (EAFNOSUPPORT) and each miss must go
/// straight to the origin instead of waiting out `icp_timeout_ms`.
#[test]
fn unsendable_icp_queries_resolve_as_immediate_misses() {
    let origin = Origin::spawn(Duration::from_millis(10)).unwrap();
    let peer = PeerAddr {
        id: 1,
        icp: "[::1]:3130".parse().unwrap(),
        http: "[::1]:3128".parse().unwrap(),
    };
    let config = ProxyConfig::builder()
        .id(0)
        .mode(Mode::Icp)
        .peers(vec![peer])
        .origin(origin.addr)
        .icp_timeout_ms(2_000)
        .keepalive_ms(0)
        .build()
        .unwrap();
    let loopback = "127.0.0.1:0";
    let daemon = Daemon::spawn_on(
        config,
        std::net::TcpListener::bind(loopback).unwrap(),
        std::net::UdpSocket::bind(loopback).unwrap(),
    )
    .unwrap();
    let mut client = ProxyClient::connect(daemon.http_addr).unwrap();
    let t0 = std::time::Instant::now();
    for i in 0..5 {
        let url = format!("http://server-0.trace.invalid/v6/{i}");
        assert_eq!(client.get(&url, DocMeta { size: 100, last_modified: 1 }).unwrap().status, 200);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(1_000),
        "5 misses with no deliverable query took {elapsed:?}"
    );
    let s = daemon.stats.snapshot();
    assert_eq!(s.icp_queries_sent, 0, "{s:?}");
    assert_eq!(s.remote_hits, 0);
    daemon.shutdown();
    origin.shutdown();
}

/// Regression: once peers are detected as failed, ICP mode must stop
/// querying them entirely — a request should cost origin latency, not
/// `icp_timeout_ms` waiting on replies that can never come.
#[test]
fn failed_peers_are_not_queried_in_icp_mode() {
    let mut config = cfg(3, Mode::Icp);
    config.icp_timeout_ms = 2_000;
    config.keepalive_ms = 50; // failure threshold = 150 ms
    config.origin_delay = Duration::from_millis(10);
    let cluster = Cluster::start(&config).unwrap();
    cluster.daemons[1].shutdown();
    cluster.daemons[2].shutdown();
    let d0 = &cluster.daemons[0];
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            d0.stats.snapshot().peer_failures >= 2
        }),
        "both peers declared dead"
    );

    let sent_before = d0.stats.snapshot().icp_queries_sent;
    let mut c0 = ProxyClient::connect(d0.http_addr).unwrap();
    let t0 = std::time::Instant::now();
    c0.get(
        "http://server-0.trace.invalid/after-failure",
        DocMeta { size: 100, last_modified: 1 },
    )
    .unwrap();
    let elapsed = t0.elapsed();
    let s0 = d0.stats.snapshot();
    assert_eq!(
        s0.icp_queries_sent, sent_before,
        "no queries to peers known dead"
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "request went straight to origin, got {elapsed:?}"
    );
    cluster.origin.shutdown();
    d0.shutdown();
}

/// Keep-alives flow in every mode — the paper's no-ICP baseline has
/// nonzero UDP traffic consisting solely of them.
#[test]
fn keepalives_are_the_no_icp_baseline() {
    let mut config = cfg(3, Mode::NoIcp);
    config.keepalive_ms = 50;
    let cluster = Cluster::start(&config).unwrap();
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            cluster.aggregate().udp_sent >= 3 * 2 * 3 // 3 proxies x 2 peers x >=3 ticks
        }),
        "keepalives flowed: {:?}",
        cluster.aggregate()
    );
    assert_eq!(cluster.aggregate().icp_queries_sent, 0);
    cluster.shutdown();
}

/// Cache capacity is enforced across the live path: a stream larger
/// than the cache must evict and keep byte usage within budget.
#[test]
fn live_cache_respects_capacity() {
    let mut config = cfg(2, Mode::NoIcp);
    config.cache_bytes = 64 * 1024;
    let cluster = Cluster::start(&config).unwrap();
    let mut c0 = ProxyClient::connect(cluster.daemons[0].http_addr).unwrap();
    for i in 0..50 {
        let url = format!("http://server-0.trace.invalid/doc/{i}");
        c0.get(&url, DocMeta { size: 8 * 1024, last_modified: 1 })
            .unwrap();
    }
    // 50 x 8KB = 400KB through a 64KB cache: at most 8 docs fit.
    assert!(cluster.daemons[0].cached_docs() <= 8);
    cluster.shutdown();
}

/// The synthetic benchmark reaches its inherent hit ratio through the
/// full live stack (client -> proxy -> origin).
#[test]
fn benchmark_hits_inherent_ratio_live() {
    let cluster = Cluster::start(&cfg(2, Mode::NoIcp)).unwrap();
    cluster
        .run_benchmark(&BenchmarkConfig {
            clients_per_proxy: 6,
            requests_per_client: 100,
            target_hit_ratio: 0.45,
            size_pareto: (1.1, 256, 32 * 1024),
            seed: 3,
        })
        .unwrap();
    let totals = cluster.aggregate();
    let hr = totals.hit_ratio();
    assert!(
        (0.35..0.55).contains(&hr),
        "live hit ratio {hr} should track the 45% inherent ratio"
    );
    cluster.shutdown();
}

/// One request, one latency sample: the daemon's own sample is the only
/// write to `sc_request_latency_us`; the client driving the request keeps
/// its timing to itself.
#[test]
fn each_request_records_one_latency_sample() {
    const N: u64 = 10;
    let cluster = Cluster::start(&cfg(1, Mode::NoIcp)).unwrap();
    let d0 = &cluster.daemons[0];
    let mut c0 = ProxyClient::connect(d0.http_addr).unwrap();
    for i in 0..N {
        let url = format!("http://server-0.trace.invalid/latency/{}", i % 3);
        c0.get(&url, DocMeta { size: 100, last_modified: 1 }).unwrap();
    }
    // The daemon records after writing the reply: wait for the last one.
    assert!(sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(5), || {
        d0.stats.snapshot().latency_count >= N
    }));
    let s = d0.stats.snapshot();
    assert_eq!((s.latency_count, s.http_requests), (N, N), "{s:?}");
    cluster.shutdown();
}

/// A head that never terminates is cut off past `MAX_HEAD_BYTES`: its
/// sender gets a 400 and a closed connection, and the daemon serves the
/// next connection normally.
#[test]
fn unterminated_oversized_head_gets_400_and_close() {
    let cluster = Cluster::start(&cfg(1, Mode::NoIcp)).unwrap();
    let addr = cluster.daemons[0].http_addr;
    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.write_all(&vec![b'a'; MAX_HEAD_BYTES + 1]).unwrap();
    let mut reply = String::new();
    hostile.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply:?}");

    let mut fresh = ProxyClient::connect(addr).unwrap();
    let meta = DocMeta { size: 100, last_modified: 1 };
    assert_eq!(fresh.get("http://s.invalid/after", meta).unwrap().status, 200);
    cluster.shutdown();
}
