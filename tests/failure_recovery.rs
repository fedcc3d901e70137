//! Section VI-B failure handling, live: a silent peer's summary
//! replica is dropped (no more candidates point at it), and a peer
//! heard again after a failure receives a full-bitmap
//! reinitialization.

use std::net::UdpSocket;
use std::time::{Duration, Instant};
use summary_cache::cache::DocMeta;
use summary_cache::proxy::client::ProxyClient;
use summary_cache::proxy::router::DirectoryInspect;
use summary_cache::proxy::{Cluster, ClusterConfig, Mode};
use summary_cache::wire::icp::{DirContent, IcpMessage};

fn sc_mode() -> Mode {
    Mode::SummaryCache {
        load_factor: 16,
        hashes: 4,
        policy: summary_cache::core::UpdatePolicy::Threshold(0.0),
    }
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        proxies: 2,
        mode: sc_mode(),
        cache_bytes: 8 << 20,
        expected_docs: 1_000,
        origin_delay: Duration::from_millis(1),
        icp_timeout_ms: 200,
        keepalive_ms: 50, // failure threshold = 3 periods = 150 ms
        update_loss: 0.0,
    }
}

#[test]
fn silent_peer_replica_is_evicted() {
    let cluster = Cluster::start(&cluster_cfg()).unwrap();
    // Traffic from proxy 1 populates proxy 0's replica of it.
    let mut c1 = ProxyClient::connect(cluster.daemons[1].http_addr).unwrap();
    c1.get(
        "http://server-1.trace.invalid/doc/1",
        DocMeta { size: 500, last_modified: 1 },
    )
    .unwrap();
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            cluster.daemons[0].replicated_peers() == vec![1]
        }),
        "proxy 0 replicated proxy 1's summary"
    );

    // Proxy 1 dies; after >3 keep-alive periods proxy 0 must drop it.
    cluster.daemons[1].shutdown();
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            cluster.daemons[0].replicated_peers().is_empty()
                && cluster.daemons[0].stats.snapshot().peer_failures >= 1
        }),
        "failed peer's replica evicted"
    );
    cluster.origin.shutdown();
    cluster.daemons[0].shutdown();
}

/// The tentpole acceptance scenario: a 4-proxy SC cluster whose update
/// datagrams suffer 5% injected loss must not drift — every daemon's
/// replica of every peer reconverges to that peer's published bitmap,
/// because seq gaps are detected and answered with full-bitmap resyncs.
#[test]
fn lossy_cluster_reconverges_via_resync() {
    let cfg = ClusterConfig {
        proxies: 4,
        mode: sc_mode(),
        cache_bytes: 8 << 20,
        expected_docs: 2_000,
        origin_delay: Duration::from_millis(1),
        icp_timeout_ms: 200,
        keepalive_ms: 50, // heartbeat doubles as the gap detector
        update_loss: 0.05,
    };
    let cluster = Cluster::start(&cfg).unwrap();

    // Disjoint streams: each proxy caches (and publishes) 120 unique
    // documents, so every publish is a delta some peer may lose.
    let mut drivers = Vec::new();
    for (pid, d) in cluster.daemons.iter().enumerate() {
        let addr = d.http_addr;
        drivers.push(std::thread::spawn(move || {
            let mut c = ProxyClient::connect(addr).unwrap();
            for i in 0..120 {
                let url = format!("http://server-{pid}.trace.invalid/doc/{i}");
                c.get(&url, DocMeta { size: 400, last_modified: 1 }).unwrap();
            }
        }));
    }
    for h in drivers {
        h.join().unwrap();
    }

    // Traffic has stopped; only heartbeats (and resyncs they trigger)
    // remain. Poll until every directed (observer, publisher) pair
    // agrees bit-for-bit — transient desync windows between a lost
    // datagram and its resync are expected, permanent drift is not.
    // (This is the live twin of the simnet's quiescence check.)
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            cluster.daemons.iter().enumerate().all(|(i, observer)| {
                cluster.daemons.iter().enumerate().all(|(j, publisher)| {
                    i == j
                        || observer.replica_bits(j as u32).as_ref()
                            == publisher.published_bits().as_ref()
                })
            })
        }),
        "replicas drifted and never reconverged"
    );

    // 480 publishes x 3 peers at 5% loss: gaps were certainly seen, and
    // every gap must have ended in a resync.
    let totals = cluster.aggregate();
    assert!(totals.update_gaps > 0, "loss produced no detected gaps: {totals:?}");
    assert!(totals.replica_resyncs > 0, "no replica was ever resynced: {totals:?}");
    assert!(totals.resync_requests > 0, "no DIRREQ was ever sent: {totals:?}");
    cluster.shutdown();
}

#[test]
fn recovered_peer_receives_full_bitmap() {
    let mut cluster = Cluster::start(&cluster_cfg()).unwrap();
    let peer1_icp = cluster.daemons[1].icp_addr;
    // Take proxy 1 out of the cluster so its sockets can actually close
    // once its threads observe the shutdown.
    let d1 = cluster.daemons.remove(1);
    let d0 = &cluster.daemons[0];

    // Proxy 0 caches something so its summary is non-empty.
    let mut c0 = ProxyClient::connect(d0.http_addr).unwrap();
    c0.get(
        "http://server-0.trace.invalid/doc/9",
        DocMeta { size: 500, last_modified: 1 },
    )
    .unwrap();

    // Kill proxy 1 (dropping the handle releases its sockets once the
    // threads observe the signal) and wait for proxy 0 to declare it
    // failed.
    d1.shutdown();
    drop(d1);
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            d0.stats.snapshot().peer_failures >= 1
        }),
        "peer 1 declared failed"
    );

    // "Restart" proxy 1: bind a fresh socket on its old ICP port and
    // send a keep-alive. Proxy 0 must answer with a DIRFULL
    // reinitialization of its own directory.
    let revived = UdpSocket::bind(peer1_icp).expect("rebind the dead peer's ICP port");
    revived
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let hello = IcpMessage::Secho {
        request_number: 0,
        url: String::new(),
    }
    .encode(1)
    .unwrap();
    revived.send_to(&hello, d0.icp_addr).unwrap();

    let mut buf = vec![0u8; 65536];
    let deadline = Instant::now() + Duration::from_secs(2);
    let full = loop {
        assert!(
            Instant::now() < deadline,
            "full bitmap arrives after recovery"
        );
        let n = match revived.recv_from(&mut buf) {
            Ok((n, _)) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("recv failed: {e}"),
        };
        if let Ok(IcpMessage::DirUpdate { update, .. }) = IcpMessage::decode(&buf[..n]) {
            if let DirContent::Bitmap(words) = update.content {
                break words;
            }
        }
    };
    assert!(
        full.iter().any(|&w| w != 0),
        "reinitialization carries proxy 0's non-empty directory"
    );
    // The datagram can outrun the sender's own counter update by a few
    // instructions; give the accounting a moment.
    assert!(
        sc_util::poll::wait_until(Duration::from_secs(2), Duration::from_millis(5), || {
            d0.stats.snapshot().peer_recoveries >= 1
        }),
        "recovery was counted"
    );
    cluster.origin.shutdown();
    d0.shutdown();
}
