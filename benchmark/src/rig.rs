//! The system under test: four in-process daemons and the origin
//! emulator on real loopback sockets, plus the set-up that brings them
//! to the state the measured phases start from.

use crate::affinity;
use crate::client::Client;
use crate::workload::{warmup_requests, Req, Workload, PROXIES, SHARDS};
use sc_proxy::config::PeerAddr;
use sc_proxy::daemon::Daemon;
use sc_proxy::origin::Origin;
use sc_proxy::router::DirectoryInspect;
use sc_proxy::{Cluster, ProxyConfig, StatsSnapshot};
use sc_trace::sampler::Zipf;
use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Throw-away connections per proxy during warm-up. Each upstream fetch
/// waits out an accept-loop nap, so warm-up is latency-bound: eight
/// requests in flight per proxy keep both cores busy without making the
/// order in which a proxy sees its requests meaningfully different.
const WARMUP_CONNECTIONS: usize = 8;

/// How long `settle` waits for the summaries to converge. One keep-alive
/// period is the expected wait (the fan-out tick flushes every lane).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(6);

/// A started cluster.
pub struct Rig {
    /// The daemons and the origin.
    pub cluster: Cluster,
    /// SC-ICP (summaries exist) rather than classic ICP.
    pub summaries: bool,
}

/// Counters of the whole rig at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Registry counters summed over the four daemons.
    pub total: StatsSnapshot,
    /// The same, per daemon.
    pub per_proxy: Vec<StatsSnapshot>,
    /// GETs the origin served.
    pub origin_requests: u64,
    /// Bytes of update datagrams sent (delta + full histograms' sums).
    pub update_bytes: u64,
    /// ICP round trips recorded, all peers of all daemons.
    pub icp_rtt: sc_obs::HistogramSnapshot,
}

impl Rig {
    /// Bind every socket, then start the origin (no artificial delay:
    /// the program, not a sleep, is to be the bottleneck) and the four
    /// daemons, each knowing the whole mesh.
    pub fn start(workload: &Workload) -> io::Result<Rig> {
        let everywhere = affinity::allowed();
        let origin = Origin::spawn(Duration::ZERO)?;
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let mut sockets = Vec::new();
        let mut addrs = Vec::new();
        for id in 0..PROXIES {
            let listener = TcpListener::bind(loopback)?;
            let udp = UdpSocket::bind(loopback)?;
            addrs.push(PeerAddr {
                id,
                icp: udp.local_addr()?,
                http: listener.local_addr()?,
            });
            sockets.push((listener, udp));
        }
        // Daemon `d` lives on lane `d % 2` (see `affinity`): its threads
        // inherit the mask this thread holds while spawning it.
        let lanes = affinity::lanes();
        let mut daemons = Vec::new();
        for (id, (listener, udp)) in sockets.into_iter().enumerate() {
            if let Some(lanes) = lanes {
                affinity::pin(&[lanes[id % 2]]);
            }
            let id = id as u32;
            let cfg = ProxyConfig::builder()
                .id(id)
                .cache_bytes(workload.cache_bytes)
                .expected_docs(workload.expected_docs)
                .mode(workload.mode())
                .peers(addrs.iter().filter(|p| p.id != id).copied().collect())
                .origin(origin.addr)
                .icp_timeout_ms(500)
                .keepalive_ms(1_000)
                .shards(SHARDS)
                .build()
                .map_err(io::Error::other)?;
            daemons.push(Daemon::spawn_on(cfg, listener, udp)?);
        }
        affinity::pin(&everywhere);
        Ok(Rig {
            cluster: Cluster { daemons, origin },
            summaries: !workload.icp,
        })
    }

    /// Fill every proxy's cache with its warm-up requests over
    /// throw-away connections, all four proxies at once. Any response
    /// that fails verification is an error (a rig that cannot warm up
    /// cannot be measured).
    pub fn warm_up(&self, workload: &Workload, zipf: &Arc<Zipf>, seed: u64) -> io::Result<()> {
        let plans: Vec<Vec<Req>> = (0..PROXIES).map(|p| warmup_requests(workload, zipf, seed, p)).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (proxy, plan) in plans.iter().enumerate() {
                let addr = self.cluster.daemons[proxy].http_addr;
                for lane in 0..WARMUP_CONNECTIONS {
                    handles.push(scope.spawn(move || -> io::Result<()> {
                        let mut client = Client::connect(addr)?;
                        let mut url = String::new();
                        for req in plan.iter().skip(lane).step_by(WARMUP_CONNECTIONS) {
                            crate::workload::url_into(&mut url, req.namespace, req.doc);
                            let reply = client.get(&url, req.meta)?;
                            if !reply.ok {
                                return Err(io::Error::other(format!(
                                    "warm-up response for {url} failed verification"
                                )));
                            }
                        }
                        Ok(())
                    }));
                }
            }
            for h in handles {
                h.join().map_err(|_| io::Error::other("warm-up thread panicked"))??;
            }
            Ok(())
        })
    }

    /// Have all summaries converged? True when every daemon's replica of
    /// every peer equals what that peer has published. Always true in
    /// ICP mode, which keeps no summaries.
    pub fn converged(&self) -> bool {
        if !self.summaries {
            return true;
        }
        let daemons = &self.cluster.daemons;
        let published: Vec<_> = daemons.iter().map(|d| d.published_bits()).collect();
        daemons.iter().all(|d| {
            daemons.iter().filter(|p| p.id != d.id).all(|p| {
                let replica = d.replica_bits(p.id);
                replica.is_some() && replica == published[p.id as usize]
            })
        })
    }

    /// Wait (untimed, no requests in flight) until the summaries have
    /// converged. Returns how long it took, or `None` on timeout.
    pub fn settle(&self) -> Option<Duration> {
        let t0 = Instant::now();
        sc_util::poll::wait_until(SETTLE_TIMEOUT, Duration::from_millis(10), || self.converged()).then(|| t0.elapsed())
    }

    /// Read every counter the metrics are computed from.
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            origin_requests: self.cluster.origin.stats.requests.load(Ordering::Relaxed),
            ..Counters::default()
        };
        for d in &self.cluster.daemons {
            let obs = d.stats.registry().snapshot();
            let snap = StatsSnapshot::from_obs(&obs);
            c.total = c.total.merged(&snap);
            c.per_proxy.push(snap);
            c.update_bytes +=
                obs.histogram_value("sc_update_delta_bytes").sum + obs.histogram_value("sc_update_full_bytes").sum;
            c.icp_rtt = c.icp_rtt.merged(&obs.histogram_value("sc_peer_icp_rtt_us"));
        }
        c
    }

    /// Mean of the driven proxies' own-summary staleness gauges.
    pub fn summary_staleness(&self) -> f64 {
        let driven = &self.cluster.daemons[..crate::workload::DRIVERS];
        driven.iter().map(|d| d.stats.summary_staleness.get()).sum::<f64>() / driven.len() as f64
    }

    /// Stop the daemons and the origin.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

/// One full set-up: start, warm up, and report how long that took.
pub fn set_up(workload: &Workload, zipf: &Arc<Zipf>, seed: u64) -> io::Result<(Rig, f64)> {
    let t0 = Instant::now();
    let rig = Rig::start(workload)?;
    rig.warm_up(workload, zipf, seed)?;
    Ok((rig, t0.elapsed().as_secs_f64()))
}
