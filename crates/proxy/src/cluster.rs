//! In-process experiment clusters: N proxies + one origin on loopback,
//! driven by the synthetic benchmark or a trace replay — the threaded
//! equivalent of the paper's 10-workstation testbed (Section IV).

use crate::client::{plan_benchmark, plan_replay, run_plans, BenchmarkConfig, ReplayMode};
use crate::config::{Mode, PeerAddr, ProxyConfig};
use crate::daemon::Daemon;
use crate::origin::Origin;
use crate::stats::{CpuTimes, StatsSnapshot};
use sc_obs::HistogramSnapshot;
use sc_trace::Trace;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::time::Duration;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of proxies (the paper's experiments use 4).
    pub proxies: u32,
    /// Cooperation mode, same on every proxy.
    pub mode: Mode,
    /// Cache capacity per proxy, bytes (the paper: 75 MB).
    pub cache_bytes: u64,
    /// Expected cached-document count (Bloom sizing).
    pub expected_docs: u64,
    /// Artificial origin reply delay (the paper: 1 s).
    pub origin_delay: Duration,
    /// ICP reply wait.
    pub icp_timeout_ms: u64,
    /// Keep-alive interval (ms); 0 disables.
    pub keepalive_ms: u64,
    /// Fraction of outgoing directory-update datagrams each proxy
    /// silently drops (fault injection emulating WAN loss); 0 disables.
    pub update_loss: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            proxies: 4,
            mode: Mode::NoIcp,
            cache_bytes: 75 * 1024 * 1024,
            expected_docs: 8_000,
            origin_delay: Duration::from_millis(1000),
            icp_timeout_ms: 500,
            keepalive_ms: 1_000,
            update_loss: 0.0,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    /// The proxies, index = proxy id.
    pub daemons: Vec<Daemon>,
    /// The origin emulator.
    pub origin: Origin,
}

impl Cluster {
    /// Bind all sockets, compute the full peer mesh, and start
    /// everything.
    pub fn start(cfg: &ClusterConfig) -> std::io::Result<Cluster> {
        assert!(cfg.proxies >= 1);
        let origin = Origin::spawn(cfg.origin_delay)?;

        // Bind every socket first so each daemon knows the whole mesh.
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let mut listeners = Vec::new();
        let mut udps = Vec::new();
        let mut addrs = Vec::new();
        for id in 0..cfg.proxies {
            let l = TcpListener::bind(loopback)?;
            let u = UdpSocket::bind(loopback)?;
            addrs.push(PeerAddr {
                id,
                icp: u.local_addr()?,
                http: l.local_addr()?,
            });
            listeners.push(l);
            udps.push(u);
        }

        let mut daemons = Vec::new();
        for (id, (listener, udp)) in listeners.into_iter().zip(udps).enumerate() {
            let peers: Vec<PeerAddr> = addrs
                .iter()
                .filter(|p| p.id != id as u32)
                .copied()
                .collect();
            let pc = ProxyConfig::builder()
                .id(id as u32)
                .cache_bytes(cfg.cache_bytes)
                .expected_docs(cfg.expected_docs)
                .mode(cfg.mode)
                .peers(peers)
                .origin(origin.addr)
                .icp_timeout_ms(cfg.icp_timeout_ms)
                .keepalive_ms(cfg.keepalive_ms)
                .update_loss(cfg.update_loss)
                .build()
                .map_err(std::io::Error::other)?;
            daemons.push(Daemon::spawn_on(pc, listener, udp)?);
        }
        Ok(Cluster { daemons, origin })
    }

    /// Per-proxy counter snapshots.
    pub fn snapshots(&self) -> Vec<StatsSnapshot> {
        self.daemons.iter().map(|d| d.stats.snapshot()).collect()
    }

    /// Aggregate counters across the cluster.
    pub fn aggregate(&self) -> StatsSnapshot {
        self.snapshots()
            .into_iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Run the synthetic benchmark: `clients_per_proxy` concurrent
    /// clients against each proxy, each issuing its stream sequentially.
    /// Returns the wall-clock duration and the client-side latency
    /// distribution (microseconds).
    pub fn run_benchmark(
        &self,
        bench: &BenchmarkConfig,
    ) -> std::io::Result<(Duration, HistogramSnapshot)> {
        run_plans(&self.http_addrs(), plan_benchmark(bench, self.daemons.len()))
    }

    /// Replay a trace per Section VII: `tasks_per_proxy` driver threads
    /// per proxy (the paper: 20, for 80 total), bound per `mode`. Returns
    /// what [`Cluster::run_benchmark`] does.
    pub fn run_replay(
        &self,
        trace: &Trace,
        tasks_per_proxy: usize,
        mode: ReplayMode,
    ) -> std::io::Result<(Duration, HistogramSnapshot)> {
        assert_eq!(
            trace.groups as usize,
            self.daemons.len(),
            "trace groups must match cluster size"
        );
        run_plans(&self.http_addrs(), plan_replay(trace, tasks_per_proxy, mode))
    }

    fn http_addrs(&self) -> Vec<SocketAddr> {
        self.daemons.iter().map(|d| d.http_addr).collect()
    }

    /// Stop every daemon and the origin.
    pub fn shutdown(&self) {
        for d in &self.daemons {
            d.shutdown();
        }
        self.origin.shutdown();
    }
}

/// One experiment's results, as printed by the Table II/IV/V harnesses.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Mode label ("no-ICP", "ICP", "SC-ICP").
    pub mode: String,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Process CPU consumed during the run.
    pub cpu_user: f64,
    /// System CPU seconds consumed during the run.
    pub cpu_system: f64,
    /// Aggregate counters.
    pub totals: StatsSnapshot,
    /// Per-proxy counters.
    pub per_proxy: Vec<StatsSnapshot>,
    /// Mean client latency (the load driver's own timing), milliseconds.
    pub latency_ms_mean: f64,
    /// Median client latency, milliseconds.
    pub latency_ms_p50: f64,
    /// 95th-percentile client latency, milliseconds.
    pub latency_ms_p95: f64,
    /// 99th-percentile client latency, milliseconds.
    pub latency_ms_p99: f64,
}

sc_json::json_struct!(ExperimentReport {
    mode,
    wall_seconds,
    cpu_user,
    cpu_system,
    totals,
    per_proxy,
    latency_ms_mean,
    latency_ms_p50,
    latency_ms_p95,
    latency_ms_p99
});

impl ExperimentReport {
    /// Assemble a report from a finished run and the client-side latency
    /// distribution (microseconds) its load driver measured.
    pub fn build(
        mode: Mode,
        wall: Duration,
        latency: &HistogramSnapshot,
        cpu_start: &CpuTimes,
        cluster: &Cluster,
    ) -> ExperimentReport {
        let cpu = CpuTimes::now().since(cpu_start);
        let totals = cluster.aggregate();
        ExperimentReport {
            mode: mode.label().to_string(),
            wall_seconds: wall.as_secs_f64(),
            cpu_user: cpu.user,
            cpu_system: cpu.system,
            latency_ms_mean: latency.mean() / 1000.0,
            latency_ms_p50: latency.percentile(0.50) as f64 / 1000.0,
            latency_ms_p95: latency.percentile(0.95) as f64 / 1000.0,
            latency_ms_p99: latency.percentile(0.99) as f64 / 1000.0,
            totals,
            per_proxy: cluster.snapshots(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProxyClient;
    use sc_cache::DocMeta;
    use std::time::Instant;

    fn quick_cluster(mode: Mode) -> ClusterConfig {
        ClusterConfig {
            proxies: 3,
            mode,
            cache_bytes: 4 * 1024 * 1024,
            expected_docs: 1_000,
            origin_delay: Duration::from_millis(5),
            icp_timeout_ms: 300,
            keepalive_ms: 0,
            update_loss: 0.0,
        }
    }

    fn quick_bench() -> BenchmarkConfig {
        BenchmarkConfig {
            clients_per_proxy: 4,
            requests_per_client: 25,
            target_hit_ratio: 0.4,
            size_pareto: (1.1, 256, 16 * 1024),
            seed: 42,
        }
    }

    #[test]
    fn no_icp_cluster_serves_benchmark() {
        let cluster = Cluster::start(&quick_cluster(Mode::NoIcp)).unwrap();
        cluster.run_benchmark(&quick_bench()).unwrap();
        let total = cluster.aggregate();
        assert_eq!(total.http_requests, 3 * 4 * 25);
        assert_eq!(total.udp_messages(), 0, "no ICP traffic in no-ICP mode");
        assert!(total.hit_ratio() > 0.2, "inherent locality produces hits");
        cluster.shutdown();
    }

    #[test]
    fn icp_mode_queries_on_every_miss() {
        let cluster = Cluster::start(&quick_cluster(Mode::Icp)).unwrap();
        cluster.run_benchmark(&quick_bench()).unwrap();
        let total = cluster.aggregate();
        let misses = total.http_requests - total.local_hits - total.remote_hits;
        assert_eq!(
            total.icp_queries_sent,
            misses * 2,
            "each miss queries both neighbours"
        );
        // Disjoint client streams: queries never find anything.
        assert_eq!(total.remote_hits, 0);
        // Every query got a reply; sent and received UDP line up.
        assert_eq!(total.udp_sent, total.udp_recv, "loopback loses nothing");
        cluster.shutdown();
    }

    #[test]
    fn summary_cache_mode_sends_almost_no_queries() {
        let cluster = Cluster::start(&quick_cluster(Mode::summary_cache_default())).unwrap();
        cluster.run_benchmark(&quick_bench()).unwrap();
        let total = cluster.aggregate();
        // Disjoint streams: summaries point nowhere except Bloom false
        // positives, so queries are a tiny fraction of ICP's.
        let misses = total.http_requests - total.local_hits - total.remote_hits;
        assert!(
            total.icp_queries_sent < misses / 5,
            "queries {} vs misses {}",
            total.icp_queries_sent,
            misses
        );
        assert!(total.updates_sent > 0, "directory updates flowed");
        assert!(total.updates_received > 0);
        cluster.shutdown();
    }

    #[test]
    fn remote_hits_flow_between_peers() {
        // Two proxies; client of proxy 0 fetches a doc, then a client of
        // proxy 1 asks for the same doc: ICP must turn it into a remote
        // hit.
        let cfg = ClusterConfig {
            proxies: 2,
            mode: Mode::Icp,
            origin_delay: Duration::from_millis(50),
            ..quick_cluster(Mode::Icp)
        };
        let cluster = Cluster::start(&cfg).unwrap();
        let url = "http://server-9.trace.invalid/doc/99";
        let meta = DocMeta {
            size: 5000,
            last_modified: 3,
        };
        let mut c0 = ProxyClient::connect(cluster.daemons[0].http_addr).unwrap();
        assert_eq!(c0.get(url, meta).unwrap().status, 200);
        let mut c1 = ProxyClient::connect(cluster.daemons[1].http_addr).unwrap();
        let t0 = Instant::now();
        assert_eq!(c1.get(url, meta).unwrap().status, 200);
        let remote_latency = t0.elapsed();
        let s1 = cluster.daemons[1].stats.snapshot();
        assert_eq!(s1.remote_hits, 1, "{s1:?}");
        assert!(
            remote_latency < Duration::from_millis(45),
            "remote hit must beat the 50ms origin delay: {remote_latency:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn summary_cache_remote_hit_after_update() {
        // SC mode with an aggressive update policy: after proxy 0 caches
        // a doc and publishes, proxy 1 finds it via the Bloom replica.
        let cfg = ClusterConfig {
            proxies: 2,
            mode: Mode::SummaryCache {
                load_factor: 16,
                hashes: 4,
                policy: summary_cache_core::UpdatePolicy::Threshold(0.0),
            },
            origin_delay: Duration::from_millis(20),
            ..quick_cluster(Mode::NoIcp)
        };
        let cluster = Cluster::start(&cfg).unwrap();
        let url = "http://server-9.trace.invalid/doc/42";
        let meta = DocMeta {
            size: 2000,
            last_modified: 9,
        };
        let mut c0 = ProxyClient::connect(cluster.daemons[0].http_addr).unwrap();
        assert_eq!(c0.get(url, meta).unwrap().status, 200);
        // Give the update datagram a moment to land.
        std::thread::sleep(Duration::from_millis(100));
        let mut c1 = ProxyClient::connect(cluster.daemons[1].http_addr).unwrap();
        assert_eq!(c1.get(url, meta).unwrap().status, 200);
        let s1 = cluster.daemons[1].stats.snapshot();
        assert_eq!(s1.remote_hits, 1, "{s1:?}");
        assert_eq!(s1.icp_queries_sent, 1, "queried exactly the candidate");
        cluster.shutdown();
    }

    #[test]
    fn replay_drives_all_requests() {
        let trace = sc_trace::TraceGenerator::new(sc_trace::GeneratorConfig {
            requests: 400,
            clients: 12,
            documents: 100,
            groups: 3,
            mean_gap_ms: 1.0,
            ..Default::default()
        })
        .generate();
        let cfg = ClusterConfig {
            origin_delay: Duration::from_millis(1),
            ..quick_cluster(Mode::Icp)
        };
        let cluster = Cluster::start(&cfg).unwrap();
        cluster.run_replay(&trace, 4, ReplayMode::PerClient).unwrap();
        let total = cluster.aggregate();
        assert_eq!(total.http_requests, 400);
        assert!(total.remote_hits > 0, "shared documents produce remote hits");
        cluster.shutdown();

        let cluster2 = Cluster::start(&cfg).unwrap();
        cluster2
            .run_replay(&trace, 4, ReplayMode::RoundRobin)
            .unwrap();
        assert_eq!(cluster2.aggregate().http_requests, 400);
        cluster2.shutdown();
    }

    #[test]
    fn experiment_report_json_roundtrip() {
        use sc_json::{FromJson, ToJson};
        let report = ExperimentReport {
            mode: "SC-ICP".into(),
            wall_seconds: 1.25,
            totals: StatsSnapshot {
                http_requests: 100,
                ..Default::default()
            },
            per_proxy: vec![StatsSnapshot::default(); 2],
            ..Default::default()
        };
        let v = report.to_json();
        let back = ExperimentReport::from_json(&v).unwrap();
        assert_eq!(back.mode, "SC-ICP");
        assert_eq!(back.totals.http_requests, 100);
        assert_eq!(back.per_proxy.len(), 2);
        assert!((back.wall_seconds - 1.25).abs() < 1e-12);
    }
}
