//! Per-proxy measurement: the counters the paper reads from `netstat`
//! plus process CPU time.
//!
//! Since the sc-obs redesign this module is a thin façade: every
//! counter, gauge and histogram lives in an [`sc_obs::Registry`] owned
//! by the [`ProxyStats`], the public fields are cheap handles into it,
//! and [`ProxyStats::snapshot`] is *derived from the registry snapshot*
//! ([`StatsSnapshot::from_obs`]) — the same numbers the admin
//! endpoint's `/metrics` page exposes.

use std::collections::HashMap;
use std::sync::Arc;

use sc_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Journal, Registry};

/// Ethernet-ish MSS used to convert byte counts into the "TCP packets"
/// the paper reports from netstat.
pub const TCP_SEGMENT_BYTES: u64 = 1460;

/// Per-peer instruments, all labeled `{peer="<id>"}` in the registry.
///
/// These are the Section IV/V error signals made visible per neighbour:
/// how often its summary sent us on a wild goose chase (false hits),
/// how often it paid off (remote hits), and what the round trips cost.
#[derive(Debug, Clone)]
pub struct PeerStats {
    /// ICP queries sent to this peer.
    pub queries_sent: Counter,
    /// Queries where this candidate held nothing (its summary lied).
    pub false_hits: Counter,
    /// Queries answered by a fresh HIT from this peer.
    pub remote_hits: Counter,
    /// Queries where this peer held only a stale copy.
    pub stale_hits: Counter,
    /// UDP payload bytes sent to this peer.
    pub udp_bytes_sent: Counter,
    /// UDP payload bytes received from this peer.
    pub udp_bytes_recv: Counter,
    /// HTTP body bytes fetched from this peer on remote hits.
    pub tcp_bytes_fetched: Counter,
    /// Observed staleness of this peer's summary: the fraction of our
    /// queries to it that were wasted (the *effect* of staleness; the
    /// peer's true directory is unknowable from here).
    pub staleness: Gauge,
    /// Round-trip time of ICP queries to this peer, microseconds.
    pub icp_rtt_us: Histogram,
}

impl PeerStats {
    /// Refresh the observed-staleness gauge from the query counters.
    pub fn update_staleness(&self) {
        let q = self.queries_sent.get();
        if q > 0 {
            self.staleness.set(self.false_hits.get() as f64 / q as f64);
        }
    }
}

/// Live instruments, shared across a proxy's threads.
///
/// The public fields keep their historical names so call sites read
/// naturally (`stats.local_hits.incr()`); each is a handle into the
/// registry returned by [`ProxyStats::registry`].
#[derive(Debug)]
pub struct ProxyStats {
    registry: Arc<Registry>,
    /// UDP datagrams sent (ICP queries, replies, directory updates).
    pub udp_sent: Counter,
    /// UDP datagrams received.
    pub udp_recv: Counter,
    /// Bytes inside sent UDP datagrams.
    pub udp_bytes_sent: Counter,
    /// Bytes inside received UDP datagrams.
    pub udp_bytes_recv: Counter,
    /// Bytes written to TCP sockets (client + peer + origin sides).
    pub tcp_bytes_sent: Counter,
    /// Bytes read from TCP sockets.
    pub tcp_bytes_recv: Counter,
    /// HTTP requests served to clients.
    pub http_requests: Counter,
    /// Served fresh from the local cache.
    pub local_hits: Counter,
    /// Served from a neighbour.
    pub remote_hits: Counter,
    /// Queried neighbours that turned out to hold nothing (false hits).
    pub false_hits: Counter,
    /// Queried neighbours that held only a stale copy.
    pub remote_stale_hits: Counter,
    /// ICP query messages this proxy sent.
    pub icp_queries_sent: Counter,
    /// ICP queries this proxy answered.
    pub icp_queries_served: Counter,
    /// Directory-update messages sent.
    pub updates_sent: Counter,
    /// Directory-update messages received and applied.
    pub updates_received: Counter,
    /// Peers declared failed (summary replica dropped).
    pub peer_failures: Counter,
    /// Peer recoveries handled (full bitmap re-sent).
    pub peer_recoveries: Counter,
    /// Update datagrams detected lost or reordered (seq gaps, plus
    /// generation/spec changes observed mid-stream).
    pub update_gaps: Counter,
    /// Peer replicas rebuilt from a full bitmap (resync completions,
    /// including first-contact bootstraps).
    pub replica_resyncs: Counter,
    /// DIRREQ messages sent asking a peer for its full bitmap.
    pub resync_requests: Counter,
    /// Full client-latency distribution (log-bucketed microseconds);
    /// its sum/count also provide the mean the paper reports.
    pub latency_hist: Histogram,
    /// Own-summary staleness at each publish ([`summary_cache_core::PublishOutcome::staleness`]).
    pub summary_staleness: Gauge,
    /// Times this proxy published its summary.
    pub summary_publishes: Counter,
    /// Per-peer wire size of each delta (bit-flip) update datagram,
    /// bytes.
    pub update_delta_bytes: Histogram,
    /// Per-peer wire size of each full-bitmap update datagram, bytes.
    pub update_full_bytes: Histogram,
    peers: HashMap<u32, PeerStats>,
}

impl Default for ProxyStats {
    fn default() -> Self {
        Self::with_peers(&[])
    }
}

impl ProxyStats {
    /// Instruments for a proxy peering with `peer_ids`: the global
    /// series plus one labeled series set per peer.
    pub fn with_peers(peer_ids: &[u32]) -> ProxyStats {
        let registry = Arc::new(Registry::new());
        let peers = peer_ids
            .iter()
            .map(|&id| {
                let l = id.to_string();
                let lbl: &[(&str, &str)] = &[("peer", &l)];
                (
                    id,
                    PeerStats {
                        queries_sent: registry.counter_with("sc_peer_queries_sent_total", lbl),
                        false_hits: registry.counter_with("sc_peer_false_hits_total", lbl),
                        remote_hits: registry.counter_with("sc_peer_remote_hits_total", lbl),
                        stale_hits: registry.counter_with("sc_peer_stale_hits_total", lbl),
                        udp_bytes_sent: registry.counter_with("sc_peer_udp_bytes_sent_total", lbl),
                        udp_bytes_recv: registry
                            .counter_with("sc_peer_udp_bytes_received_total", lbl),
                        tcp_bytes_fetched: registry
                            .counter_with("sc_peer_tcp_bytes_fetched_total", lbl),
                        staleness: registry.gauge_with("sc_peer_staleness", lbl),
                        icp_rtt_us: registry.histogram_with("sc_peer_icp_rtt_us", lbl),
                    },
                )
            })
            .collect();
        ProxyStats {
            udp_sent: registry.counter("sc_udp_datagrams_sent_total"),
            udp_recv: registry.counter("sc_udp_datagrams_received_total"),
            udp_bytes_sent: registry.counter("sc_udp_bytes_sent_total"),
            udp_bytes_recv: registry.counter("sc_udp_bytes_received_total"),
            tcp_bytes_sent: registry.counter("sc_tcp_bytes_sent_total"),
            tcp_bytes_recv: registry.counter("sc_tcp_bytes_received_total"),
            http_requests: registry.counter("sc_http_requests_total"),
            local_hits: registry.counter("sc_local_hits_total"),
            remote_hits: registry.counter("sc_remote_hits_total"),
            false_hits: registry.counter("sc_false_hits_total"),
            remote_stale_hits: registry.counter("sc_remote_stale_hits_total"),
            icp_queries_sent: registry.counter("sc_icp_queries_sent_total"),
            icp_queries_served: registry.counter("sc_icp_queries_served_total"),
            updates_sent: registry.counter("sc_updates_sent_total"),
            updates_received: registry.counter("sc_updates_received_total"),
            peer_failures: registry.counter("sc_peer_failures_total"),
            peer_recoveries: registry.counter("sc_peer_recoveries_total"),
            update_gaps: registry.counter("sc_update_gaps_total"),
            replica_resyncs: registry.counter("sc_replica_resyncs_total"),
            resync_requests: registry.counter("sc_resync_requests_total"),
            latency_hist: registry.histogram("sc_request_latency_us"),
            summary_staleness: registry.gauge("sc_summary_staleness"),
            summary_publishes: registry.counter("sc_summary_publishes_total"),
            update_delta_bytes: registry.histogram("sc_update_delta_bytes"),
            update_full_bytes: registry.histogram("sc_update_full_bytes"),
            peers,
            registry,
        }
    }

    /// The backing registry (what the admin endpoint snapshots).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The structured event journal.
    pub fn journal(&self) -> &Journal {
        self.registry.journal()
    }

    /// This peer's instruments, if it was declared at construction.
    pub fn peer(&self, id: u32) -> Option<&PeerStats> {
        self.peers.get(&id)
    }

    /// Record a sent UDP datagram of `bytes`, attributed to `peer` when
    /// the destination is a known neighbour.
    pub fn udp_out_to(&self, peer: Option<u32>, bytes: usize) {
        self.udp_sent.incr();
        self.udp_bytes_sent.add(bytes as u64);
        if let Some(p) = peer.and_then(|id| self.peers.get(&id)) {
            p.udp_bytes_sent.add(bytes as u64);
        }
    }

    /// Record a received UDP datagram of `bytes`, attributed to `peer`
    /// when the source is a known neighbour.
    pub fn udp_in_from(&self, peer: Option<u32>, bytes: usize) {
        self.udp_recv.incr();
        self.udp_bytes_recv.add(bytes as u64);
        if let Some(p) = peer.and_then(|id| self.peers.get(&id)) {
            p.udp_bytes_recv.add(bytes as u64);
        }
    }

    /// Record TCP bytes written.
    pub fn tcp_out(&self, bytes: usize) {
        self.tcp_bytes_sent.add(bytes as u64);
    }

    /// Record TCP bytes read.
    pub fn tcp_in(&self, bytes: usize) {
        self.tcp_bytes_recv.add(bytes as u64);
    }

    /// Record one client request's latency.
    pub fn latency(&self, micros: u64) {
        self.latency_hist.record(micros);
    }

    /// Freeze the counters into a snapshot — literally a projection of
    /// the sc-obs registry snapshot ([`StatsSnapshot::from_obs`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_obs(&self.registry.snapshot())
    }
}

/// An immutable copy of the counters, with derived quantities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// UDP datagrams sent.
    pub udp_sent: u64,
    /// UDP datagrams received.
    pub udp_recv: u64,
    /// Bytes in sent UDP datagrams.
    pub udp_bytes_sent: u64,
    /// Bytes in received UDP datagrams.
    pub udp_bytes_recv: u64,
    /// TCP bytes written.
    pub tcp_bytes_sent: u64,
    /// TCP bytes read.
    pub tcp_bytes_recv: u64,
    /// Client HTTP requests served.
    pub http_requests: u64,
    /// Local cache hits.
    pub local_hits: u64,
    /// Remote (neighbour) hits.
    pub remote_hits: u64,
    /// Wasted candidate queries (false hits).
    pub false_hits: u64,
    /// Neighbours holding only stale copies.
    pub remote_stale_hits: u64,
    /// ICP queries sent.
    pub icp_queries_sent: u64,
    /// ICP queries answered.
    pub icp_queries_served: u64,
    /// Directory updates sent.
    pub updates_sent: u64,
    /// Directory updates received.
    pub updates_received: u64,
    /// Summed latency, microseconds (the latency histogram's sum).
    pub latency_us_sum: u64,
    /// Latency samples (the latency histogram's count).
    pub latency_count: u64,
    /// Peers declared failed.
    pub peer_failures: u64,
    /// Peer recoveries handled.
    pub peer_recoveries: u64,
    /// Update datagrams detected lost or reordered.
    pub update_gaps: u64,
    /// Peer replicas rebuilt from a full bitmap.
    pub replica_resyncs: u64,
    /// DIRREQ resync requests sent.
    pub resync_requests: u64,
    /// The full client-latency distribution, for tail percentiles.
    pub latency_hist: HistogramSnapshot,
}

sc_json::json_struct!(StatsSnapshot {
    udp_sent,
    udp_recv,
    udp_bytes_sent,
    udp_bytes_recv,
    tcp_bytes_sent,
    tcp_bytes_recv,
    http_requests,
    local_hits,
    remote_hits,
    false_hits,
    remote_stale_hits,
    icp_queries_sent,
    icp_queries_served,
    updates_sent,
    updates_received,
    latency_us_sum,
    latency_count,
    peer_failures,
    peer_recoveries,
    update_gaps,
    replica_resyncs,
    resync_requests,
    latency_hist
});

impl StatsSnapshot {
    /// Project a registry snapshot onto the netstat-style counters the
    /// paper's tables use. Metrics absent from the snapshot read as 0.
    pub fn from_obs(snap: &sc_obs::Snapshot) -> StatsSnapshot {
        let hist = snap.histogram_value("sc_request_latency_us");
        StatsSnapshot {
            udp_sent: snap.counter_value("sc_udp_datagrams_sent_total"),
            udp_recv: snap.counter_value("sc_udp_datagrams_received_total"),
            udp_bytes_sent: snap.counter_value("sc_udp_bytes_sent_total"),
            udp_bytes_recv: snap.counter_value("sc_udp_bytes_received_total"),
            tcp_bytes_sent: snap.counter_value("sc_tcp_bytes_sent_total"),
            tcp_bytes_recv: snap.counter_value("sc_tcp_bytes_received_total"),
            http_requests: snap.counter_value("sc_http_requests_total"),
            local_hits: snap.counter_value("sc_local_hits_total"),
            remote_hits: snap.counter_value("sc_remote_hits_total"),
            false_hits: snap.counter_value("sc_false_hits_total"),
            remote_stale_hits: snap.counter_value("sc_remote_stale_hits_total"),
            icp_queries_sent: snap.counter_value("sc_icp_queries_sent_total"),
            icp_queries_served: snap.counter_value("sc_icp_queries_served_total"),
            updates_sent: snap.counter_value("sc_updates_sent_total"),
            updates_received: snap.counter_value("sc_updates_received_total"),
            latency_us_sum: hist.sum,
            latency_count: hist.samples(),
            peer_failures: snap.counter_value("sc_peer_failures_total"),
            peer_recoveries: snap.counter_value("sc_peer_recoveries_total"),
            update_gaps: snap.counter_value("sc_update_gaps_total"),
            replica_resyncs: snap.counter_value("sc_replica_resyncs_total"),
            resync_requests: snap.counter_value("sc_resync_requests_total"),
            latency_hist: hist,
        }
    }

    /// Total UDP messages, the paper's headline ICP-overhead metric.
    pub fn udp_messages(&self) -> u64 {
        self.udp_sent + self.udp_recv
    }

    /// Approximate TCP packet count (bytes / MSS, one minimum per
    /// direction) — the netstat "TCP packets" stand-in.
    pub fn tcp_packets(&self) -> u64 {
        self.tcp_bytes_sent.div_ceil(TCP_SEGMENT_BYTES)
            + self.tcp_bytes_recv.div_ceil(TCP_SEGMENT_BYTES)
    }

    /// Total network "packets" (UDP messages + TCP segments), the
    /// paper's third netstat column.
    pub fn total_packets(&self) -> u64 {
        self.udp_messages() + self.tcp_packets()
    }

    /// Mean request latency as the daemons timed it, milliseconds.
    pub fn avg_latency_ms(&self) -> f64 {
        if self.latency_count == 0 {
            return 0.0;
        }
        self.latency_us_sum as f64 / self.latency_count as f64 / 1000.0
    }

    /// Total hit ratio (local + remote).
    pub fn hit_ratio(&self) -> f64 {
        if self.http_requests == 0 {
            return 0.0;
        }
        (self.local_hits + self.remote_hits) as f64 / self.http_requests as f64
    }

    /// Element-wise sum (for aggregating a cluster).
    ///
    /// Merging is **total**: scalar counters add, and the two latency
    /// distributions merge bucket-by-bucket with the shorter one
    /// zero-padded ([`HistogramSnapshot::merged`]), so differing
    /// histogram widths never drop samples. Neither input is consumed.
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            udp_sent: self.udp_sent + other.udp_sent,
            udp_recv: self.udp_recv + other.udp_recv,
            udp_bytes_sent: self.udp_bytes_sent + other.udp_bytes_sent,
            udp_bytes_recv: self.udp_bytes_recv + other.udp_bytes_recv,
            tcp_bytes_sent: self.tcp_bytes_sent + other.tcp_bytes_sent,
            tcp_bytes_recv: self.tcp_bytes_recv + other.tcp_bytes_recv,
            http_requests: self.http_requests + other.http_requests,
            local_hits: self.local_hits + other.local_hits,
            remote_hits: self.remote_hits + other.remote_hits,
            false_hits: self.false_hits + other.false_hits,
            remote_stale_hits: self.remote_stale_hits + other.remote_stale_hits,
            icp_queries_sent: self.icp_queries_sent + other.icp_queries_sent,
            icp_queries_served: self.icp_queries_served + other.icp_queries_served,
            updates_sent: self.updates_sent + other.updates_sent,
            updates_received: self.updates_received + other.updates_received,
            latency_us_sum: self.latency_us_sum + other.latency_us_sum,
            latency_count: self.latency_count + other.latency_count,
            peer_failures: self.peer_failures + other.peer_failures,
            peer_recoveries: self.peer_recoveries + other.peer_recoveries,
            update_gaps: self.update_gaps + other.update_gaps,
            replica_resyncs: self.replica_resyncs + other.replica_resyncs,
            resync_requests: self.resync_requests + other.resync_requests,
            latency_hist: self.latency_hist.merged(&other.latency_hist),
        }
    }
}

/// Process CPU time, read from `/proc/self/stat` — the paper's
/// user/system CPU columns (it reads them from `getrusage`), measured
/// at experiment granularity. On platforms without procfs both values
/// read as zero, which downstream code treats as "not measured".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// User CPU seconds.
    pub user: f64,
    /// System CPU seconds.
    pub system: f64,
}

/// Linux's userspace-visible clock tick rate (`_SC_CLK_TCK`); fixed at
/// 100 on every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

impl CpuTimes {
    /// Read the current process totals (zeros where procfs is absent).
    pub fn now() -> CpuTimes {
        Self::read().unwrap_or(CpuTimes {
            user: 0.0,
            system: 0.0,
        })
    }

    fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Field 2 (comm) may itself contain spaces and parentheses;
        // everything after the *last* ')' is fields 3 onward.
        let rest = stat.rsplit_once(')')?.1;
        let mut fields = rest.split_whitespace();
        // utime/stime are stat fields 14 and 15, i.e. indices 11 and 12
        // relative to field 3.
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(CpuTimes {
            user: utime / TICKS_PER_SEC,
            system: stime / TICKS_PER_SEC,
        })
    }

    /// CPU spent between `start` and `self`.
    pub fn since(&self, start: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: (self.user - start.user).max(0.0),
            system: (self.system - start.system).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_json::{FromJson, ToJson};

    #[test]
    fn snapshot_reflects_counters() {
        let s = ProxyStats::default();
        s.udp_out_to(None, 100);
        s.udp_out_to(None, 50);
        s.udp_in_from(None, 70);
        s.tcp_out(3000);
        s.tcp_in(1461);
        s.latency(2000);
        let snap = s.snapshot();
        assert_eq!(snap.udp_sent, 2);
        assert_eq!(snap.udp_recv, 1);
        assert_eq!(snap.udp_bytes_sent, 150);
        assert_eq!(snap.udp_messages(), 3);
        assert_eq!(snap.tcp_packets(), 3 + 2, "ceil(3000/1460)+ceil(1461/1460)");
        assert_eq!(snap.total_packets(), 8);
        assert!((snap.avg_latency_ms() - 2.0).abs() < 1e-9);
        assert_eq!(snap.latency_count, 1);
        assert_eq!(snap.latency_us_sum, 2000);
    }

    #[test]
    fn snapshot_is_a_registry_projection() {
        let s = ProxyStats::default();
        s.http_requests.incr();
        s.local_hits.incr();
        s.latency(1500);
        let obs = s.registry().snapshot();
        assert_eq!(s.snapshot(), StatsSnapshot::from_obs(&obs));
        assert_eq!(obs.counter_value("sc_http_requests_total"), 1);
    }

    #[test]
    fn per_peer_series_and_staleness() {
        let s = ProxyStats::with_peers(&[1, 2]);
        assert!(s.peer(3).is_none());
        let p1 = s.peer(1).expect("declared");
        p1.queries_sent.add(4);
        p1.false_hits.add(1);
        p1.update_staleness();
        s.udp_out_to(Some(2), 64);
        s.udp_in_from(Some(9), 32); // unknown peer: global only
        let obs = s.registry().snapshot();
        assert_eq!(
            obs.counter_value_with("sc_peer_queries_sent_total", &[("peer", "1")]),
            4
        );
        assert_eq!(
            obs.gauge_value_with("sc_peer_staleness", &[("peer", "1")]),
            Some(0.25)
        );
        assert_eq!(
            obs.counter_value_with("sc_peer_udp_bytes_sent_total", &[("peer", "2")]),
            64
        );
        assert_eq!(obs.counter_value("sc_udp_bytes_received_total"), 32);
        assert_eq!(obs.counter_value("sc_peer_udp_bytes_received_total"), 0);
    }

    #[test]
    fn hit_ratio_and_merge() {
        let a = StatsSnapshot {
            http_requests: 10,
            local_hits: 3,
            remote_hits: 2,
            ..Default::default()
        };
        assert!((a.hit_ratio() - 0.5).abs() < 1e-12);
        let b = StatsSnapshot {
            http_requests: 10,
            local_hits: 5,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.http_requests, 20);
        assert_eq!(m.local_hits, 8);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(a.http_requests, 10, "merged() borrows, not consumes");
    }

    #[test]
    fn merge_keeps_histograms_of_different_widths() {
        let fast = ProxyStats::default();
        fast.latency(100);
        let slow = ProxyStats::default();
        slow.latency(2_000_000);
        let a = fast.snapshot();
        let b = slow.snapshot();
        assert!(a.latency_hist.counts.len() < b.latency_hist.counts.len());
        let m = a.merged(&b);
        assert_eq!(m.latency_count, 2, "no bucket dropped");
        assert_eq!(m.latency_us_sum, 2_000_100);
        assert!(m.latency_hist.percentile(1.0) >= 1_800_000, "tail survives the merge");
    }

    #[test]
    fn empty_snapshot_no_nan() {
        let s = StatsSnapshot::default();
        assert_eq!(s.avg_latency_ms(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let stats = ProxyStats::default();
        stats.latency(777);
        let mut snap = stats.snapshot();
        snap.http_requests = 42;
        snap.local_hits = 17;
        snap.udp_bytes_sent = u64::MAX;
        let back = StatsSnapshot::from_json(&snap.to_json()).expect("roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn cpu_times_monotone() {
        let a = CpuTimes::now();
        // Burn a little CPU.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = CpuTimes::now();
        let d = b.since(&a);
        assert!(d.user >= 0.0 && d.system >= 0.0);
        assert!(b.user >= a.user);
    }

    #[test]
    fn cpu_times_parse_shape() {
        // On Linux the read path must succeed and yield finite values.
        if std::path::Path::new("/proc/self/stat").exists() {
            let t = CpuTimes::now();
            assert!(t.user.is_finite() && t.system.is_finite());
            assert!(t.user >= 0.0 && t.system >= 0.0);
        }
    }
}
