//! Simulation counters and the derived rates the paper's figures plot.


/// Raw event counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// User requests processed.
    pub requests: u64,
    /// Requests served from the client's own proxy, fresh.
    pub local_hits: u64,
    /// Requests served from a neighbour proxy, fresh.
    pub remote_hits: u64,
    /// Local copy existed but was stale (counted as a miss).
    pub local_stale_hits: u64,
    /// A queried neighbour held only a stale copy (counted as a miss,
    /// but it did cost a query — the paper's *remote stale hit*).
    pub remote_stale_hits: u64,
    /// Summary indicated a copy somewhere, but no neighbour had any
    /// version — the paper's *false hit* (wasted queries).
    pub false_hits: u64,
    /// No summary indicated a copy, but a neighbour actually had a
    /// fresh one — the paper's *false miss* (lost remote hit).
    pub false_misses: u64,
    /// Query messages sent to neighbours (unicast).
    pub queries_sent: u64,
    /// Of those, queries to neighbours that had no copy at all.
    pub wasted_queries: u64,
    /// Summary update messages sent (one per neighbour per publish).
    pub update_messages: u64,
    /// Bytes of summary update traffic (paper size model).
    pub update_bytes: u64,
    /// Bytes of query traffic (paper size model: 70 B per query).
    pub query_bytes: u64,
    /// Total bytes requested by users.
    pub requested_bytes: u64,
    /// Bytes served by local + remote fresh hits.
    pub hit_bytes: u64,
    /// Times a proxy published its summary.
    pub publishes: u64,
}

impl Metrics {
    /// The derived per-request ratios.
    pub fn rates(&self) -> Rates {
        let n = self.requests.max(1) as f64;
        Rates {
            total_hit_ratio: (self.local_hits + self.remote_hits) as f64 / n,
            local_hit_ratio: self.local_hits as f64 / n,
            remote_hit_ratio: self.remote_hits as f64 / n,
            byte_hit_ratio: self.hit_bytes as f64 / self.requested_bytes.max(1) as f64,
            false_hit_ratio: self.false_hits as f64 / n,
            false_miss_ratio: self.false_misses as f64 / n,
            remote_stale_hit_ratio: self.remote_stale_hits as f64 / n,
            messages_per_request: (self.queries_sent + self.update_messages) as f64 / n,
            bytes_per_request: (self.query_bytes + self.update_bytes) as f64 / n,
        }
    }
}

/// Per-request ratios, the units of Figs. 1–2 and 5–8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Fraction of requests served from any cache (local + remote).
    pub total_hit_ratio: f64,
    /// Fraction served from the requesting proxy’s own cache.
    pub local_hit_ratio: f64,
    /// Fraction served from a neighbour.
    pub remote_hit_ratio: f64,
    /// Byte-weighted hit ratio.
    pub byte_hit_ratio: f64,
    /// Requests whose summaries pointed somewhere but nobody had a copy.
    pub false_hit_ratio: f64,
    /// Requests whose summaries missed a fresh remote copy.
    pub false_miss_ratio: f64,
    /// Requests that found only a stale copy at a queried neighbour.
    pub remote_stale_hit_ratio: f64,
    /// Inter-proxy messages (queries + updates) per request.
    pub messages_per_request: f64,
    /// Inter-proxy bytes per request (Section V-D model).
    pub bytes_per_request: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_requests() {
        let m = Metrics {
            requests: 100,
            local_hits: 30,
            remote_hits: 10,
            queries_sent: 20,
            update_messages: 5,
            query_bytes: 1400,
            update_bytes: 600,
            requested_bytes: 1000,
            hit_bytes: 400,
            ..Default::default()
        };
        let r = m.rates();
        assert!((r.total_hit_ratio - 0.4).abs() < 1e-12);
        assert!((r.remote_hit_ratio - 0.1).abs() < 1e-12);
        assert!((r.byte_hit_ratio - 0.4).abs() < 1e-12);
        assert!((r.messages_per_request - 0.25).abs() < 1e-12);
        assert!((r.bytes_per_request - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_rates_are_zero_not_nan() {
        let r = Metrics::default().rates();
        assert_eq!(r.total_hit_ratio, 0.0);
        assert_eq!(r.byte_hit_ratio, 0.0);
    }
}
