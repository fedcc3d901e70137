//! The Section V summary-cache simulation (Figs. 2, 5–8, Table III).
//!
//! Every proxy group runs a [`WebCache`] plus a [`ProxySummary`] of its
//! directory. A local miss probes the *published* view of every peer's
//! summary; candidates get unicast queries; errors (false hits, false
//! misses, remote stale hits) and traffic (paper's Section V-D size
//! model) are accounted per request. The same pass also counts what ICP
//! would have sent — a query to every neighbour on every local miss —
//! so figures can show both series from a single run.

use crate::keys::{server_key, url_key};
use crate::meta;
use crate::metrics::Metrics;
use sc_cache::{Lookup, WebCache};
use sc_trace::{group_of_client, Trace};
use std::collections::HashMap;
use summary_cache_core::{
    filter_candidates_key, wire_cost, ProxySummary, SummaryKind, UpdatePolicy, UrlKey,
};

/// Configuration of one summary-cache simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SummaryCacheConfig {
    /// Directory representation.
    pub kind: SummaryKind,
    /// When to publish updates.
    pub policy: UpdatePolicy,
    /// Deliver updates via unreliable multicast (Section V-F: "update
    /// messages can be transferred via a nonreliable multicast scheme"):
    /// one message per publish instead of one per peer. Byte accounting
    /// charges the payload once.
    pub multicast_updates: bool,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct SummarySimResult {
    /// Summary-cache protocol counters.
    pub metrics: Metrics,
    /// What plain ICP would have sent on this workload: one query per
    /// neighbour per local miss.
    pub icp_queries: u64,
    /// Bytes of those queries (70 B each, Section V-D model).
    pub icp_query_bytes: u64,
    /// Per-proxy cache capacity used.
    pub per_proxy_cache_bytes: u64,
    /// Mean over proxies of the memory devoted to *peers'* summaries at
    /// end of run.
    pub avg_peer_summary_bytes: f64,
    /// Mean over proxies of the owner-side summary memory (counters for
    /// Bloom, the structure itself otherwise).
    pub avg_own_summary_bytes: f64,
    /// Table III metric: peer-summary memory as a fraction of the proxy
    /// cache size.
    pub summary_memory_fraction_of_cache: f64,
}

struct ProxyState {
    cache: WebCache<u64>,
    summary: ProxySummary,
}

/// Run the summary-cache simulation over `trace` with
/// `total_cache_bytes` of combined cache split evenly across groups.
pub fn simulate_summary_cache(
    trace: &Trace,
    config: &SummaryCacheConfig,
    total_cache_bytes: u64,
) -> SummarySimResult {
    let groups = trace.groups as usize;
    assert!(groups >= 2, "cache sharing needs at least two proxies");
    let per_proxy = (total_cache_bytes / groups as u64).max(1);

    // Size summaries by the workload's actual mean cacheable document
    // size, so "load factor" keeps its Section V-D meaning of bits per
    // cached document. (The paper divides by a flat 8 KB because its
    // traces averaged that; our synthetic mix differs.)
    let expected_docs = expected_docs_for(trace, per_proxy);

    let mut proxies: Vec<ProxyState> = (0..groups)
        .map(|_| ProxyState {
            cache: WebCache::new(per_proxy),
            summary: ProxySummary::with_expected_docs(config.kind, expected_docs),
        })
        .collect();
    // Server component of each document, learned from the trace, so
    // evictions can maintain server-name summaries.
    let mut server_of: HashMap<u64, u32> = HashMap::new();

    let mut m = Metrics::default();
    let mut icp_queries = 0u64;

    // Bulk trace ingest: each request needs a URL key and a server key,
    // so a pair of consecutive requests fills all four lanes of one
    // interleaved MD5 pass ([`UrlKey::new_batch`]). The keys are pure
    // functions of the trace record, so deriving them a pair ahead
    // changes nothing downstream.
    let mut pairs = trace.requests.chunks_exact(2);
    for pair in pairs.by_ref() {
        let (a, b) = (&pair[0], &pair[1]);
        let (ua, sa) = (url_key(a.url), server_key(a.server));
        let (ub, sb) = (url_key(b.url), server_key(b.server));
        let [ukey_a, skey_a, ukey_b, skey_b] = UrlKey::new_batch([&ua, &sa, &ub, &sb]);
        for (r, ukey, skey) in [(a, ukey_a, skey_a), (b, ukey_b, skey_b)] {
            step_request(
                r,
                &ukey,
                &skey,
                &mut proxies,
                &mut server_of,
                &mut m,
                &mut icp_queries,
                config,
                trace,
            );
        }
    }
    for r in pairs.remainder() {
        // Odd trailing request: scalar keys, same hash-once pipeline.
        let ukey = UrlKey::new(&url_key(r.url));
        let skey = UrlKey::new(&server_key(r.server));
        step_request(
            r,
            &ukey,
            &skey,
            &mut proxies,
            &mut server_of,
            &mut m,
            &mut icp_queries,
            config,
            trace,
        );
    }

    let peer_bytes: Vec<u64> = {
        // Each proxy holds every *other* proxy's published snapshot.
        let snapshot_sizes: Vec<u64> = proxies
            .iter()
            .map(|p| p.summary.peer_memory_bytes() as u64)
            .collect();
        let total: u64 = snapshot_sizes.iter().sum();
        snapshot_sizes.iter().map(|&own| total - own).collect()
    };
    let avg_peer = peer_bytes.iter().sum::<u64>() as f64 / groups as f64;
    let avg_own = proxies
        .iter()
        .map(|p| p.summary.owner_memory_bytes() as u64)
        .sum::<u64>() as f64
        / groups as f64;

    SummarySimResult {
        metrics: m,
        icp_queries,
        icp_query_bytes: icp_queries * wire_cost::QUERY_BYTES as u64,
        per_proxy_cache_bytes: per_proxy,
        avg_peer_summary_bytes: avg_peer,
        avg_own_summary_bytes: avg_own,
        summary_memory_fraction_of_cache: avg_peer / per_proxy as f64,
    }
}

/// Expected cached-document count for a cache of `cache_bytes`, from the
/// trace's mean cacheable (≤ 250 KB) document size.
fn expected_docs_for(trace: &Trace, cache_bytes: u64) -> u64 {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    let mut count = 0u64;
    for r in &trace.requests {
        if r.size <= sc_cache::MAX_CACHEABLE_BYTES && seen.insert(r.url) {
            total += r.size;
            count += 1;
        }
    }
    if count == 0 {
        return 1;
    }
    let mean = (total / count).max(1);
    (cache_bytes / mean).max(1)
}

/// One trace request through the protocol: local lookup, peer-summary
/// probe, query/error accounting, store, and the post-request publish
/// check. The request's two keys arrive pre-digested (hash-once: every
/// peer probe, the stale purge, and the store reuse their indices).
#[allow(clippy::too_many_arguments)]
fn step_request(
    r: &sc_trace::Request,
    ukey: &UrlKey,
    skey: &UrlKey,
    proxies: &mut [ProxyState],
    server_of: &mut HashMap<u64, u32>,
    m: &mut Metrics,
    icp_queries: &mut u64,
    config: &SummaryCacheConfig,
    trace: &Trace,
) {
    let groups = trace.groups as usize;
    m.requests += 1;
    m.requested_bytes += r.size;
    server_of.entry(r.url).or_insert(r.server);
    let home = group_of_client(r.client, trace.groups) as usize;

    let mut local_stale = false;
    match proxies[home].cache.lookup(&r.url, meta(r)) {
        Lookup::Hit => {
            m.local_hits += 1;
            m.hit_bytes += r.size;
            after_request(&mut proxies[home].summary, m, r.time_ms, config, groups);
            return;
        }
        Lookup::StaleHit => {
            m.local_stale_hits += 1;
            local_stale = true;
        }
        Lookup::Miss => {}
    }
    if local_stale {
        // lookup() purged the stale copy; keep the summary in sync.
        proxies[home].summary.remove_key(ukey, skey);
    }

    // Local miss: ICP would query every neighbour now.
    *icp_queries += (groups - 1) as u64;

    // Summary cache probes the published peer summaries instead —
    // the same candidate selection the proxy daemon runs.
    let candidates: Vec<usize> = filter_candidates_key(
        proxies
            .iter()
            .enumerate()
            .filter(|&(g, _)| g != home)
            .map(|(g, p)| (g, p.summary.published())),
        ukey,
        skey,
    );

    // Send queries to the candidates; learn what they actually hold.
    let mut fresh_at_candidate = false;
    let mut stale_at_candidate = false;
    for &g in &candidates {
        m.queries_sent += 1;
        m.query_bytes += wire_cost::QUERY_BYTES as u64;
        match proxies[g].cache.peek(&r.url) {
            Some(have) if have == meta(r) => fresh_at_candidate = true,
            Some(_) => stale_at_candidate = true,
            None => m.wasted_queries += 1,
        }
    }

    // Ground truth over all neighbours, for false-miss accounting.
    let fresh_somewhere = (0..groups).any(|g| {
        g != home && proxies[g].cache.peek(&r.url) == Some(meta(r))
    });

    if fresh_at_candidate {
        m.remote_hits += 1;
        m.hit_bytes += r.size;
    } else {
        if stale_at_candidate {
            m.remote_stale_hits += 1;
        } else if !candidates.is_empty() {
            m.false_hits += 1;
        }
        if fresh_somewhere {
            m.false_misses += 1;
        }
    }

    // Either way the document ends up cached at the home proxy
    // (fetched from the peer on a remote hit, from the server
    // otherwise) — ICP-style simple sharing.
    if let Some(evicted) = proxies[home].cache.store(r.url, meta(r)) {
        proxies[home].summary.insert_key(ukey, skey);
        for victim in evicted {
            let vs = server_key(*server_of.get(&victim).expect("victim was inserted"));
            proxies[home]
                .summary
                .remove_key(&UrlKey::new(&url_key(victim)), &UrlKey::new(&vs));
        }
    }

    after_request(&mut proxies[home].summary, m, r.time_ms, config, groups);
}

fn after_request(
    summary: &mut ProxySummary,
    m: &mut Metrics,
    now_ms: u64,
    config: &SummaryCacheConfig,
    groups: usize,
) {
    if let Some(out) = summary.request_done(config.policy, now_ms) {
        m.publishes += 1;
        let fanout = if config.multicast_updates {
            1
        } else {
            (groups - 1) as u64
        };
        m.update_messages += fanout;
        m.update_bytes += out.update_bytes as u64 * fanout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_trace::{profile, Request, TraceStats};

    fn req(client: u32, url: u64, size: u64, lm: u64) -> Request {
        Request {
            time_ms: 0,
            client,
            url,
            server: (url / 10) as u32,
            size,
            last_modified: lm,
        }
    }

    fn trace2(requests: Vec<Request>) -> Trace {
        Trace {
            name: "t".into(),
            groups: 2,
            requests,
        }
    }

    fn exact_no_delay() -> SummaryCacheConfig {
        SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::Threshold(0.0), // publish after every insert
            multicast_updates: false,
        }
    }

    #[test]
    fn remote_hit_via_fresh_summary() {
        let t = trace2(vec![req(1, 1, 100, 0), req(0, 1, 100, 0)]);
        let r = simulate_summary_cache(&t, &exact_no_delay(), 10_000);
        assert_eq!(r.metrics.remote_hits, 1);
        assert_eq!(r.metrics.queries_sent, 1, "exactly one candidate queried");
        assert_eq!(r.metrics.false_hits, 0);
        assert_eq!(r.metrics.false_misses, 0);
        // ICP would have queried on both misses (1 miss each proxy).
        assert_eq!(r.icp_queries, 2);
    }

    #[test]
    fn stale_summaries_cause_false_misses() {
        // With updates that never fire, proxy 1's insert is never
        // published, so proxy 0 misses the remote copy.
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::EveryRequests(1_000),
            multicast_updates: false,
        };
        let t = trace2(vec![req(1, 1, 100, 0), req(0, 1, 100, 0)]);
        let r = simulate_summary_cache(&t, &cfg, 10_000);
        assert_eq!(r.metrics.remote_hits, 0);
        assert_eq!(r.metrics.false_misses, 1);
        assert_eq!(r.metrics.queries_sent, 0);
    }

    #[test]
    fn deletion_lag_causes_false_hits() {
        // Proxy 1 caches doc 1 (published), then evicts it via capacity
        // pressure (not yet published); proxy 0's probe still points at
        // proxy 1 -> wasted query = false hit.
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::EveryRequests(1_000), // publish manually never
            multicast_updates: false,
        };
        // Capacity 400 total -> 200/proxy -> two 100-byte docs each.
        let t = trace2(vec![
            req(1, 1, 100, 0),
            req(1, 3, 100, 0),
            req(1, 5, 100, 0), // evicts doc 1 at proxy 1
            req(0, 1, 100, 0), // proxy 0 probes...
        ]);
        // Force one publish after the first request so doc 1 is visible:
        // EveryRequests(1000) won't fire; use threshold instead.
        let cfg_pub_first = SummaryCacheConfig {
            policy: UpdatePolicy::Threshold(0.0),
            ..cfg
        };
        // With zero-delay the eviction is also published immediately, so
        // no false hit; with the huge delay nothing is ever published.
        // To exercise deletion lag we need a mid-size threshold: publish
        // fires when >= 50% of docs are fresh.
        let cfg_mid = SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::Threshold(0.5),
            multicast_updates: false,
        };
        let zero = simulate_summary_cache(&t, &cfg_pub_first, 400);
        assert_eq!(zero.metrics.false_hits, 0);
        let mid = simulate_summary_cache(&t, &cfg_mid, 400);
        // After req1: docs=1 fresh=1 -> publish (doc1 visible).
        // After req2: docs=2 fresh=1 -> publish (0.5 threshold met).
        // After req3: doc5 in, doc1 evicted; docs=2 fresh=1 -> publish...
        // publishes keep up here, so instead assert on the huge-delay
        // variant plus a manual middle publish via EveryRequests(2).
        let cfg_every2 = SummaryCacheConfig {
            kind: SummaryKind::ExactDirectory,
            policy: UpdatePolicy::EveryRequests(2),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&t, &cfg_every2, 400);
        // Proxy 1 publishes after its 2nd request (docs 1,3 visible).
        // Doc 1 evicted at request 3 (unpublished). Proxy 0 then probes:
        // summary says proxy 1 has doc 1, but it doesn't -> false hit.
        assert_eq!(r.metrics.false_hits, 1, "{:?}", r.metrics);
        assert_eq!(r.metrics.wasted_queries, 1);
        assert_eq!(mid.metrics.requests, 4);
    }

    #[test]
    fn bloom_false_positives_possible_but_rare() {
        let trace = profile("UPisa").unwrap().generate_scaled(20);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom {
                load_factor: 16,
                hashes: 4,
            },
            policy: UpdatePolicy::Threshold(0.01),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, infinite / 10);
        let rates = r.metrics.rates();
        assert!(
            rates.false_hit_ratio < 0.05,
            "false hits should be rare: {}",
            rates.false_hit_ratio
        );
        assert!(r.metrics.publishes > 0, "updates must actually fire");
    }

    #[test]
    fn summary_cache_hit_ratio_close_to_icp_potential() {
        // The paper's core claim: at a 1% threshold the total hit ratio
        // degrades by at most ~2% relative to always-fresh directories.
        let trace = profile("UPisa").unwrap().generate_scaled(10);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let budget = infinite / 10;
        let fresh = simulate_summary_cache(&trace, &exact_no_delay(), budget);
        let delayed = simulate_summary_cache(
            &trace,
            &SummaryCacheConfig {
                kind: SummaryKind::ExactDirectory,
                policy: UpdatePolicy::Threshold(0.01),
                multicast_updates: false,
            },
            budget,
        );
        let f = fresh.metrics.rates().total_hit_ratio;
        let d = delayed.metrics.rates().total_hit_ratio;
        assert!(d <= f + 1e-9);
        assert!(f - d < 0.02, "degradation {:.4} too large", f - d);
    }

    #[test]
    fn message_reduction_vs_icp() {
        // At 1/10 trace scale each proxy caches only ~1.5k documents, so
        // a 1% threshold fires every ~15 new documents and update
        // traffic is proportionally heavier than in the paper's runs;
        // the full-size bench harness reproduces the 25-60x factor. Here
        // we assert the structural win: queries collapse by >10x and
        // total messages by a solid factor even at toy scale.
        let trace = profile("UPisa").unwrap().generate_scaled(10);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        // At this scale a proxy caches only dozens of documents, so a 1%
        // threshold degenerates to "publish every insert"; use the
        // paper's equivalent request-cadence trigger (Section V-A: the
        // thresholds translate to ~300-3000 requests between updates).
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom {
                load_factor: 16,
                hashes: 4,
            },
            policy: UpdatePolicy::EveryRequests(200),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, infinite / 10);
        assert!(
            r.icp_queries > r.metrics.queries_sent * 8,
            "query reduction: icp={} sc={}",
            r.icp_queries,
            r.metrics.queries_sent
        );
        let sc_msgs = r.metrics.queries_sent + r.metrics.update_messages;
        assert!(
            r.icp_queries > sc_msgs * 10,
            "message reduction: icp={} sc={}",
            r.icp_queries,
            sc_msgs
        );
    }

    #[test]
    fn memory_ordering_exact_vs_bloom() {
        let trace = profile("UPisa").unwrap().generate_scaled(20);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let budget = infinite / 10;
        let mem = |kind| {
            simulate_summary_cache(
                &trace,
                &SummaryCacheConfig {
                    kind,
                    policy: UpdatePolicy::Threshold(0.01),
                    multicast_updates: false,
                },
                budget,
            )
            .avg_peer_summary_bytes
        };
        let exact = mem(SummaryKind::ExactDirectory);
        let server = mem(SummaryKind::ServerName);
        let bloom8 = mem(SummaryKind::Bloom { load_factor: 8, hashes: 4 });
        let bloom32 = mem(SummaryKind::Bloom { load_factor: 32, hashes: 4 });
        // Table III ordering: exact > server-name > bloom32 > bloom8.
        // (At full trace scale server-name approaches the paper's ~10x
        // advantage over exact; this scaled-down trace shows the
        // ordering with a smaller gap.)
        assert!(server < exact, "server {server} < exact {exact}");
        assert!(bloom8 < server, "bloom8 {bloom8} < server {server}");
        assert!(
            bloom32 > bloom8 * 3.0 && bloom32 < bloom8 * 5.0,
            "bloom sizes scale with load factor: {bloom8} vs {bloom32}"
        );
    }

    #[test]
    fn multicast_collapses_update_fanout() {
        let trace = profile("UPisa").unwrap().generate_scaled(20);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let base = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: 16, hashes: 4 },
            policy: UpdatePolicy::EveryRequests(100),
            multicast_updates: false,
        };
        let uni = simulate_summary_cache(&trace, &base, infinite / 10);
        let multi = simulate_summary_cache(
            &trace,
            &SummaryCacheConfig { multicast_updates: true, ..base },
            infinite / 10,
        );
        assert_eq!(uni.metrics.publishes, multi.metrics.publishes);
        assert_eq!(
            uni.metrics.update_messages,
            multi.metrics.update_messages * 7,
            "8 groups: unicast fanout is 7x multicast"
        );
        assert_eq!(
            uni.metrics.local_hits + uni.metrics.remote_hits,
            multi.metrics.local_hits + multi.metrics.remote_hits,
            "transport does not change hit behaviour"
        );
    }

    #[test]
    #[should_panic(expected = "at least two proxies")]
    fn rejects_single_group() {
        let t = Trace {
            name: "x".into(),
            groups: 1,
            requests: vec![],
        };
        simulate_summary_cache(&t, &exact_no_delay(), 100);
    }
}
