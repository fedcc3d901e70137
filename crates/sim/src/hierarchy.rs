//! Two-level cache hierarchies (the paper's Section VIII note that
//! "summary cache enhanced ICP can be used between parent and child
//! proxies" — a scenario the paper names but does not simulate).
//!
//! Topology: the trace's proxy groups are *child* proxies behind one
//! *parent* (the Harvest/Squid hierarchy shape, and exactly Questnet's
//! real deployment). A child miss consults its siblings — optionally
//! through summary-cache probes — and then falls through to the parent,
//! which caches what it fetches. The quantity of interest is how much
//! sibling cache sharing offloads the parent and the origin.

use crate::keys::{server_key, url_key};
use crate::summary_sim::SummaryCacheConfig;
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_trace::{group_of_client, Trace};
use std::collections::HashMap;
use summary_cache_core::{ProxySummary, UrlKey};

/// Hierarchy simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Sibling cooperation: `None` = children work alone (classic
    /// hierarchy); `Some(cfg)` = children share via summary cache
    /// before asking the parent.
    pub sibling_sharing: Option<SummaryCacheConfig>,
    /// Combined capacity of the child tier, bytes (split evenly).
    pub child_tier_bytes: u64,
    /// Parent cache capacity, bytes.
    pub parent_bytes: u64,
}

/// What a hierarchy run produces.
#[derive(Debug, Clone)]
pub struct HierarchyResult {
    /// User requests processed.
    pub requests: u64,
    /// Served at the requesting child.
    pub child_hits: u64,
    /// Served by a sibling (only with sharing enabled).
    pub sibling_hits: u64,
    /// Served by the parent cache.
    pub parent_hits: u64,
    /// Fetched from the origin (through the parent).
    pub origin_fetches: u64,
    /// Requests that reached the parent at all — its load.
    pub parent_requests: u64,
    /// Sibling query messages (unicast; 0 without sharing).
    pub sibling_queries: u64,
    /// Summary update messages among siblings.
    pub update_messages: u64,
}

impl HierarchyResult {
    /// Total in-hierarchy hit ratio (anything short of the origin).
    pub fn hierarchy_hit_ratio(&self) -> f64 {
        let n = self.requests.max(1) as f64;
        (self.child_hits + self.sibling_hits + self.parent_hits) as f64 / n
    }

    /// Fraction of requests the parent had to handle.
    pub fn parent_load(&self) -> f64 {
        self.parent_requests as f64 / self.requests.max(1) as f64
    }

    /// Hit ratio *of the parent cache itself*, over the requests that
    /// reached it. This is where the filter effect shows: sibling
    /// sharing strips the popular tail before the parent sees it, so
    /// the parent serves a flattened, hard-to-cache stream.
    pub fn parent_hit_ratio(&self) -> f64 {
        self.parent_hits as f64 / self.parent_requests.max(1) as f64
    }
}

/// Run `trace` through the hierarchy under each sibling-sharing scheme
/// — none, Bloom (the paper's recommended lf 8 / 4 hashes), exact
/// directory, and server name — and hand back the labeled results.
/// This is the filter-effect sweep: compare [`HierarchyResult::parent_hit_ratio`]
/// across rows to see how much each sharing scheme starves the parent.
pub fn filter_effect(
    trace: &Trace,
    child_tier_bytes: u64,
    parent_bytes: u64,
) -> Vec<(String, HierarchyResult)> {
    use summary_cache_core::{SummaryKind, UpdatePolicy};
    let schemes: [(&str, Option<SummaryKind>); 4] = [
        ("no-sharing", None),
        (
            "bloom",
            Some(SummaryKind::Bloom {
                load_factor: 8,
                hashes: 4,
            }),
        ),
        ("exact-directory", Some(SummaryKind::ExactDirectory)),
        ("server-name", Some(SummaryKind::ServerName)),
    ];
    schemes
        .into_iter()
        .map(|(label, kind)| {
            let cfg = HierarchyConfig {
                sibling_sharing: kind.map(|kind| SummaryCacheConfig {
                    kind,
                    policy: UpdatePolicy::EveryRequests(50),
                    multicast_updates: false,
                }),
                child_tier_bytes,
                parent_bytes,
            };
            (label.to_string(), simulate_hierarchy(trace, &cfg))
        })
        .collect()
}

/// Run the hierarchy over a trace.
pub fn simulate_hierarchy(trace: &Trace, cfg: &HierarchyConfig) -> HierarchyResult {
    let groups = trace.groups as usize;
    assert!(groups >= 1);
    let per_child = (cfg.child_tier_bytes / groups as u64).max(1);

    let mut children: Vec<WebCache<u64>> = (0..groups).map(|_| WebCache::new(per_child)).collect();
    let mut summaries: Vec<ProxySummary> = match &cfg.sibling_sharing {
        Some(sc) => (0..groups)
            .map(|_| {
                ProxySummary::with_expected_docs(
                    sc.kind,
                    (per_child / summary_cache_core::AVG_DOC_BYTES).max(16),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    let mut requests_since: Vec<u64> = vec![0; groups];
    let mut parent: WebCache<u64> = WebCache::new(cfg.parent_bytes.max(1));
    let mut server_of: HashMap<u64, u32> = HashMap::new();

    let mut r_out = HierarchyResult {
        requests: 0,
        child_hits: 0,
        sibling_hits: 0,
        parent_hits: 0,
        origin_fetches: 0,
        parent_requests: 0,
        sibling_queries: 0,
        update_messages: 0,
    };

    for req in &trace.requests {
        r_out.requests += 1;
        server_of.entry(req.url).or_insert(req.server);
        let home = group_of_client(req.client, trace.groups) as usize;
        let meta = DocMeta {
            size: req.size,
            last_modified: req.last_modified,
        };
        let mut local_stale = false;
        match children[home].lookup(&req.url, meta) {
            Lookup::Hit => {
                r_out.child_hits += 1;
                continue;
            }
            Lookup::StaleHit => local_stale = true,
            Lookup::Miss => {}
        }
        let ukey = UrlKey::new(&url_key(req.url));
        let skey = UrlKey::new(&server_key(req.server));
        if local_stale && !summaries.is_empty() {
            summaries[home].remove_key(&ukey, &skey);
        }

        // Sibling tier (summary-cache style), if enabled.
        let mut served_by_sibling = false;
        if let Some(sc) = &cfg.sibling_sharing {
            let candidates: Vec<usize> = summary_cache_core::filter_candidates_key(
                (0..groups)
                    .filter(|&g| g != home)
                    .map(|g| (g, summaries[g].published())),
                &ukey,
                &skey,
            );
            r_out.sibling_queries += candidates.len() as u64;
            for g in candidates {
                if children[g].peek(&req.url) == Some(meta) {
                    served_by_sibling = true;
                    break;
                }
            }
            // Publish bookkeeping for the home child.
            requests_since[home] += 1;
            if sc.policy.should_publish(
                summaries[home].fresh_docs(),
                summaries[home].docs(),
                requests_since[home],
                0,
            ) {
                summaries[home].publish();
                r_out.update_messages += (groups - 1) as u64;
                requests_since[home] = 0;
            }
        }

        if served_by_sibling {
            r_out.sibling_hits += 1;
        } else {
            // Fall through to the parent.
            r_out.parent_requests += 1;
            match parent.lookup(&req.url, meta) {
                Lookup::Hit => r_out.parent_hits += 1,
                Lookup::StaleHit | Lookup::Miss => {
                    r_out.origin_fetches += 1;
                    parent.store(req.url, meta);
                }
            }
        }

        // Either way, the child caches the document.
        if let Some(evicted) = children[home].store(req.url, meta) {
            if !summaries.is_empty() {
                summaries[home].insert_key(&ukey, &skey);
                for victim in evicted {
                    let vs = UrlKey::new(&server_key(server_of[&victim]));
                    summaries[home].remove_key(&UrlKey::new(&url_key(victim)), &vs);
                }
            }
        }
    }
    r_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_trace::{profile, TraceStats};
    use summary_cache_core::{SummaryKind, UpdatePolicy};

    fn run(sharing: bool) -> HierarchyResult {
        let trace = profile("Questnet").unwrap().generate_scaled(20);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let cfg = HierarchyConfig {
            sibling_sharing: sharing.then_some(SummaryCacheConfig {
                kind: SummaryKind::Bloom {
                    load_factor: 16,
                    hashes: 4,
                },
                policy: UpdatePolicy::EveryRequests(50),
                multicast_updates: false,
            }),
            child_tier_bytes: infinite / 10,
            parent_bytes: infinite / 10,
        };
        simulate_hierarchy(&trace, &cfg)
    }

    #[test]
    fn accounting_adds_up() {
        for sharing in [false, true] {
            let r = run(sharing);
            assert_eq!(
                r.child_hits + r.sibling_hits + r.parent_hits + r.origin_fetches,
                r.requests,
                "sharing={sharing}"
            );
            assert_eq!(
                r.parent_requests,
                r.parent_hits + r.origin_fetches,
                "parent sees exactly what siblings could not serve"
            );
        }
    }

    #[test]
    fn sibling_sharing_offloads_the_parent() {
        let alone = run(false);
        let shared = run(true);
        assert_eq!(alone.sibling_hits, 0);
        assert!(shared.sibling_hits > 0, "siblings serve each other");
        assert!(
            shared.parent_load() < alone.parent_load(),
            "parent load must drop: {} vs {}",
            shared.parent_load(),
            alone.parent_load()
        );
        // Total hierarchy hit ratio should not get worse.
        assert!(shared.hierarchy_hit_ratio() >= alone.hierarchy_hit_ratio() - 0.02);
    }

    #[test]
    fn no_sharing_means_no_sibling_traffic() {
        let r = run(false);
        assert_eq!(r.sibling_queries, 0);
        assert_eq!(r.update_messages, 0);
    }

    fn cfg_plain(child_tier_bytes: u64, parent_bytes: u64) -> HierarchyConfig {
        HierarchyConfig {
            sibling_sharing: None,
            child_tier_bytes,
            parent_bytes,
        }
    }

    fn one_doc_trace(clients: u32, repeats_per_client: u32) -> sc_trace::Trace {
        let mut requests = Vec::new();
        for rep in 0..repeats_per_client {
            for client in 0..clients {
                requests.push(sc_trace::Request {
                    time_ms: (rep * clients + client) as u64,
                    client,
                    url: 7,
                    server: 1,
                    size: 2048,
                    last_modified: 0,
                });
            }
        }
        sc_trace::Trace {
            name: "one-doc".into(),
            groups: clients,
            requests,
        }
    }

    #[test]
    fn empty_trace_yields_zero_ratios_not_nan() {
        let trace = sc_trace::Trace {
            name: "empty".into(),
            groups: 3,
            requests: Vec::new(),
        };
        let r = simulate_hierarchy(&trace, &cfg_plain(1 << 20, 1 << 20));
        assert_eq!(r.requests, 0);
        assert_eq!(r.hierarchy_hit_ratio(), 0.0);
        assert_eq!(r.parent_load(), 0.0);
        assert_eq!(r.parent_hit_ratio(), 0.0);
    }

    /// Children too small to hold even one document: every request
    /// falls through, the first one fetches from the origin, and the
    /// parent serves everything after that.
    #[test]
    fn parent_serves_everything_when_children_cannot_cache() {
        let trace = one_doc_trace(4, 3);
        // per-child = 0/4 -> clamped to 1 byte, doc is 2 KiB: unstorable.
        let r = simulate_hierarchy(&trace, &cfg_plain(0, 1 << 20));
        assert_eq!(r.child_hits, 0, "1-byte children cannot hit");
        assert_eq!(r.sibling_hits, 0);
        assert_eq!(r.parent_load(), 1.0, "every request reaches the parent");
        assert_eq!(r.origin_fetches, 1, "only the cold fetch leaves the hierarchy");
        assert_eq!(r.parent_hits, r.requests - 1);
        assert_eq!(r.parent_hit_ratio(), (r.requests - 1) as f64 / r.requests as f64);
    }

    /// Zero capacity at *both* tiers must degrade to pure origin
    /// fetching without panicking or corrupting the accounting.
    #[test]
    fn zero_capacity_everywhere_degrades_to_origin_only() {
        let trace = one_doc_trace(2, 5);
        let r = simulate_hierarchy(&trace, &cfg_plain(0, 0));
        assert_eq!(r.requests, 10);
        assert_eq!(r.origin_fetches, r.requests, "nothing can be cached anywhere");
        assert_eq!(r.hierarchy_hit_ratio(), 0.0);
        assert_eq!(r.parent_load(), 1.0);
        assert_eq!(
            r.child_hits + r.sibling_hits + r.parent_hits + r.origin_fetches,
            r.requests
        );
    }

    /// The filter-effect sweep over the canned two-level scenario:
    /// every sharing scheme keeps the accounting identity, sharing rows
    /// actually query siblings, and sibling sharing starves the parent
    /// (lower parent load than the no-sharing baseline) — the effect
    /// the selection-policy literature warns hierarchy evaluations
    /// about.
    #[test]
    fn filter_effect_rows_are_consistent_and_starve_the_parent() {
        let scenario = sc_trace::scenario::two_level_hierarchy(4, 0x2113);
        let trace = scenario.to_trace();
        let stats = TraceStats::compute(&trace).infinite_cache_bytes;
        let rows = filter_effect(&trace, stats / 4, stats / 4);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, "no-sharing");
        let baseline = &rows[0].1;
        assert_eq!(baseline.sibling_queries, 0);
        for (label, r) in &rows {
            assert_eq!(
                r.child_hits + r.sibling_hits + r.parent_hits + r.origin_fetches,
                r.requests,
                "{label}: accounting must add up"
            );
            assert_eq!(r.requests, trace.requests.len() as u64, "{label}");
        }
        for (label, r) in &rows[1..] {
            assert!(r.sibling_queries > 0, "{label}: sharing must probe siblings");
            assert!(r.sibling_hits > 0, "{label}: siblings must serve something");
            assert!(
                r.parent_load() < baseline.parent_load(),
                "{label}: sharing must offload the parent ({} vs {})",
                r.parent_load(),
                baseline.parent_load()
            );
        }
    }
}
