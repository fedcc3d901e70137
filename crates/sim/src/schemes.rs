//! The Section III cooperation-scheme comparison (Fig. 1).
//!
//! Four schemes plus the paper's "global cache 10 % smaller" control:
//!
//! * **NoSharing** — proxies serve only their own clients;
//! * **SimpleSharing** — ICP-style: a local miss that some neighbour can
//!   serve becomes a remote hit, and the document is also cached
//!   locally (duplicates allowed, no coordinated replacement);
//! * **SingleCopy** — like SimpleSharing but the fetching proxy does
//!   *not* keep a copy; the serving proxy promotes the document instead;
//! * **Global** — one unified LRU cache of the combined capacity;
//! * **GlobalShrunk** — Global with 10 % less capacity (the paper's
//!   check that duplicate waste barely matters).

use crate::metrics::Metrics;
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_trace::{group_of_client, Trace};

/// Which cooperation scheme to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Proxies serve only their own clients.
    NoSharing,
    /// ICP-style sharing: remote hits are fetched and cached locally.
    SimpleSharing,
    /// Sharing without duplication: the serving proxy promotes its copy.
    SingleCopy,
    /// One unified cache of the combined capacity.
    Global,
    /// Global cache with capacity scaled by 0.9.
    GlobalShrunk,
}

impl SchemeKind {
    /// All schemes in Fig. 1 order.
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::NoSharing,
            SchemeKind::SimpleSharing,
            SchemeKind::SingleCopy,
            SchemeKind::Global,
            SchemeKind::GlobalShrunk,
        ]
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::NoSharing => "no-sharing",
            SchemeKind::SimpleSharing => "simple",
            SchemeKind::SingleCopy => "single-copy",
            SchemeKind::Global => "global",
            SchemeKind::GlobalShrunk => "global-90%",
        }
    }
}

/// Simulate `scheme` over `trace` with `total_cache_bytes` of combined
/// cache, split evenly across the trace's proxy groups (global schemes
/// use it as one cache).
pub fn simulate_scheme(trace: &Trace, scheme: SchemeKind, total_cache_bytes: u64) -> Metrics {
    match scheme {
        SchemeKind::Global => simulate_global(trace, total_cache_bytes),
        SchemeKind::GlobalShrunk => {
            simulate_global(trace, (total_cache_bytes as f64 * 0.9) as u64)
        }
        _ => simulate_partitioned(trace, scheme, total_cache_bytes),
    }
}

fn meta(r: &sc_trace::Request) -> DocMeta {
    DocMeta {
        size: r.size,
        last_modified: r.last_modified,
    }
}

fn simulate_global(trace: &Trace, cache_bytes: u64) -> Metrics {
    let mut cache: WebCache<u64> = WebCache::new(cache_bytes.max(1));
    let mut m = Metrics::default();
    for r in &trace.requests {
        m.requests += 1;
        m.requested_bytes += r.size;
        match cache.lookup(&r.url, meta(r)) {
            Lookup::Hit => {
                m.local_hits += 1;
                m.hit_bytes += r.size;
            }
            Lookup::StaleHit => {
                m.local_stale_hits += 1;
                cache.store(r.url, meta(r));
            }
            Lookup::Miss => {
                cache.store(r.url, meta(r));
            }
        }
    }
    m
}

fn simulate_partitioned(trace: &Trace, scheme: SchemeKind, total_cache_bytes: u64) -> Metrics {
    let groups = trace.groups as usize;
    let per_proxy = (total_cache_bytes / groups as u64).max(1);
    let mut caches: Vec<WebCache<u64>> = (0..groups).map(|_| WebCache::new(per_proxy)).collect();
    let mut m = Metrics::default();

    for r in &trace.requests {
        m.requests += 1;
        m.requested_bytes += r.size;
        let home = group_of_client(r.client, trace.groups) as usize;
        match caches[home].lookup(&r.url, meta(r)) {
            Lookup::Hit => {
                m.local_hits += 1;
                m.hit_bytes += r.size;
                continue;
            }
            Lookup::StaleHit => {
                m.local_stale_hits += 1;
            }
            Lookup::Miss => {}
        }
        if scheme == SchemeKind::NoSharing {
            caches[home].store(r.url, meta(r));
            continue;
        }
        // Ask the neighbours, in group order: ICP consults the real
        // cache, so membership is never wrong (message accounting lives
        // in the summary simulator). Freshness is still checked per
        // neighbour holding a copy.
        let mut remote: Option<usize> = None;
        let mut remote_stale = false;
        for g in (0..groups).filter(|&g| g != home) {
            match caches[g].peek(&r.url) {
                Some(doc) if doc == meta(r) => {
                    remote = Some(g);
                    break;
                }
                Some(_) => remote_stale = true,
                None => {}
            }
        }
        match remote {
            Some(g) => {
                m.remote_hits += 1;
                m.hit_bytes += r.size;
                match scheme {
                    SchemeKind::SimpleSharing => {
                        // Fetch from the neighbour and cache locally.
                        caches[home].store(r.url, meta(r));
                    }
                    SchemeKind::SingleCopy => {
                        // The neighbour promotes its copy instead.
                        caches[g].touch(&r.url);
                    }
                    _ => unreachable!("global handled above"),
                }
            }
            None => {
                if remote_stale {
                    m.remote_stale_hits += 1;
                }
                caches[home].store(r.url, meta(r));
            }
        }
    }
    m
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
            server: 0,
            size,
            last_modified: lm,
        }
    }

    fn two_proxy_trace(requests: Vec<Request>) -> Trace {
        Trace {
            name: "t".into(),
            groups: 2,
            requests,
        }
    }

    #[test]
    fn sharing_turns_neighbour_copies_into_remote_hits() {
        // Client 0 -> proxy 0, client 1 -> proxy 1.
        let t = two_proxy_trace(vec![req(0, 1, 100, 0), req(1, 1, 100, 0)]);
        let none = simulate_scheme(&t, SchemeKind::NoSharing, 10_000);
        assert_eq!(none.local_hits + none.remote_hits, 0);
        let simple = simulate_scheme(&t, SchemeKind::SimpleSharing, 10_000);
        assert_eq!(simple.remote_hits, 1);
        let single = simulate_scheme(&t, SchemeKind::SingleCopy, 10_000);
        assert_eq!(single.remote_hits, 1);
        let global = simulate_scheme(&t, SchemeKind::Global, 10_000);
        assert_eq!(global.local_hits, 1, "one unified cache: plain hit");
    }

    #[test]
    fn simple_sharing_duplicates_single_copy_does_not() {
        // After a remote hit, a repeat request from the same client:
        // under simple sharing it is now a *local* hit; under
        // single-copy it is a remote hit again.
        let t = two_proxy_trace(vec![
            req(1, 1, 100, 0), // proxy 1 caches
            req(0, 1, 100, 0), // proxy 0 remote hit
            req(0, 1, 100, 0), // depends on scheme
        ]);
        let simple = simulate_scheme(&t, SchemeKind::SimpleSharing, 10_000);
        assert_eq!((simple.local_hits, simple.remote_hits), (1, 1));
        let single = simulate_scheme(&t, SchemeKind::SingleCopy, 10_000);
        assert_eq!((single.local_hits, single.remote_hits), (0, 2));
    }

    #[test]
    fn single_copy_promotion_protects_shared_documents() {
        // Proxy 1 has capacity for 2 docs of 100 bytes (total 400 split
        // across 2 proxies = 200 each). Doc 1 is remotely hit (promoted),
        // then doc 3 is inserted at proxy 1: doc 5 (not promoted) must be
        // the victim, keeping doc 1 remotely available.
        let t = two_proxy_trace(vec![
            req(1, 1, 100, 0), // proxy1: [1]
            req(1, 5, 100, 0), // proxy1: [5,1]
            req(0, 1, 100, 0), // remote hit -> promote 1 at proxy1: [1,5]
            req(1, 3, 100, 0), // proxy1 evicts 5: [3,1]
            req(0, 1, 100, 0), // still a remote hit
        ]);
        let single = simulate_scheme(&t, SchemeKind::SingleCopy, 400);
        assert_eq!(single.remote_hits, 2);
    }

    #[test]
    fn stale_neighbour_copy_is_remote_stale_hit() {
        let t = two_proxy_trace(vec![
            req(1, 1, 100, 0), // proxy 1 caches version 0
            req(0, 1, 100, 7), // version 7 requested: remote copy stale
        ]);
        let m = simulate_scheme(&t, SchemeKind::SimpleSharing, 10_000);
        assert_eq!(m.remote_hits, 0);
        assert_eq!(m.remote_stale_hits, 1);
    }

    #[test]
    fn fig1_ordering_holds_on_profile_trace() {
        // The paper's headline result: every sharing scheme beats no
        // sharing; sharing schemes land close to the global cache.
        let trace = profile("UPisa").unwrap().generate_scaled(10);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let budget = (infinite as f64 * 0.10) as u64;
        let hit = |k: SchemeKind| simulate_scheme(&trace, k, budget).rates().total_hit_ratio;
        let none = hit(SchemeKind::NoSharing);
        let simple = hit(SchemeKind::SimpleSharing);
        let single = hit(SchemeKind::SingleCopy);
        let global = hit(SchemeKind::Global);
        assert!(simple > none + 0.03, "sharing helps: {simple} vs {none}");
        assert!(single > none + 0.03);
        assert!(global > none + 0.03);
        assert!(
            (simple - global).abs() < 0.1,
            "simple ({simple}) ~ global ({global})"
        );
    }

    #[test]
    fn global_shrunk_close_to_global() {
        let trace = profile("UPisa").unwrap().generate_scaled(10);
        let infinite = TraceStats::compute(&trace).infinite_cache_bytes;
        let budget = (infinite as f64 * 0.10) as u64;
        let g = simulate_scheme(&trace, SchemeKind::Global, budget).rates().total_hit_ratio;
        let s = simulate_scheme(&trace, SchemeKind::GlobalShrunk, budget)
            .rates()
            .total_hit_ratio;
        assert!(s <= g + 1e-9);
        assert!(g - s < 0.03, "10% less space barely matters: {g} vs {s}");
    }
}
