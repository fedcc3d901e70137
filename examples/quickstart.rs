//! Quickstart: the summary-cache idea in sixty lines.
//!
//! Two proxies keep Bloom-filter summaries of each other's cache
//! directories. A miss probes the summaries first and queries only
//! promising peers — the paper's replacement for ICP's query-everyone.
//!
//! Run with: `cargo run --example quickstart`

use summary_cache::bloom::analysis;
use summary_cache::core::{filter_candidates_key, ProxySummary, SummaryKind, UpdatePolicy, UrlKey};

fn main() {
    // Proxy B summarizes its directory at the paper's recommended
    // configuration: a Bloom filter with 8 bits per document, 4 hashes.
    let kind = SummaryKind::recommended();
    let mut proxy_b = ProxySummary::new(kind, 64 << 20); // 64 MB cache

    // B caches some documents. Each URL (and its server component) is
    // digested once into a `UrlKey`; every summary operation reuses it.
    let server = UrlKey::new(b"b-site.example");
    for doc in ["/index.html", "/logo.png", "/news/today.html"] {
        let url = format!("http://b-site.example{doc}");
        proxy_b.insert_key(&UrlKey::new(url.as_bytes()), &server);
    }

    // …and publishes its summary when the update policy fires (here:
    // the paper's 1% threshold, trivially exceeded by a cold cache).
    let policy = UpdatePolicy::recommended();
    assert!(policy.should_publish(proxy_b.fresh_docs(), proxy_b.docs(), 3, 0));
    let update = proxy_b.publish();
    println!(
        "proxy B published {} bit flips ({} bytes on the wire)",
        update.changes, update.update_bytes
    );

    // Proxy A holds B's published snapshot, keyed by B's peer id.
    let peers = [(1u32, proxy_b.snapshot_published())];
    let probe_all = |url: &UrlKey, server: &UrlKey| {
        filter_candidates_key(peers.iter().map(|(id, snap)| (*id, snap)), url, server)
    };

    // A's local miss for a document B has: the probe says "ask B".
    let url = UrlKey::new(b"http://b-site.example/index.html");
    let hit = probe_all(&url, &server);
    println!("probe for /index.html      -> query peers {hit:?}");
    assert_eq!(hit, vec![1]);

    // A's local miss for a document nobody has: no queries at all —
    // where ICP would have multicast to every neighbour.
    let url = UrlKey::new(b"http://elsewhere.example/x");
    let miss = probe_all(&url, &UrlKey::new(b"elsewhere.example"));
    println!("probe for unknown document -> query peers {miss:?} (ICP would ask everyone)");
    assert!(miss.is_empty());

    // The price: a known, tunable false-positive rate.
    let p = analysis::false_positive_probability_asymptotic(8.0, 4);
    println!(
        "false-positive probability at load factor 8, k=4: {:.2}% (paper: ~2%)",
        p * 100.0
    );
    println!(
        "memory for B's summary at A: {} bytes for {} documents",
        peers[0].1.memory_bytes(),
        proxy_b.docs()
    );
}
