//! Per-representation summary costs: the probe a proxy runs against
//! every peer summary on every local miss, and the publish that turns
//! pending changes into an update message.

use sc_util::bench::{black_box, Bench};
use summary_cache_core::{ProxySummary, SummaryKind, UrlKey};

/// Pre-hashed URL and server keys: each row's cost includes digesting
/// them, as a request pays once before probing or storing.
fn keys(i: u32) -> (UrlKey, UrlKey) {
    (
        UrlKey::new(format!("http://server-{}.trace.invalid/doc/{}", i / 12, i).as_bytes()),
        UrlKey::new(format!("server-{}.trace.invalid", i / 12).as_bytes()),
    )
}

fn kinds() -> Vec<SummaryKind> {
    vec![
        SummaryKind::ExactDirectory,
        SummaryKind::ServerName,
        SummaryKind::Bloom { load_factor: 8, hashes: 4 },
        SummaryKind::Bloom { load_factor: 16, hashes: 4 },
    ]
}

fn loaded(kind: SummaryKind, docs: u32) -> ProxySummary {
    let mut s = ProxySummary::with_expected_docs(kind, docs as u64);
    for i in 0..docs {
        let (u, srv) = keys(i);
        s.insert_key(&u, &srv);
    }
    s.publish();
    s
}

fn main() {
    let mut b = Bench::new("summary");

    for kind in kinds() {
        let s = loaded(kind, 20_000);
        let mut i = 0u32;
        b.bench(&format!("probe/{}", kind.label()), || {
            let (u, srv) = keys(i % 40_000);
            i = i.wrapping_add(1);
            black_box(s.probe_published_key(black_box(&u), black_box(&srv)));
        });
    }

    for kind in kinds() {
        let mut s = loaded(kind, 20_000);
        let mut i = 100_000u32;
        b.bench(&format!("insert+remove/{}", kind.label()), || {
            let (u, srv) = keys(i);
            s.insert_key(&u, &srv);
            s.remove_key(&u, &srv);
            i = i.wrapping_add(1);
        });
    }

    for kind in kinds() {
        let mut s = loaded(kind, 20_000);
        let mut i = 500_000u32;
        b.bench(&format!("publish-1%churn/{}", kind.label()), || {
            for _ in 0..200 {
                let (u, srv) = keys(i);
                s.insert_key(&u, &srv);
                i = i.wrapping_add(1);
            }
            black_box(s.publish());
        });
    }
}
