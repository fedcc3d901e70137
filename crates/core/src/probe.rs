//! One probe abstraction for every summary view.
//!
//! The protocol asks the same question of two data structures — "might
//! this URL be cached at that proxy?" — a peer's installed
//! [`SummarySnapshot`] and the published side of one's own
//! [`ProxySummary`]. [`SummaryProbe`] unifies them so the simulators
//! share one candidate-selection routine ([`filter_candidates_key`])
//! instead of parallel inherent methods.

use crate::representation::SummarySnapshot;
use crate::summary::ProxySummary;
use sc_bloom::UrlKey;

/// "Might `url` (with server component `server`) be cached there?"
///
/// `false` is definite under a fresh summary; with update delay both
/// errors are possible and tolerated (§IV): a false hit costs a wasted
/// query, a false miss a lost remote hit — never a wrong document.
///
/// The keys arrive pre-hashed, so every implementation compares the
/// digest computed at key construction or reuses the key's memoized
/// index set: the URL is digested once per request, not once per peer.
pub trait SummaryProbe {
    /// Evaluate the membership probe.
    fn probe_key(&self, url: &UrlKey, server: &UrlKey) -> bool;
}

impl<T: SummaryProbe + ?Sized> SummaryProbe for &T {
    fn probe_key(&self, url: &UrlKey, server: &UrlKey) -> bool {
        (**self).probe_key(url, server)
    }
}

impl SummaryProbe for SummarySnapshot {
    fn probe_key(&self, url: &UrlKey, server: &UrlKey) -> bool {
        SummarySnapshot::probe_key(self, url, server)
    }
}

/// The *published* side of a [`ProxySummary`] — what peers currently
/// believe. Obtained from [`ProxySummary::published`].
#[derive(Clone, Copy)]
pub struct PublishedView<'a>(pub(crate) &'a ProxySummary);

impl SummaryProbe for PublishedView<'_> {
    fn probe_key(&self, url: &UrlKey, server: &UrlKey) -> bool {
        self.0.probe_published_key(url, server)
    }
}

/// The candidate-selection step every sharing scheme performs: keep the
/// peers whose summaries answer the probe positively, in iteration
/// order. Used by the trace-driven simulators over `(id, summary)`
/// pairs. The URL is hashed once when the request is admitted, and
/// every peer probe reuses the key's digest and memoized index set —
/// `1` MD5 derivation per request instead of `2 × k × peers`.
pub fn filter_candidates_key<Id, P, I>(peers: I, url: &UrlKey, server: &UrlKey) -> Vec<Id>
where
    P: SummaryProbe,
    I: IntoIterator<Item = (Id, P)>,
{
    peers
        .into_iter()
        .filter(|(_, summary)| summary.probe_key(url, server))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::SummaryKind;

    fn summary_with(urls: &[(&[u8], &[u8])], kind: SummaryKind) -> ProxySummary {
        let mut s = ProxySummary::new(kind, 1 << 20);
        for (u, srv) in urls {
            s.insert_key(&UrlKey::new(u), &UrlKey::new(srv));
        }
        s
    }

    fn keys(url: &[u8], server: &[u8]) -> (UrlKey, UrlKey) {
        (UrlKey::new(url), UrlKey::new(server))
    }

    /// What a snapshot says about raw bytes, digested afresh with the
    /// retained primitives — the reference the key path must match.
    fn reference_probe(snap: &SummarySnapshot, url: &[u8], server: &[u8]) -> bool {
        match snap {
            SummarySnapshot::Exact(set) => set.contains(&sc_md5::md5(url)),
            SummarySnapshot::Server(set) => set.contains(&sc_md5::md5(server)),
            SummarySnapshot::Bloom { spec, bits } => {
                spec.indices(url).iter().all(|&i| bits.get(i as usize))
            }
        }
    }

    #[test]
    fn snapshot_and_filter_probe_through_the_trait() {
        let mut s = summary_with(&[(b"http://a/x", b"a")], SummaryKind::ExactDirectory);
        s.publish();
        let snap = s.snapshot_published();
        let (x, a) = keys(b"http://a/x", b"a");
        assert!(SummaryProbe::probe_key(&snap, &x, &a));
        assert!(!SummaryProbe::probe_key(&snap, &UrlKey::new(b"http://a/y"), &a));

        let mut bloom = summary_with(&[(b"http://a/x", b"a")], SummaryKind::recommended());
        assert!(!SummaryProbe::probe_key(&bloom.published(), &x, &a), "not yet published");
        bloom.publish();
        assert!(SummaryProbe::probe_key(&bloom.published(), &x, &a));
    }

    /// Key-based candidate selection agrees with a reference digested
    /// from the raw bytes, across every representation and at mixed
    /// representations.
    #[test]
    fn filter_candidates_key_matches_byte_path() {
        let kinds = [
            SummaryKind::ExactDirectory,
            SummaryKind::ServerName,
            SummaryKind::recommended(),
        ];
        let snaps: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let urls: Vec<(Vec<u8>, Vec<u8>)> = (0..20)
                    .map(|j| {
                        (
                            format!("http://s{}/d{}", (i + j) % 4, j).into_bytes(),
                            format!("s{}", (i + j) % 4).into_bytes(),
                        )
                    })
                    .collect();
                let refs: Vec<(&[u8], &[u8])> =
                    urls.iter().map(|(u, s)| (u.as_slice(), s.as_slice())).collect();
                let mut s = summary_with(&refs, kind);
                s.publish();
                s.snapshot_published()
            })
            .collect();
        for j in 0..30 {
            let url = format!("http://s{}/d{}", j % 4, j).into_bytes();
            let server = format!("s{}", j % 4).into_bytes();
            let (uk, sk) = keys(&url, &server);
            let reference: Vec<usize> = (0..snaps.len())
                .filter(|&id| reference_probe(&snaps[id], &url, &server))
                .collect();
            let by_key = filter_candidates_key(snaps.iter().enumerate(), &uk, &sk);
            assert_eq!(reference, by_key, "probe {j}");
        }
    }

    /// Probing 8 Bloom peers through the hash-once pipeline costs 2 MD5
    /// block compressions per request (URL + server key construction)
    /// and none per probe, counted via the sc-md5 test hook rather than
    /// wall clock. Digesting the URL afresh per peer, as a byte-slice
    /// probe would, costs 8 blocks at 8 peers (k=4, w=32) — 4× more.
    #[test]
    fn key_probe_all_at_8_peers_cuts_md5_blocks_3x() {
        let mut peers = Vec::new();
        for id in 0..8u32 {
            let urls: Vec<(Vec<u8>, Vec<u8>)> = (0..10)
                .map(|j| {
                    (
                        format!("http://peer{id}/doc{j}").into_bytes(),
                        format!("peer{id}").into_bytes(),
                    )
                })
                .collect();
            let refs: Vec<(&[u8], &[u8])> =
                urls.iter().map(|(u, s)| (u.as_slice(), s.as_slice())).collect();
            let mut s = summary_with(&refs, SummaryKind::recommended());
            s.publish();
            peers.push((id, s.snapshot_published()));
        }
        let url = b"http://peer3/doc7"; // short: one MD5 block per digest
        let server = b"peer3";

        let before = sc_md5::blocks_hashed();
        let (uk, sk) = keys(url, server);
        let key_blocks = sc_md5::blocks_hashed() - before;
        let before = sc_md5::blocks_hashed();
        let by_key = filter_candidates_key(peers.iter().map(|(id, snap)| (*id, snap)), &uk, &sk);
        let probe_blocks = sc_md5::blocks_hashed() - before;

        let before = sc_md5::blocks_hashed();
        let reference: Vec<u32> = peers
            .iter()
            .filter(|(_, snap)| reference_probe(snap, url, server))
            .map(|(id, _)| *id)
            .collect();
        let reference_blocks = sc_md5::blocks_hashed() - before;

        assert_eq!(reference, by_key);
        assert!(by_key.contains(&3));
        assert_eq!(key_blocks, 2, "URL + server key construction");
        assert_eq!(probe_blocks, 0, "probes reuse the memoized indices");
        assert_eq!(reference_blocks, 8, "one digest per Bloom peer when rehashing");
        assert!(
            reference_blocks >= 3 * (key_blocks + probe_blocks),
            "hash-once pipeline must cut MD5 blocks ≥ 3×: {reference_blocks} vs {key_blocks}"
        );
    }

    #[test]
    fn filter_candidates_keeps_positive_peers_in_order() {
        let mk = |u: &[u8]| {
            let mut s = summary_with(&[(u, b"srv")], SummaryKind::ExactDirectory);
            s.publish();
            s.snapshot_published()
        };
        let a = mk(b"http://a/x");
        let b = mk(b"http://b/y");
        let both = {
            let mut s = summary_with(
                &[(b"http://a/x", b"srv"), (b"http://b/y", b"srv")],
                SummaryKind::ExactDirectory,
            );
            s.publish();
            s.snapshot_published()
        };
        let peers = [(1u32, &a), (2, &b), (3, &both)];
        let candidates = |url: &[u8]| {
            let (u, srv) = keys(url, b"srv");
            filter_candidates_key(peers.iter().map(|(id, s)| (*id, *s)), &u, &srv)
        };
        assert_eq!(candidates(b"http://a/x"), vec![1, 3]);
        assert_eq!(candidates(b"http://c/z"), Vec::<u32>::new());
    }
}
