//! The peer-summary table: one snapshot per cooperating proxy, probed on
//! every local miss.

use crate::representation::SummarySnapshot;
use std::collections::BTreeMap;

/// Identity of a cooperating proxy.
pub type PeerId = u32;

/// A proxy's view of all its neighbours' directories.
///
/// "Each proxy stores a summary of its directory of cached document in
/// every other proxy. When a user request misses in the local cache, the
/// local proxy checks the stored summaries to see if the requested
/// document might be stored in other proxies" (Section V).
#[derive(Debug, Default)]
pub struct PeerTable {
    peers: BTreeMap<PeerId, SummarySnapshot>,
}

impl PeerTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or replace `peer`'s snapshot (a full update, or the state
    /// rebuilt after a peer restart — Squid-style reinitialization).
    pub fn install(&mut self, peer: PeerId, snapshot: SummarySnapshot) {
        self.peers.insert(peer, snapshot);
    }

    /// Drop a failed peer's snapshot.
    pub fn evict(&mut self, peer: PeerId) -> bool {
        self.peers.remove(&peer).is_some()
    }

    /// Mutable access to a peer's snapshot, for applying delta updates.
    pub fn get_mut(&mut self, peer: PeerId) -> Option<&mut SummarySnapshot> {
        self.peers.get_mut(&peer)
    }

    /// Read access to a peer's snapshot.
    pub fn get(&self, peer: PeerId) -> Option<&SummarySnapshot> {
        self.peers.get(&peer)
    }

    /// Number of peers with installed snapshots.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no snapshots are installed.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The peers whose summaries indicate `url` might be cached there —
    /// the set the proxy actually queries. The URL is hashed once and
    /// every peer's snapshot reuses the digest/memoized indices.
    pub fn probe_all_key(&self, url: &sc_bloom::UrlKey, server: &sc_bloom::UrlKey) -> Vec<PeerId> {
        crate::probe::filter_candidates_key(
            self.peers.iter().map(|(&id, snap)| (id, snap)),
            url,
            server,
        )
    }

    /// Total memory devoted to peer summaries — the quantity Section V-B
    /// warns "grows linearly with the number of proxies".
    pub fn memory_bytes(&self) -> usize {
        self.peers.values().map(SummarySnapshot::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::SummaryKind;
    use crate::summary::ProxySummary;
    use sc_bloom::UrlKey;

    fn summary_with(urls: &[(&[u8], &[u8])], kind: SummaryKind) -> SummarySnapshot {
        let mut s = ProxySummary::new(kind, 1 << 20);
        for (u, srv) in urls {
            s.insert_key(&UrlKey::new(u), &UrlKey::new(srv));
        }
        s.publish();
        s.snapshot_published()
    }

    fn candidates_for(t: &PeerTable, url: &[u8], server: &[u8]) -> Vec<PeerId> {
        t.probe_all_key(&UrlKey::new(url), &UrlKey::new(server))
    }

    #[test]
    fn probe_all_returns_candidates() {
        let mut t = PeerTable::new();
        t.install(
            1,
            summary_with(&[(b"http://a/x", b"a")], SummaryKind::ExactDirectory),
        );
        t.install(
            2,
            summary_with(&[(b"http://b/y", b"b")], SummaryKind::ExactDirectory),
        );
        t.install(
            3,
            summary_with(
                &[(b"http://a/x", b"a"), (b"http://b/y", b"b")],
                SummaryKind::recommended(),
            ),
        );
        assert_eq!(candidates_for(&t, b"http://a/x", b"a"), vec![1, 3]);
        assert_eq!(candidates_for(&t, b"http://b/y", b"b"), vec![2, 3]);
        assert!(candidates_for(&t, b"http://c/z", b"c").is_empty());
    }

    #[test]
    fn evict_and_reinstall() {
        let mut t = PeerTable::new();
        t.install(
            7,
            summary_with(&[(b"http://a/x", b"a")], SummaryKind::ExactDirectory),
        );
        assert!(t.evict(7));
        assert!(!t.evict(7));
        assert!(candidates_for(&t, b"http://a/x", b"a").is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn memory_sums_over_peers() {
        let mut t = PeerTable::new();
        t.install(
            1,
            summary_with(
                &[(b"http://a/x", b"a"), (b"http://a/y", b"a")],
                SummaryKind::ExactDirectory,
            ),
        );
        t.install(
            2,
            summary_with(&[(b"http://b/z", b"b")], SummaryKind::ExactDirectory),
        );
        assert_eq!(t.memory_bytes(), 3 * 16);
    }

    #[test]
    fn install_replaces() {
        let mut t = PeerTable::new();
        t.install(
            1,
            summary_with(&[(b"http://a/x", b"a")], SummaryKind::ExactDirectory),
        );
        t.install(
            1,
            summary_with(&[(b"http://b/y", b"b")], SummaryKind::ExactDirectory),
        );
        assert_eq!(t.len(), 1);
        assert!(candidates_for(&t, b"http://a/x", b"a").is_empty());
        assert_eq!(candidates_for(&t, b"http://b/y", b"b"), vec![1]);
    }
}
