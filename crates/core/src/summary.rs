//! The owner side of a summary: tracks the local cache directory under a
//! chosen representation, answers probes against the *last published*
//! state, and produces update messages when published.

use crate::expected_docs;
use crate::representation::{bloom_bits, SummaryKind, SummarySnapshot};
use crate::wire_cost;
use sc_bloom::{BitVec, CountingBloomFilter, FilterConfig, Flip, UrlKey};
use sc_md5::Digest;
use std::collections::{HashMap, HashSet};

/// What a publish produced: the wire cost and, for Bloom summaries, the
/// content (flips or full bitmap) that would travel in the
/// `ICP_OP_DIRUPDATE` message.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishOutcome {
    /// Bytes on the wire *per peer* under the paper's size model.
    pub update_bytes: usize,
    /// Number of directory changes shipped (entries for exact/server,
    /// bit flips for Bloom).
    pub changes: usize,
    /// Bloom only: the update was cheaper as a full bitmap than a delta.
    pub full_bitmap: bool,
    /// Bloom only: the flips to ship when `full_bitmap` is false.
    pub flips: Vec<Flip>,
    /// How stale the peer-visible view was just before this publish:
    /// the fraction of the directory not yet reflected
    /// ([`crate::UpdatePolicy::staleness`]), for observability gauges.
    pub staleness: f64,
    /// The summary's generation at publish time (see
    /// [`ProxySummary::set_generation`]).
    pub generation: u32,
    /// Sequence number allocated to this publish — the first update
    /// datagram of the batch carries it; a transport that splits the
    /// batch allocates follow-on numbers via
    /// [`ProxySummary::advance_seq`].
    pub seq: u32,
}

enum State {
    Exact {
        /// Live directory (MD5 of every cached URL).
        set: HashSet<Digest>,
        /// Docs added since last publish (still cached).
        pending_add: HashSet<Digest>,
        /// Docs removed since last publish (still in the published view).
        pending_remove: HashSet<Digest>,
    },
    Server {
        /// Live per-server document counts (MD5 of server name).
        counts: HashMap<Digest, u32>,
        /// Server set as of the last publish.
        published: HashSet<Digest>,
    },
    Bloom {
        filter: CountingBloomFilter,
        /// Bit array as of the last publish.
        baseline: BitVec,
        /// Reused sink for the filter's per-update flips, which publish
        /// does not need: it diffs `baseline` against the live bits.
        flips: Vec<Flip>,
    },
}

/// A proxy's own cache-directory summary.
///
/// The owning cache calls [`ProxySummary::insert_key`] / [`remove_key`]
/// as documents are stored and evicted; [`probe_published_key`] answers
/// what a *peer* currently believes (the state as of the last publish);
/// [`publish`] ships the pending changes and advances that state.
///
/// [`remove_key`]: ProxySummary::remove_key
/// [`probe_published_key`]: ProxySummary::probe_published_key
/// [`publish`]: ProxySummary::publish
pub struct ProxySummary {
    kind: SummaryKind,
    state: State,
    docs: u64,
    inserts_since_publish: u64,
    /// Lineage tag for the published bitmap; receivers discard their
    /// replica when it changes. The owner sets it at startup
    /// ([`set_generation`]) — the summary itself never touches clocks,
    /// keeping this crate deterministic.
    ///
    /// [`set_generation`]: ProxySummary::set_generation
    generation: u32,
    /// Sequence number of the last update datagram allocated within the
    /// current generation.
    seq: u32,
}

impl ProxySummary {
    /// A summary for a cache of `cache_bytes`, sized per Section V-D
    /// (Bloom filters get `load_factor × cache_bytes/8K` bits).
    pub fn new(kind: SummaryKind, cache_bytes: u64) -> Self {
        Self::with_expected_docs(kind, expected_docs(cache_bytes))
    }

    /// A summary sized for an explicit expected document count, for
    /// workloads whose mean document size differs from the paper's 8 KB
    /// assumption. The load factor then means exactly "bits per cached
    /// document", as in Section V-D.
    pub fn with_expected_docs(kind: SummaryKind, expected: u64) -> Self {
        let state = match kind {
            SummaryKind::ExactDirectory => State::Exact {
                set: HashSet::new(),
                pending_add: HashSet::new(),
                pending_remove: HashSet::new(),
            },
            SummaryKind::ServerName => State::Server {
                counts: HashMap::new(),
                published: HashSet::new(),
            },
            SummaryKind::Bloom { load_factor, hashes } => {
                let bits = bloom_bits(expected.max(1), load_factor);
                let cfg = FilterConfig {
                    bits,
                    hashes,
                    function_bits: 32,
                };
                State::Bloom {
                    filter: CountingBloomFilter::new(cfg),
                    baseline: BitVec::new(bits as usize),
                    flips: Vec::new(),
                }
            }
        };
        ProxySummary {
            kind,
            state,
            docs: 0,
            inserts_since_publish: 0,
            generation: 1,
            seq: 0,
        }
    }

    /// The current generation (defaults to 1 until the owner assigns
    /// one).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Sequence number of the most recently allocated update datagram.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Assign the bitmap lineage tag (a 0 is coerced to 1 so "no
    /// generation seen yet" stays representable on the wire) and restart
    /// datagram numbering.
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation.max(1);
        self.seq = 0;
    }

    /// Pin the update-datagram sequence counter. Test and simulation
    /// drivers use this to start a run near a wraparound boundary;
    /// production code only ever advances the counter.
    pub fn set_seq(&mut self, seq: u32) {
        self.seq = seq;
    }

    /// Allocate the next update-datagram sequence number. [`publish`]
    /// calls this once for the batch; the transport calls it again for
    /// each additional datagram the batch is split into, and for
    /// heartbeat (empty-delta) datagrams that let receivers detect a
    /// lost tail.
    ///
    /// [`publish`]: ProxySummary::publish
    pub fn advance_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// The representation in use.
    pub fn kind(&self) -> SummaryKind {
        self.kind
    }

    /// Documents currently reflected in the live directory.
    pub fn docs(&self) -> u64 {
        self.docs
    }

    /// Documents inserted since the last publish — the "new documents"
    /// the Section V-A update threshold is measured against.
    pub fn fresh_docs(&self) -> u64 {
        self.inserts_since_publish
    }

    /// A document was stored in the local cache. Keys arrive pre-hashed:
    /// the digests come from key construction and Bloom indices from the
    /// key's memo, so a request that already built its keys for probing
    /// pays no further MD5 work to store.
    pub fn insert_key(&mut self, url: &UrlKey, server: &UrlKey) {
        match &mut self.state {
            State::Exact {
                set,
                pending_add,
                pending_remove,
            } => {
                let d = *url.digest();
                if set.insert(d)
                    && !pending_remove.remove(&d) {
                        pending_add.insert(d);
                    }
            }
            State::Server { counts, .. } => {
                *counts.entry(*server.digest()).or_insert(0) += 1;
            }
            State::Bloom { filter, flips, .. } => {
                flips.clear();
                filter.insert_key_into(url, flips);
            }
        }
        self.docs += 1;
        self.inserts_since_publish += 1;
    }

    /// A document was evicted from (or invalidated in) the local cache.
    pub fn remove_key(&mut self, url: &UrlKey, server: &UrlKey) {
        match &mut self.state {
            State::Exact {
                set,
                pending_add,
                pending_remove,
            } => {
                let d = *url.digest();
                if set.remove(&d) && !pending_add.remove(&d) {
                    pending_remove.insert(d);
                }
            }
            State::Server { counts, .. } => {
                let d = *server.digest();
                if let Some(c) = counts.get_mut(&d) {
                    *c -= 1;
                    if *c == 0 {
                        counts.remove(&d);
                    }
                }
            }
            State::Bloom { filter, flips, .. } => {
                flips.clear();
                filter.remove_key_into(url, flips);
            }
        }
        self.docs = self.docs.saturating_sub(1);
    }

    /// Does the *published* view (what peers currently hold) indicate
    /// `url`? This is the probe peers evaluate locally before deciding
    /// to query.
    pub fn probe_published_key(&self, url: &UrlKey, server: &UrlKey) -> bool {
        match &self.state {
            State::Exact {
                set,
                pending_add,
                pending_remove,
            } => {
                let d = url.digest();
                (set.contains(d) && !pending_add.contains(d)) || pending_remove.contains(d)
            }
            State::Server { published, .. } => published.contains(server.digest()),
            State::Bloom { filter, baseline, .. } => {
                let spec = filter.spec();
                url.with_indices(&spec, |idx| {
                    idx.iter().all(|&i| baseline.get(i as usize))
                })
            }
        }
    }

    /// Publish the pending changes: advance the peer-visible state to the
    /// live state and report the per-peer wire cost under the paper's
    /// Section V-D size model.
    pub fn publish(&mut self) -> PublishOutcome {
        let staleness =
            crate::update::UpdatePolicy::staleness(self.inserts_since_publish, self.docs);
        self.inserts_since_publish = 0;
        let generation = self.generation;
        let seq = self.advance_seq();
        match &mut self.state {
            State::Exact {
                pending_add,
                pending_remove,
                ..
            } => {
                let changes = pending_add.len() + pending_remove.len();
                pending_add.clear();
                pending_remove.clear();
                PublishOutcome {
                    update_bytes: wire_cost::directory_update_bytes(changes),
                    changes,
                    full_bitmap: false,
                    flips: Vec::new(),
                    staleness,
                    generation,
                    seq,
                }
            }
            State::Server { counts, published } => {
                let current: HashSet<Digest> = counts.keys().copied().collect();
                let changes = published.symmetric_difference(&current).count();
                *published = current;
                PublishOutcome {
                    update_bytes: wire_cost::directory_update_bytes(changes),
                    changes,
                    full_bitmap: false,
                    flips: Vec::new(),
                    staleness,
                    generation,
                    seq,
                }
            }
            State::Bloom { filter, baseline, .. } => {
                let diff = baseline.diff_indices(filter.bits());
                let delta_bytes = wire_cost::bloom_delta_bytes(diff.len());
                let full_bytes = wire_cost::bloom_full_bytes(baseline.len());
                let full = full_bytes < delta_bytes;
                let flips: Vec<Flip> = if full {
                    Vec::new()
                } else {
                    diff.iter()
                        .map(|&i| {
                            if filter.bits().get(i) {
                                Flip::set(i as u32)
                            } else {
                                Flip::clear(i as u32)
                            }
                        })
                        .collect()
                };
                *baseline = filter.bits().clone();
                PublishOutcome {
                    update_bytes: delta_bytes.min(full_bytes),
                    changes: diff.len(),
                    full_bitmap: full,
                    flips,
                    staleness,
                    generation,
                    seq,
                }
            }
        }
    }

    /// The published view as a [`crate::SummaryProbe`] — the probe peers
    /// evaluate locally before deciding to query.
    pub fn published(&self) -> crate::probe::PublishedView<'_> {
        crate::probe::PublishedView(self)
    }

    /// Materialize the currently *published* view as a shippable
    /// snapshot (what a newly joined peer should receive).
    pub fn snapshot_published(&self) -> SummarySnapshot {
        match &self.state {
            State::Exact {
                set,
                pending_add,
                pending_remove,
            } => {
                let mut s: HashSet<Digest> = set.difference(pending_add).copied().collect();
                s.extend(pending_remove.iter().copied());
                SummarySnapshot::Exact(s)
            }
            State::Server { published, .. } => SummarySnapshot::Server(published.clone()),
            State::Bloom { filter, baseline, .. } => SummarySnapshot::Bloom {
                spec: filter.spec(),
                bits: baseline.clone(),
            },
        }
    }

    /// Memory the owner spends on this summary: the live structure plus,
    /// for Bloom, the counter array (Section V-C: 4 bits per counter).
    /// This is the Table III "storage requirement" for one's own summary.
    pub fn owner_memory_bytes(&self) -> usize {
        match &self.state {
            State::Exact { set, .. } => set.len() * 16,
            State::Server { counts, .. } => counts.len() * (16 + 4),
            State::Bloom { filter, .. } => filter.byte_len(),
        }
    }

    /// Memory a *peer* spends holding this summary's published snapshot.
    pub fn peer_memory_bytes(&self) -> usize {
        match &self.state {
            State::Exact { set, .. } => set.len() * 16,
            State::Server { published, .. } => published.len() * 16,
            State::Bloom { baseline, .. } => baseline.byte_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("http://s{}.example/doc/{}", i / 10, i).into_bytes(),
            format!("s{}.example", i / 10).into_bytes(),
        )
    }

    fn url(i: u32) -> (UrlKey, UrlKey) {
        let (u, srv) = raw(i);
        (UrlKey::new(&u), UrlKey::new(&srv))
    }

    fn all_kinds() -> Vec<SummaryKind> {
        vec![
            SummaryKind::ExactDirectory,
            SummaryKind::ServerName,
            SummaryKind::Bloom { load_factor: 16, hashes: 4 },
        ]
    }

    #[test]
    fn published_view_lags_until_publish() {
        for kind in all_kinds() {
            let mut s = ProxySummary::new(kind, 1 << 20);
            let (u, srv) = url(1);
            s.insert_key(&u, &srv);
            assert!(
                !s.probe_published_key(&u, &srv),
                "{kind:?}: peers must not see unpublished inserts"
            );
            s.publish();
            assert!(s.probe_published_key(&u, &srv), "{kind:?}");
        }
    }

    #[test]
    fn removal_lingers_in_published_view() {
        for kind in all_kinds() {
            let mut s = ProxySummary::new(kind, 1 << 20);
            let (u, srv) = url(1);
            s.insert_key(&u, &srv);
            s.publish();
            s.remove_key(&u, &srv);
            assert_eq!(s.docs(), 0, "{kind:?}");
            assert!(
                s.probe_published_key(&u, &srv),
                "{kind:?}: a false hit until the next publish, as in the paper"
            );
            s.publish();
            assert!(!s.probe_published_key(&u, &srv), "{kind:?}");
        }
    }

    #[test]
    fn insert_then_remove_before_publish_cancels() {
        for kind in all_kinds() {
            let mut s = ProxySummary::new(kind, 1 << 20);
            let (u, srv) = url(7);
            s.insert_key(&u, &srv);
            s.remove_key(&u, &srv);
            let out = s.publish();
            assert_eq!(out.changes, 0, "{kind:?}: churn cancels to no changes");
        }
    }

    #[test]
    fn fresh_docs_drive_threshold() {
        let mut s = ProxySummary::new(SummaryKind::recommended(), 1 << 20);
        for i in 0..10 {
            let (u, srv) = url(i);
            s.insert_key(&u, &srv);
        }
        assert_eq!(s.fresh_docs(), 10);
        assert_eq!(s.docs(), 10);
        s.publish();
        assert_eq!(s.fresh_docs(), 0);
        assert_eq!(s.docs(), 10);
    }

    #[test]
    fn server_name_counts_multiple_docs() {
        let mut s = ProxySummary::new(SummaryKind::ServerName, 1 << 20);
        let (u1, srv) = url(10); // server s1
        let (u2, _) = url(11); // same server
        s.insert_key(&u1, &srv);
        s.insert_key(&u2, &srv);
        s.publish();
        s.remove_key(&u1, &srv);
        s.publish();
        assert!(
            s.probe_published_key(&u1, &srv),
            "server still has one doc, so the server entry stays"
        );
        s.remove_key(&u2, &srv);
        s.publish();
        assert!(!s.probe_published_key(&u1, &srv));
    }

    #[test]
    fn bloom_publish_ships_flips() {
        let mut s = ProxySummary::new(
            SummaryKind::Bloom { load_factor: 16, hashes: 4 },
            1 << 20,
        );
        let (u, srv) = url(3);
        s.insert_key(&u, &srv);
        let out = s.publish();
        assert!(!out.full_bitmap);
        assert!(out.changes >= 1 && out.changes <= 4);
        assert_eq!(out.flips.len(), out.changes);
        assert!(out.flips.iter().all(|f| f.set_bit()));
        assert_eq!(out.update_bytes, wire_cost::bloom_delta_bytes(out.changes));
    }

    #[test]
    fn bloom_full_bitmap_when_delta_is_large() {
        // Tiny filter + many inserts: the delta would cost more than the
        // bitmap, so publish must switch to a full update.
        let mut s = ProxySummary::new(
            SummaryKind::Bloom { load_factor: 8, hashes: 4 },
            64 * 1024, // 8 expected docs -> 64-bit filter (floor)
        );
        for i in 0..200 {
            let (u, srv) = url(i);
            s.insert_key(&u, &srv);
        }
        let out = s.publish();
        assert!(out.full_bitmap, "delta of ~64 flips dwarfs an 8-byte bitmap");
        assert_eq!(out.update_bytes, wire_cost::bloom_full_bytes(64));
        assert!(out.flips.is_empty());
    }

    #[test]
    fn snapshot_matches_probe_published() {
        for kind in all_kinds() {
            let mut s = ProxySummary::new(kind, 1 << 20);
            for i in 0..50 {
                let (u, srv) = url(i);
                s.insert_key(&u, &srv);
            }
            s.publish();
            for i in 50..80 {
                let (u, srv) = url(i);
                s.insert_key(&u, &srv); // unpublished
            }
            let snap = s.snapshot_published();
            for i in 0..80 {
                let (u, srv) = url(i);
                assert_eq!(
                    snap.probe_key(&u, &srv),
                    s.probe_published_key(&u, &srv),
                    "{kind:?} doc {i}"
                );
            }
        }
    }

    #[test]
    fn publishes_carry_sequential_seq_within_a_generation() {
        let mut s = ProxySummary::new(SummaryKind::recommended(), 1 << 20);
        assert_eq!(s.generation(), 1, "usable before the owner assigns one");
        s.set_generation(0xDEAD);
        let (u, srv) = url(1);
        s.insert_key(&u, &srv);
        let first = s.publish();
        assert_eq!((first.generation, first.seq), (0xDEAD, 1));
        // Transport-allocated numbers (chunking, heartbeats) interleave.
        assert_eq!(s.advance_seq(), 2);
        let (u2, srv2) = url(2);
        s.insert_key(&u2, &srv2);
        let second = s.publish();
        assert_eq!((second.generation, second.seq), (0xDEAD, 3));
        // A new generation restarts numbering; 0 is coerced to 1.
        s.set_generation(0);
        assert_eq!((s.generation(), s.seq()), (1, 0));
        assert_eq!(s.publish().seq, 1);
    }

    /// The key ops land exactly where the retained primitives say, for
    /// every representation, through publish boundaries and the
    /// pending-add/pending-remove bookkeeping: the published snapshot
    /// equals one built directly from `md5` and `HashSpec::indices` over
    /// the live documents.
    #[test]
    fn key_ops_match_a_reference_built_from_primitives() {
        for kind in all_kinds() {
            let mut s = ProxySummary::new(kind, 1 << 20);
            let mut live = std::collections::BTreeSet::new();
            // insert 0..30, publish, remove evens, insert 40..50,
            // re-insert 2 (exercises pending cancellation), publish.
            let script: Vec<(bool, u32)> = (0..30)
                .map(|i| (true, i))
                .chain((0..30).step_by(2).map(|i| (false, i)))
                .chain((40..50).map(|i| (true, i)))
                .chain([(true, 2)])
                .collect();
            for (n, &(insert, i)) in script.iter().enumerate() {
                let (uk, sk) = url(i);
                if insert {
                    s.insert_key(&uk, &sk);
                    live.insert(i);
                } else {
                    s.remove_key(&uk, &sk);
                    live.remove(&i);
                }
                if n == 29 {
                    s.publish();
                }
            }
            s.publish();
            assert_eq!(s.docs(), live.len() as u64, "{kind:?}");
            let reference = match s.snapshot_published() {
                SummarySnapshot::Exact(_) => {
                    SummarySnapshot::Exact(live.iter().map(|&i| sc_md5::md5(&raw(i).0)).collect())
                }
                SummarySnapshot::Server(_) => {
                    SummarySnapshot::Server(live.iter().map(|&i| sc_md5::md5(&raw(i).1)).collect())
                }
                SummarySnapshot::Bloom { spec, .. } => {
                    let mut bits = BitVec::new(spec.table_bits() as usize);
                    for &i in &live {
                        for j in spec.indices(&raw(i).0) {
                            bits.set(j as usize, true);
                        }
                    }
                    SummarySnapshot::Bloom { spec, bits }
                }
            };
            assert_eq!(s.snapshot_published(), reference, "{kind:?}");
            for i in 0..60 {
                let (uk, sk) = url(i);
                let want = reference.probe_key(&uk, &sk);
                assert_eq!(s.probe_published_key(&uk, &sk), want, "{kind:?} published doc {i}");
            }
        }
    }

    #[test]
    fn memory_accounting() {
        let mut exact = ProxySummary::new(SummaryKind::ExactDirectory, 1 << 20);
        let mut server = ProxySummary::new(SummaryKind::ServerName, 1 << 20);
        for i in 0..100 {
            let (u, srv) = url(i);
            exact.insert_key(&u, &srv);
            server.insert_key(&u, &srv);
        }
        assert_eq!(exact.owner_memory_bytes(), 100 * 16);
        assert_eq!(server.owner_memory_bytes(), 10 * 20, "10 servers for 100 docs");
        exact.publish();
        assert_eq!(exact.peer_memory_bytes(), 1600);

        let bloom = ProxySummary::new(
            SummaryKind::Bloom { load_factor: 8, hashes: 4 },
            8 << 20, // 1024 expected docs -> 8192 bits
        );
        // Owner: 4-bit counters (m/2 bytes) + bit array (m/8 bytes).
        assert_eq!(bloom.owner_memory_bytes(), 8192 / 2 + 8192 / 8);
        assert_eq!(bloom.peer_memory_bytes(), 8192 / 8);
    }
}
