//! Read-path snapshots of peer summary replicas.
//!
//! SC-mode candidate selection is the hottest read in the daemon: every
//! local cache miss probes every peer's Bloom replica. The router that
//! holds the replicas belongs to the daemon's protocol thread, which is
//! busy with replication *writes* (delta application, publish fan-out,
//! failure sweeps); a request must not wait on it to *read*.
//!
//! This module splits the two. The router keeps ownership of replica
//! state, but after every mutation it publishes an immutable
//! [`ReplicaSnapshot`] (replicas plus live peers) into a shared
//! [`ReplicaCell`]. Request threads read the snapshot without ever
//! reaching the router: a read locks the cell only long enough to
//! clone an `Arc`, so it never waits on the router's owner, and a
//! swapped-out snapshot is freed as soon as its last in-flight reader
//! drops it.
//!
//! Writers swap whole snapshots; the Bloom filters inside are shared by
//! `Arc` and copy-on-written (`Arc::make_mut`) only when a delta lands
//! while a reader still holds the previous snapshot. Probes use the
//! hash-once [`UrlKey`] path, so a snapshot probe across N peers costs
//! zero MD5 invocations beyond the key's construction.

use sc_bloom::{BloomFilter, UrlKey};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, tolerating poisoning (a panicking thread must not wedge
/// the cell; the guarded value is a plain pointer, always consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An immutable view of every installed peer replica, in configured
/// peer order (which [`candidates_key_into`](ReplicaSnapshot::candidates_key_into)
/// preserves), plus the peers not currently marked failed.
#[derive(Debug, Default)]
pub struct ReplicaSnapshot {
    peers: Vec<(u32, Arc<BloomFilter>)>,
    live: Vec<u32>,
}

impl ReplicaSnapshot {
    /// A snapshot advertising no peers and no live peers.
    pub fn empty() -> ReplicaSnapshot {
        ReplicaSnapshot::default()
    }

    /// A snapshot over the given `(peer, filter)` pairs, probed in the
    /// order given, with `live` as its live-peer set.
    pub fn new(peers: Vec<(u32, Arc<BloomFilter>)>, live: Vec<u32>) -> ReplicaSnapshot {
        ReplicaSnapshot { peers, live }
    }

    /// The `(peer, filter)` pairs, in probe order.
    pub fn peers(&self) -> &[(u32, Arc<BloomFilter>)] {
        &self.peers
    }

    /// Peers not marked failed when the snapshot was taken, in
    /// configured order (what ICP mode queries).
    pub fn live_peers(&self) -> &[u32] {
        &self.live
    }

    /// Peers whose replica advertises the pre-hashed `url`, written into
    /// a caller-owned buffer — the hash-once, zero-alloc probe a warm
    /// request scratch uses: the key's memoized index set is computed
    /// once and tested against every filter sharing the spec. `out` is
    /// cleared first; its capacity is reused.
    pub fn candidates_key_into(&self, url: &UrlKey, out: &mut Vec<u32>) {
        out.clear();
        for (id, f) in &self.peers {
            if f.contains_key(url) {
                out.push(*id);
            }
        }
    }
}

/// The shared slot a [`crate::router::Router`] publishes replica
/// snapshots into, and request threads read candidate sets from.
pub struct ReplicaCell {
    current: Mutex<Arc<ReplicaSnapshot>>,
}

impl ReplicaCell {
    /// A fresh cell holding the empty snapshot.
    pub fn new() -> Arc<ReplicaCell> {
        Arc::new(ReplicaCell {
            current: Mutex::new(Arc::new(ReplicaSnapshot::empty())),
        })
    }

    /// Read the current snapshot: lock, clone the `Arc`, unlock.
    pub fn load(&self) -> Arc<ReplicaSnapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// Install a new snapshot (writer side; called by the router after
    /// replica or liveness changes). Readers still holding the old one
    /// keep it alive until they drop it.
    pub fn swap(&self, snap: Arc<ReplicaSnapshot>) {
        // Bound to a name so that, when this was the last reference, the
        // old snapshot is freed after the lock is released, not under it.
        let _old = std::mem::replace(&mut *lock(&self.current), snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bloom::FilterConfig;
    use std::sync::atomic::Ordering;

    fn filter_with(urls: &[&[u8]]) -> Arc<BloomFilter> {
        let mut f = BloomFilter::new(FilterConfig::with_load_factor(64, 8, 4));
        for u in urls {
            f.insert_key(&UrlKey::new(u));
        }
        Arc::new(f)
    }

    fn advertisers(snap: &ReplicaSnapshot, url: &[u8]) -> Vec<u32> {
        let mut out = vec![99];
        snap.candidates_key_into(&UrlKey::new(url), &mut out);
        out
    }

    #[test]
    fn empty_cell_has_no_candidates() {
        let cell = ReplicaCell::new();
        let snap = cell.load();
        assert_eq!(snap.peers().len(), 0);
        assert!(advertisers(&snap, b"http://a/x").is_empty(), "out is cleared first");
    }

    #[test]
    fn swap_publishes_and_key_path_agrees_with_bytes() {
        let cell = ReplicaCell::new();
        cell.swap(Arc::new(ReplicaSnapshot::new(
            vec![
                (1, filter_with(&[b"http://a/x"])),
                (2, filter_with(&[b"http://b/y"])),
                (3, filter_with(&[b"http://a/x", b"http://b/y"])),
            ],
            vec![1, 2, 3],
        )));
        let snap = cell.load();
        for url in [&b"http://a/x"[..], b"http://b/y", b"http://c/z"] {
            // Reference: each filter's bits at the indices digested
            // afresh from the raw bytes.
            let reference: Vec<u32> = snap
                .peers()
                .iter()
                .filter(|(_, f)| f.spec().indices(url).iter().all(|&i| f.bits().get(i as usize)))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(advertisers(&snap, url), reference);
        }
        assert_eq!(advertisers(&snap, b"http://a/x"), vec![1, 3]);
    }

    #[test]
    fn cached_reads_see_new_epoch_after_swap() {
        let cell = ReplicaCell::new();
        assert_eq!(cell.load().peers().len(), 0);
        cell.swap(Arc::new(ReplicaSnapshot::new(vec![(7, filter_with(&[b"u"]))], vec![7])));
        // A thread that loaded before the swap sees the new snapshot.
        assert_eq!(cell.load().peers().len(), 1);
    }

    /// A reader that loaded once and then idles does not keep a later
    /// swap's predecessor alive: the old filters are freed as soon as
    /// the reader's own `Arc` is gone.
    #[test]
    fn a_swapped_out_snapshot_is_freed_once_its_readers_finish() {
        let cell = ReplicaCell::new();
        let old = filter_with(&[b"u"]);
        let weak = Arc::downgrade(&old);
        cell.swap(Arc::new(ReplicaSnapshot::new(vec![(7, old)], vec![7])));
        let (loaded_tx, loaded) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let reader = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                assert_eq!(cell.load().peers().len(), 1);
                let _ = loaded_tx.send(());
                let _ = released.recv(); // an idle keep-alive thread
            })
        };
        loaded.recv().expect("the reader loads");
        cell.swap(Arc::new(ReplicaSnapshot::empty()));
        let pinned = weak.upgrade().is_some();
        let _ = release.send(());
        reader.join().expect("reader thread panicked");
        assert!(!pinned, "an idle reader still pins the old replica");
    }

    #[test]
    fn cells_do_not_cross_talk_through_the_thread_cache() {
        let a = ReplicaCell::new();
        let b = ReplicaCell::new();
        a.swap(Arc::new(ReplicaSnapshot::new(vec![(1, filter_with(&[b"u"]))], vec![1])));
        assert_eq!(a.load().peers().len(), 1);
        assert_eq!(b.load().peers().len(), 0);
    }

    #[test]
    fn loads_race_swaps_without_tearing() {
        let cell = ReplicaCell::new();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        // Snapshots only ever grow in this test.
                        assert!(snap.peers().len() >= last);
                        last = snap.peers().len();
                    }
                })
            })
            .collect();
        let mut peers = Vec::new();
        for id in 0..50u32 {
            peers.push((id, filter_with(&[format!("http://p{id}/").as_bytes()])));
            cell.swap(Arc::new(ReplicaSnapshot::new(peers.clone(), Vec::new())));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader thread panicked");
        }
        assert_eq!(cell.load().peers().len(), 50);
    }
}
