//! Lock-free read-path snapshots of peer summary replicas.
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
//! reaching the router:
//!
//! * each swap bumps an epoch counter (std-only stand-in for an
//!   epoch-based RCU pointer);
//! * each reader thread keeps a thread-local `(cell, epoch, snapshot)`
//!   cache — while the epoch is unchanged, a read is one atomic load
//!   plus a thread-local lookup, with **no** lock of any kind;
//! * when the epoch moved, the reader refreshes from the cell's small
//!   internal mutex (held only long enough to clone an `Arc`).
//!
//! Writers swap whole snapshots; the Bloom filters inside are shared by
//! `Arc` and copy-on-written (`Arc::make_mut`) only when a delta lands
//! while a reader still holds the previous snapshot. Probes use the
//! hash-once [`UrlKey`] path, so a snapshot probe across N peers costs
//! zero MD5 invocations beyond the key's construction.

use sc_bloom::{BloomFilter, UrlKey};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, tolerating poisoning (a panicking thread must not wedge
/// the cell; the guarded value is a plain pointer, always consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An immutable view of every installed peer replica, in configured
/// peer order (which [`candidates_key_into`](ReplicaSnapshot::candidates_key_into)
/// preserves, matching the router's own probe order), plus the peers
/// not currently marked failed.
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

/// Cells are distinguished by a process-unique id so the per-thread
/// snapshot cache can serve many daemons in one process (tests,
/// clusters) without cross-talk.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread `(cell id, epoch, snapshot)` cache. Linear scan: a
    /// thread talks to a handful of cells (usually one), and entries
    /// are three words each.
    static SNAPSHOT_CACHE: RefCell<Vec<(u64, u64, Arc<ReplicaSnapshot>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The shared slot a [`crate::router::Router`] publishes replica
/// snapshots into, and request threads read candidate sets from.
pub struct ReplicaCell {
    id: u64,
    /// Bumped (under `current`'s lock) on every swap. A reader whose
    /// cached epoch still matches knows its cached snapshot is current.
    epoch: AtomicU64,
    current: Mutex<Arc<ReplicaSnapshot>>,
}

impl ReplicaCell {
    /// A fresh cell holding the empty snapshot.
    pub fn new() -> Arc<ReplicaCell> {
        Arc::new(ReplicaCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(ReplicaSnapshot::empty())),
        })
    }

    /// The epoch of the currently installed snapshot (monotonic; one
    /// bump per [`swap`](ReplicaCell::swap)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Read the current snapshot. On the hot path (no swap since this
    /// thread last looked) this takes no lock at all: one atomic load
    /// plus a thread-local lookup. After a swap, the first read per
    /// thread refreshes through the cell's internal mutex, held only
    /// to clone an `Arc`.
    pub fn load(&self) -> Arc<ReplicaSnapshot> {
        let epoch = self.epoch.load(Ordering::Acquire);
        SNAPSHOT_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if let Some(entry) = cache.iter_mut().find(|(id, _, _)| *id == self.id) {
                if entry.1 == epoch {
                    return Arc::clone(&entry.2);
                }
                let (snap, e) = self.load_slow();
                entry.1 = e;
                entry.2 = Arc::clone(&snap);
                return snap;
            }
            let (snap, e) = self.load_slow();
            cache.push((self.id, e, Arc::clone(&snap)));
            snap
        })
    }

    /// Refresh path: clone the pointer under the cell's mutex, and
    /// re-read the epoch *while holding it* so the `(epoch, snapshot)`
    /// pair is consistent (the writer bumps the epoch under the same
    /// lock).
    fn load_slow(&self) -> (Arc<ReplicaSnapshot>, u64) {
        let guard = lock(&self.current);
        let epoch = self.epoch.load(Ordering::Acquire);
        (Arc::clone(&guard), epoch)
    }

    /// Install a new snapshot (writer side; called by the router after
    /// replica or liveness changes). The epoch bump happens under the
    /// cell's lock so no reader can pair the new epoch with the old
    /// snapshot.
    pub fn swap(&self, snap: Arc<ReplicaSnapshot>) {
        let mut guard = lock(&self.current);
        *guard = snap;
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bloom::FilterConfig;

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
        let e0 = cell.epoch();
        cell.swap(Arc::new(ReplicaSnapshot::new(vec![(7, filter_with(&[b"u"]))], vec![7])));
        assert_eq!(cell.epoch(), e0 + 1);
        // The same thread's cached entry must refresh, not serve stale.
        assert_eq!(cell.load().peers().len(), 1);
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
