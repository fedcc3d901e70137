//! The one document store: a byte-budget cache under a replacement
//! [`Policy`], with the paper's 250 KB rule and staleness checking.
//!
//! Entries live in a slab of slots that a `HashMap` indexes by key. An
//! indexed binary min-heap ranks the slots by `(priority, seq)`, where
//! `seq` counts every (re)prioritisation, so the order is total and the
//! victim unique. Every policy evicts the heap minimum; under LRU the
//! priority *is* `seq`, so that is the least recently used entry.

use crate::Policy;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// "Documents larger than 250 KB are not cached" (Section II).
pub const MAX_CACHEABLE_BYTES: u64 = 250 * 1024;

/// Cached metadata of a web document: enough to implement the paper's
/// perfect-consistency model (a hit whose size or last-modified time
/// changed is a stale hit, counted as a miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocMeta {
    /// Body size in bytes.
    pub size: u64,
    /// Last-modified timestamp (opaque ticks; 0 = unknown).
    pub last_modified: u64,
}

/// Outcome of a cache lookup against a requested document version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Fresh copy cached.
    Hit,
    /// A copy is cached but its size/last-modified differ from the
    /// requested version — served as a miss, copy invalidated.
    StaleHit,
    /// Not cached.
    Miss,
}

/// A heap entry: `slot` ranked at `(pri, seq)`.
#[derive(Clone, Copy)]
struct Rank {
    pri: f64,
    seq: u64,
    slot: usize,
}

impl Rank {
    /// Strictly lower `(pri, seq)`; `seq` is unique, so this is total.
    fn below(&self, other: &Rank) -> bool {
        self.pri.total_cmp(&other.pri).then(self.seq.cmp(&other.seq)).is_lt()
    }
}

struct Slot<K> {
    key: K,
    meta: DocMeta,
    /// Accesses so far (LFU).
    freq: u64,
}

/// A proxy's document cache: a byte budget, a replacement [`Policy`]
/// (LRU unless built [`WebCache::with_policy`]), the 250 KB rule and
/// staleness checking. The simulators and the live proxy share it.
///
/// ```
/// use sc_cache::{DocMeta, Lookup, WebCache};
/// let doc = DocMeta { size: 60, last_modified: 0 };
/// let mut c: WebCache<String> = WebCache::new(100);
/// c.store("a".to_string(), doc);
/// assert_eq!(c.store("b".to_string(), doc), Some(vec!["a".to_string()]));
/// assert_eq!(c.lookup("b", doc), Lookup::Hit);
/// assert_eq!(c.lookup("a", doc), Lookup::Miss);
/// ```
pub struct WebCache<K> {
    map: HashMap<K, usize>,
    /// Entry slots; the `None` ones are listed in `free`.
    slots: Vec<Option<Slot<K>>>,
    free: Vec<usize>,
    /// Min-heap over the live slots; the root is the next victim.
    heap: Vec<Rank>,
    /// Where each slot's [`Rank`] sits in `heap`.
    heap_pos: Vec<usize>,
    policy: Policy,
    capacity: u64,
    bytes: u64,
    /// Bumped on every (re)prioritisation: LRU order and tiebreak.
    seq: u64,
    /// GreedyDual-Size inflation `L`: the last evicted priority.
    inflation: f64,
}

impl<K: Eq + Hash + Clone> WebCache<K> {
    /// An LRU cache of `capacity` bytes with the paper's 250 KB object
    /// limit.
    pub fn new(capacity: u64) -> Self {
        Self::with_policy(Policy::Lru, capacity)
    }

    /// A cache of `capacity` bytes under `policy`.
    pub fn with_policy(policy: Policy, capacity: u64) -> Self {
        WebCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            policy,
            capacity,
            bytes: 0,
            seq: 0,
            inflation: 0.0,
        }
    }

    /// Cached document count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key` for a request expecting version `requested`.
    ///
    /// A [`Lookup::Hit`] promotes the entry. A [`Lookup::StaleHit`]
    /// removes the outdated copy (the caller will re-fetch and
    /// [`WebCache::store`] the new version) and reports the key so
    /// summaries can be updated.
    pub fn lookup<Q>(&mut self, key: &Q, requested: DocMeta) -> Lookup
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&idx) = self.map.get(key) else {
            return Lookup::Miss;
        };
        if self.slot(idx).meta != requested {
            self.remove(key);
            return Lookup::StaleHit;
        }
        self.promote(idx);
        Lookup::Hit
    }

    /// Does the cache hold *any* version of `key`? (Peer queries don't
    /// know the requester's version expectations; a version mismatch at
    /// the peer is the paper's *remote stale hit*.) Does not promote.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Cached metadata without promotion.
    pub fn peek<Q>(&self, key: &Q) -> Option<DocMeta>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&idx| self.slot(idx).meta)
    }

    /// Count an access to `key` without reading it (single-copy
    /// sharing's remote-hit treatment, Section III). Returns whether the
    /// key was present.
    pub fn touch<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&idx) = self.map.get(key) else { return false };
        self.promote(idx);
        true
    }

    /// Store a fetched document, evicting minimum-priority victims until
    /// it fits. Returns the evicted keys (for summary maintenance); an
    /// uncacheable (too large) document returns `None`.
    pub fn store(&mut self, key: K, meta: DocMeta) -> Option<Vec<K>> {
        if meta.size > MAX_CACHEABLE_BYTES || meta.size > self.capacity {
            return None;
        }
        self.remove(&key);
        let mut evicted = Vec::new();
        while self.bytes + meta.size > self.capacity {
            // `bytes > 0` here, so the heap is not empty.
            let root = self.heap[0];
            if self.policy == Policy::GreedyDualSize {
                // Inflate L to the evicted H — the GreedyDual aging step.
                self.inflation = root.pri;
            }
            let victim = self.unlink(root.slot);
            self.map.remove(&victim.key);
            evicted.push(victim.key);
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.heap_pos.push(0);
            self.slots.len() - 1
        });
        self.slots[idx] = Some(Slot { key: key.clone(), meta, freq: 1 });
        let rank = self.rank(idx, 1, meta.size);
        self.heap.push(rank);
        self.sift(self.heap.len() - 1);
        self.map.insert(key, idx);
        self.bytes += meta.size;
        Some(evicted)
    }

    /// Remove a document (e.g. after a stale hit).
    pub fn remove<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(idx) = self.map.remove(key) else { return false };
        self.unlink(idx);
        true
    }

    fn slot(&self, idx: usize) -> &Slot<K> {
        self.slots[idx].as_ref().expect("indexed slots are live")
    }

    /// The next rank for `slot` at its `freq`-th access.
    fn rank(&mut self, slot: usize, freq: u64, size: u64) -> Rank {
        self.seq += 1;
        let pri = self.policy.priority(self.seq, freq, size, self.inflation);
        Rank { pri, seq: self.seq, slot }
    }

    /// Count an access to slot `idx` and re-rank it.
    fn promote(&mut self, idx: usize) {
        let slot = self.slots[idx].as_mut().expect("indexed slots are live");
        slot.freq += 1;
        let (freq, size, pos) = (slot.freq, slot.meta.size, self.heap_pos[idx]);
        self.heap[pos] = self.rank(idx, freq, size);
        self.sift(pos);
    }

    /// Take slot `idx` out of the heap and the slab (the caller owns the
    /// map entry) and release its bytes.
    fn unlink(&mut self, idx: usize) -> Slot<K> {
        let slot = self.slots[idx].take().expect("indexed slots are live");
        self.free.push(idx);
        let last = self.heap.pop().expect("a live slot is in the heap");
        let pos = self.heap_pos[idx];
        if pos < self.heap.len() {
            self.heap[pos] = last;
            self.sift(pos);
        }
        self.bytes -= slot.meta.size;
        slot
    }

    /// Move the rank at `pos` up or down until the heap order holds
    /// again, keeping every moved slot's `heap_pos` current. Going down,
    /// the hole first sinks to a leaf along the smaller children (one
    /// comparison a level), then the rank climbs back to its place:
    /// rarely far, as a re-ranked or refilled entry seldom ranks low.
    fn sift(&mut self, mut pos: usize) {
        let rank = self.heap[pos];
        if pos == 0 || !rank.below(&self.heap[(pos - 1) / 2]) {
            while 2 * pos + 1 < self.heap.len() {
                let mut child = 2 * pos + 1;
                if child + 1 < self.heap.len() && self.heap[child + 1].below(&self.heap[child]) {
                    child += 1;
                }
                self.place(pos, self.heap[child]);
                pos = child;
            }
        }
        while pos > 0 && rank.below(&self.heap[(pos - 1) / 2]) {
            self.place(pos, self.heap[(pos - 1) / 2]);
            pos = (pos - 1) / 2;
        }
        self.place(pos, rank);
    }

    fn place(&mut self, pos: usize, rank: Rank) {
        self.heap[pos] = rank;
        self.heap_pos[rank.slot] = pos;
    }

    /// Map, slab, heap order, every `heap_pos` and the byte count agree.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        assert_eq!(self.map.len(), self.heap.len());
        assert_eq!(self.slots.len(), self.heap.len() + self.free.len());
        let mut bytes = 0;
        for (pos, rank) in self.heap.iter().enumerate() {
            let slot = self.slot(rank.slot);
            assert_eq!((self.heap_pos[rank.slot], self.map[&slot.key]), (pos, rank.slot));
            assert!(pos == 0 || self.heap[(pos - 1) / 2].below(rank), "heap order at {pos}");
            bytes += slot.meta.size;
        }
        assert!(bytes == self.bytes && bytes <= self.capacity);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Policy::Lru;

    pub(crate) fn meta(size: u64, lm: u64) -> DocMeta {
        DocMeta { size, last_modified: lm }
    }

    /// A `policy` cache after storing `(key, size)` pairs in order.
    pub(crate) fn filled(policy: Policy, capacity: u64, docs: &[(u32, u64)]) -> WebCache<u32> {
        let mut c = WebCache::with_policy(policy, capacity);
        for &(k, size) in docs {
            c.store(k, meta(size, 0));
        }
        c
    }

    /// `n` 10-byte documents keyed `0..n`.
    fn tens(n: u32) -> Vec<(u32, u64)> {
        (0..n).map(|i| (i, 10)).collect()
    }

    #[test]
    fn hit_stale_miss_triage() {
        let mut c = filled(Lru, 1 << 20, &[]);
        assert_eq!(c.lookup(&1, meta(100, 5)), Lookup::Miss);
        c.store(1, meta(100, 5));
        assert_eq!(c.lookup(&1, meta(100, 5)), Lookup::Hit);
        // Document modified on the server: same URL, new last-modified.
        assert_eq!(c.lookup(&1, meta(100, 6)), Lookup::StaleHit);
        // The stale copy was purged; a retry is a clean miss.
        assert_eq!(c.lookup(&1, meta(100, 6)), Lookup::Miss);
    }

    #[test]
    fn size_change_is_stale() {
        assert_eq!(filled(Lru, 1 << 20, &[(7, 100)]).lookup(&7, meta(120, 0)), Lookup::StaleHit);
    }

    #[test]
    fn oversized_documents_bypass_cache() {
        let mut c = filled(Lru, 1 << 30, &[]);
        assert_eq!(c.store(1, meta(MAX_CACHEABLE_BYTES + 1, 0)), None);
        assert_eq!(c.store(2, meta(MAX_CACHEABLE_BYTES, 0)), Some(vec![]));
        assert!(!c.contains(&1) && c.contains(&2));
        // Nor is a document larger than the whole cache.
        assert_eq!(filled(Lru, 10, &[]).store(1, meta(11, 0)), None);
    }

    #[test]
    fn store_reports_evictions() {
        let mut c = filled(Lru, 100, &tens(5));
        c.lookup(&0, meta(10, 0));
        assert_eq!(c.store(9, meta(95, 0)), Some(vec![1, 2, 3, 4, 0]), "in LRU order");
        c.check_invariants();
    }

    #[test]
    fn hit_promotes_against_eviction() {
        let mut c = filled(Lru, 300, &[(1, 100), (2, 100), (3, 100)]);
        assert_eq!(c.lookup(&1, meta(100, 0)), Lookup::Hit);
        assert_eq!(c.store(4, meta(100, 0)), Some(vec![2]), "hit on 1 made 2 the LRU victim");
        c.check_invariants();
    }

    #[test]
    fn contains_ignores_version() {
        // A peer probing for any version sees it, even though the
        // requester's expected version differs (remote stale hit).
        assert!(filled(Lru, 1 << 20, &[(1, 100)]).contains(&1));
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = filled(Lru, 100, &tens(10));
        assert!((0..10).step_by(2).all(|i| c.remove(&i)));
        for i in 10..15 {
            c.store(i, meta(10, 0));
        }
        assert_eq!((c.len(), c.slots.len()), (10, 10), "freed slots reused");
        c.check_invariants();
    }
}
