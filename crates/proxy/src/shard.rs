//! One shard of the partitioned protocol state.
//!
//! The shard-per-core runtime splits the proxy's mutable directory
//! state along two axes, both keyed by stable hashes so every shard
//! count yields the same global state:
//!
//! * **local directory**: each shard owns a full-width counting Bloom
//!   filter slice holding only the URLs whose [`UrlKey`] digest routes
//!   here ([`shard_of`]). Because a URL's counters live in exactly one
//!   shard, OR-ing the shard bit arrays reproduces the unsharded bit
//!   array exactly (up to 4-bit counter saturation, which the paper
//!   bounds at ~1.4e-15 per bit — see DESIGN.md §13);
//! * **peer replicas**: each peer's installed summary replica and its
//!   `(generation, seq)` sequencing state live wholly in the owner
//!   shard ([`owner_of`]), so delta application parallelizes across
//!   publishers without any cross-shard coordination.
//!
//! A shard is single-owner, sans-I/O state: no sockets, no clocks, no
//! sleeps, and no interior locking of any kind (the sc-check `shards`
//! rule enforces the latter). The only way in is the
//! [`ShardEvent`]/[`ShardOutput`] contract: the [`crate::router`]
//! routes events here and materializes the outputs — effects are
//! forwarded verbatim, [`ShardOutput::Resync`] decisions become DIRREQ
//! sends (the router owns request-number allocation), and
//! [`ShardOutput::ReplicasChanged`] triggers a snapshot re-merge.
//! Anything that crosses shards — publishing the merged directory,
//! answering a DIRREQ with the full bitmap, sweeping failed peers — is
//! an explicit merge step in the router, never shared state.

use crate::machine::{Effect, VirtualTime, RESYNC_BACKOFF};
use sc_bloom::{BitVec, BloomFilter, CountingBloomFilter, FilterConfig, Flip, HashSpec, UrlKey};
use sc_util::fxhash::FxHashMap;
use sc_wire::icp::{DirContent, DirUpdate};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Copy-on-write deep copies taken when applying delta flips (a
    /// `make_mut` that found the filter still shared with a published
    /// snapshot). The batched flip-apply design pins this: with replica
    /// publication deferred to batch boundaries, a batch of N delta
    /// datagrams costs at most one copy per touched filter, not N.
    static COW_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Number of replica-filter deep copies this thread's delta
/// applications have taken so far (monotonic; diff around a workload
/// to count its copies — same pattern as [`sc_md5::blocks_hashed`]).
pub fn cow_copies() -> u64 {
    COW_COPIES.with(|c| c.get())
}

/// The shard that owns `key`'s directory entry: the low 64 bits of the
/// key's (already computed) MD5 digest, reduced mod `shards`.
///
/// [`sc_bloom::HashSpec`] consumes digest bits from the front of the
/// digest, so taking the *tail* keeps shard routing and Bloom indices
/// decorrelated for every spec the paper's experiments use.
pub fn shard_of(key: &UrlKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let digest = key.digest();
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&digest[8..]);
    (u64::from_le_bytes(tail) % shards as u64) as usize
}

/// The shard that owns `peer`'s summary replica: highest-random-weight
/// (rendezvous) consistent hashing over `(peer, shard)` pairs.
///
/// The old dense `peer % shards` mapping assumed peer ids are a
/// contiguous 0..N — at big N with sparse or churning id spaces it
/// piles whole id ranges onto one shard and reshuffles *every* peer
/// when the shard count changes. Rendezvous hashing keeps the
/// assignment uniform for arbitrary id sets and moves only the peers
/// whose winning shard disappeared when the lane count shrinks
/// (expected `1/shards` of them), so a resharded daemon re-installs
/// the minimum number of replicas.
pub fn owner_of(peer: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for shard in 0..shards {
        let weight = mix64(((peer as u64) << 32) | shard as u64);
        if shard == 0 || weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

/// The splitmix64 finalizer — a full-avalanche mix for rendezvous
/// weights and fanout stagger slots (deterministic, endian-free, no
/// external state).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One routed input to a shard. Events carry the key or peer the router
/// used to pick this shard; `now` rides along where the shard's own
/// state (resync backoff) needs a clock reading.
#[derive(Debug)]
pub enum ShardEvent<'a> {
    /// A document keyed by `url` entered the local cache: insert it
    /// into this shard's directory slice.
    Insert {
        /// The stored document's pre-hashed key.
        url: &'a UrlKey,
    },
    /// A document keyed by `url` left the local cache (eviction or
    /// purge): remove it from this shard's directory slice.
    Remove {
        /// The removed document's pre-hashed key.
        url: &'a UrlKey,
    },
    /// A DIRUPDATE from peer `from` (already spec-validated and
    /// accounted by the router) for the replica this shard owns.
    Apply {
        /// Clock reading, for resync backoff.
        now: VirtualTime,
        /// The publishing peer.
        from: u32,
        /// The update's validated hash spec.
        spec: HashSpec,
        /// The update payload.
        update: DirUpdate,
    },
    /// A failed peer was heard from again: ensure its replica slot
    /// exists and decide whether to ask for its bitmap.
    PeerReturned {
        /// Clock reading, for resync backoff.
        now: VirtualTime,
        /// The recovered peer.
        peer: u32,
    },
    /// The router's failure sweep declared `peer` dead: drop its
    /// replica state.
    DropReplica {
        /// The failed peer.
        peer: u32,
    },
}

/// One routed output from a shard, in decision order. The router
/// materializes these: effects pass through, resync decisions become
/// DIRREQ sends, and replica-set changes re-merge the lock-free
/// snapshot.
#[derive(Debug)]
pub enum ShardOutput {
    /// Forward this journal/metric effect verbatim.
    Effect(Effect),
    /// Ask the current datagram's sender to restate its full bitmap
    /// (backoff already checked and stamped in-shard). The router
    /// allocates the request number and builds the DIRREQ.
    Resync {
        /// The publisher being asked.
        peer: u32,
        /// The generation last seen from it (0 = none).
        last_generation: u32,
    },
    /// This shard's replica set changed; the router must re-merge the
    /// published snapshot.
    ReplicasChanged,
}

/// One peer's summary replica and the sequencing state guarding it
/// (moved verbatim from the pre-shard protocol machine).
///
/// A replica is only ever *installed* from a full bitmap; delta flips
/// apply only when they carry exactly the expected `(generation, seq)`.
/// Until a bitmap arrives (`filter` is `None`) probes treat the peer as
/// empty — flips are never guessed onto an empty array.
struct ReplicaState {
    /// The installed replica; `None` on first contact or after a
    /// detected gap discarded the previous one. Shared by `Arc` with
    /// the published [`crate::replica::ReplicaSnapshot`]s; delta flips
    /// copy-on-write (`Arc::make_mut`) only while a reader holds an old
    /// snapshot.
    filter: Option<Arc<BloomFilter>>,
    /// Generation of the installed (or last seen) publisher bitmap.
    generation: u32,
    /// Seq the next delta from this peer must carry.
    expected_seq: u32,
    /// When a DIRREQ was last sent, for backoff.
    last_resync_request: Option<VirtualTime>,
    /// A partially assembled split DIRFULL_GR bitmap. Segments sharing
    /// one `(generation, seq)` stamp splice in order; the assembly only
    /// becomes the replica once it covers the whole array, so the
    /// install-from-full-bitmap-only invariant holds under loss and
    /// reordering (a broken sequence is simply discarded and the next
    /// resync retries).
    staging: Option<GrStaging>,
}

/// In-flight assembly of a segmented compressed bitmap.
struct GrStaging {
    generation: u32,
    seq: u32,
    bits: BitVec,
    /// First bit the next segment must start at.
    next_bit: u32,
}

impl Default for ReplicaState {
    fn default() -> Self {
        ReplicaState {
            filter: None,
            generation: 0,
            expected_seq: 0,
            last_resync_request: None,
            staging: None,
        }
    }
}

/// One shard: a full-width slice of the local counting Bloom directory
/// plus the replicas of the peers this shard owns.
pub struct Shard {
    index: usize,
    /// SC mode: this shard's slice of the local directory. Full spec
    /// width; only keys routed here are ever inserted.
    filter: Option<CountingBloomFilter>,
    /// Replicas of the peers owned by this shard ([`owner_of`]).
    replicas: FxHashMap<u32, ReplicaState>,
    /// Warm flip buffer for directory mutations: the router publishes
    /// by diffing merged slices against the baseline, so per-insert
    /// flips are discarded here — collected into this scratch instead
    /// of a fresh `Vec` so the steady-state store path never allocates.
    flip_scratch: Vec<Flip>,
}

impl Shard {
    /// A shard at `index`. `filter` carries the directory spec in
    /// summary-cache mode (every shard gets the full-width config).
    pub fn new(index: usize, filter: Option<FilterConfig>) -> Shard {
        Shard {
            index,
            filter: filter.map(CountingBloomFilter::new),
            replicas: FxHashMap::default(),
            flip_scratch: Vec::new(),
        }
    }

    /// This shard's index in the router's shard table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Feed one routed event; outputs append to `out` in decision order.
    pub fn handle(&mut self, event: ShardEvent<'_>, out: &mut Vec<ShardOutput>) {
        match event {
            ShardEvent::Insert { url } => {
                if let Some(filter) = self.filter.as_mut() {
                    self.flip_scratch.clear();
                    filter.insert_key_into(url, &mut self.flip_scratch);
                }
            }
            ShardEvent::Remove { url } => {
                if let Some(filter) = self.filter.as_mut() {
                    self.flip_scratch.clear();
                    filter.remove_key_into(url, &mut self.flip_scratch);
                }
            }
            ShardEvent::Apply {
                now,
                from,
                spec,
                update,
            } => self.apply_update(now, from, spec, update, out),
            ShardEvent::PeerReturned { now, peer } => {
                let st = self.replicas.entry(peer).or_default();
                Self::request_resync(st, now, peer, out);
            }
            ShardEvent::DropReplica { peer } => {
                if self
                    .replicas
                    .remove(&peer)
                    .is_some_and(|st| st.filter.is_some())
                {
                    out.push(ShardOutput::ReplicasChanged);
                }
            }
        }
    }

    /// Apply a received directory update to the sender's replica.
    ///
    /// Sequencing discipline (unchanged from the unsharded machine): a
    /// replica is only ever *installed* from a full bitmap, and delta
    /// flips apply only when they carry exactly the expected
    /// `(generation, seq)`. Anything else is evidence of loss,
    /// reordering, or a publisher restart — the replica is discarded
    /// and a resync decision goes out.
    fn apply_update(
        &mut self,
        now: VirtualTime,
        sender: u32,
        spec: HashSpec,
        update: DirUpdate,
        out: &mut Vec<ShardOutput>,
    ) {
        let st = self.replicas.entry(sender).or_default();
        let mut replicas_changed = false;
        match update.content {
            DirContent::Bitmap(words) => {
                if words.len() != (spec.table_bits() as usize).div_ceil(64) {
                    return;
                }
                // Mask any overhang bits the sender left set.
                let mut words = words;
                let rem = spec.table_bits() as usize % 64;
                if rem != 0 {
                    if let Some(last) = words.last_mut() {
                        *last &= (1u64 << rem) - 1;
                    }
                }
                let first_contact = st.filter.is_none();
                st.filter = Some(Arc::new(BloomFilter::from_parts(
                    spec,
                    BitVec::from_words(spec.table_bits() as usize, words),
                )));
                st.generation = update.generation;
                st.expected_seq = update.seq.wrapping_add(1);
                st.last_resync_request = None;
                st.staging = None;
                replicas_changed = true;
                out.push(ShardOutput::Effect(Effect::ReplicaInstalled {
                    peer: sender,
                    first_contact,
                    generation: update.generation,
                    seq: update.seq,
                    bits: spec.table_bits(),
                }));
            }
            DirContent::CompressedBitmap {
                first_bit,
                seg_bits,
                ones,
                rice,
                data,
            } => {
                let total = spec.table_bits();
                if update.bit_array_size != total
                    || first_bit % 64 != 0
                    || seg_bits == 0
                    || first_bit as u64 + seg_bits as u64 > total as u64
                {
                    return;
                }
                let coded = sc_bloom::CompressedBits {
                    len: seg_bits,
                    ones,
                    rice,
                    data,
                };
                let Ok(segment) = sc_bloom::decompress(&coded) else {
                    // Malformed code stream: drop the datagram (and any
                    // partial assembly it would have extended).
                    st.staging = None;
                    return;
                };
                let staged = st.staging.take_if(|s| {
                    s.generation == update.generation
                        && s.seq == update.seq
                        && s.next_bit == first_bit
                });
                let mut assembly = match (first_bit, staged) {
                    (0, _) => {
                        // A fresh attempt supersedes whatever was staged.
                        st.staging = None;
                        GrStaging {
                            generation: update.generation,
                            seq: update.seq,
                            bits: BitVec::new(total as usize),
                            next_bit: 0,
                        }
                    }
                    (_, Some(staged)) => staged,
                    (_, None) => {
                        // Mid-bitmap segment with no matching prefix: an
                        // earlier segment was lost, reordered, or belongs
                        // to a superseded attempt. Discard it but KEEP
                        // any in-progress assembly — a stale straggler
                        // must not destroy a live one.
                        return;
                    }
                };
                for i in segment.iter_ones() {
                    assembly.bits.set(first_bit as usize + i, true);
                }
                assembly.next_bit = first_bit + seg_bits;
                if assembly.next_bit == total {
                    let first_contact = st.filter.is_none();
                    st.filter = Some(Arc::new(BloomFilter::from_parts(spec, assembly.bits)));
                    st.generation = update.generation;
                    st.expected_seq = update.seq.wrapping_add(1);
                    st.last_resync_request = None;
                    replicas_changed = true;
                    out.push(ShardOutput::Effect(Effect::ReplicaInstalled {
                        peer: sender,
                        first_contact,
                        generation: update.generation,
                        seq: update.seq,
                        bits: total,
                    }));
                } else {
                    st.staging = Some(assembly);
                }
            }
            DirContent::Flips(flips) => {
                let in_sync = st.generation == update.generation
                    && st.filter.as_deref().is_some_and(|f| f.spec() == spec);
                if in_sync && update.seq == st.expected_seq {
                    st.expected_seq = st.expected_seq.wrapping_add(1);
                    if let Some(filter) = st.filter.as_mut() {
                        if !flips.is_empty() {
                            // Copy-on-write: clones the filter only if a
                            // reader still holds an older snapshot.
                            if Arc::strong_count(filter) > 1 {
                                COW_COPIES.with(|c| c.set(c.get() + 1));
                            }
                            let filter = Arc::make_mut(filter);
                            for f in flips {
                                if f.index() < spec.table_bits() {
                                    filter.apply_flip(f.index(), f.set_bit());
                                }
                            }
                            replicas_changed = true;
                        }
                    }
                } else if in_sync && update.seq.wrapping_sub(st.expected_seq) > u32::MAX / 2 {
                    // duplicate / late datagram from the past: already reflected
                } else {
                    // Seq gap ahead, generation or spec change, or no
                    // replica at all (first contact / awaiting a bitmap).
                    if st.filter.take().is_some() {
                        replicas_changed = true;
                        out.push(ShardOutput::Effect(Effect::UpdateGap {
                            peer: sender,
                            got_generation: update.generation,
                            got_seq: update.seq,
                            expected_generation: st.generation,
                            expected_seq: st.expected_seq,
                        }));
                    }
                    Self::request_resync(st, now, sender, out);
                }
            }
        }
        if replicas_changed {
            out.push(ShardOutput::ReplicasChanged);
        }
    }

    /// Decide whether to ask `peer` for its full bitmap, honoring the
    /// [`RESYNC_BACKOFF`] stamp kept in-shard. Retries ride the next
    /// delta or heartbeat that finds the replica still missing.
    fn request_resync(
        st: &mut ReplicaState,
        now: VirtualTime,
        peer: u32,
        out: &mut Vec<ShardOutput>,
    ) {
        if st
            .last_resync_request
            .is_some_and(|at| now.saturating_since(at) < RESYNC_BACKOFF)
        {
            return;
        }
        st.last_resync_request = Some(now);
        out.push(ShardOutput::Resync {
            peer,
            last_generation: st.generation,
        });
    }

    // -- read-only views the router merges over ---------------------------

    /// This shard's directory slice bits (SC mode), for the router's
    /// OR-merge at publish time.
    pub fn local_bits(&self) -> Option<&BitVec> {
        self.filter.as_ref().map(|f| f.bits())
    }

    /// Saturated-counter increments observed in this shard's slice —
    /// the only condition under which the OR-merge can diverge from an
    /// unsharded directory.
    pub fn local_saturations(&self) -> u64 {
        self.filter.as_ref().map_or(0, |f| f.saturations())
    }

    /// The installed replica of `peer`, if this shard owns one.
    pub fn replica_filter(&self, peer: u32) -> Option<&Arc<BloomFilter>> {
        self.replicas.get(&peer).and_then(|st| st.filter.as_ref())
    }

    /// Is a replica of `peer` currently installed in this shard?
    pub fn replica_installed(&self, peer: u32) -> bool {
        self.replicas
            .get(&peer)
            .is_some_and(|st| st.filter.is_some())
    }

    /// The bit array of the installed replica of `peer`, if synced.
    pub fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        self.replicas
            .get(&peer)
            .and_then(|st| st.filter.as_deref())
            .map(|f| f.bits().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 4, 8] {
            for i in 0..64u32 {
                let key = UrlKey::new(format!("http://s/{i}").as_bytes());
                let a = shard_of(&key, n);
                let b = shard_of(&key, n);
                assert_eq!(a, b, "routing must be deterministic");
                assert!(a < n);
            }
        }
        let key = UrlKey::new(b"http://s/one-shard");
        assert_eq!(shard_of(&key, 1), 0);
        assert_eq!(shard_of(&key, 0), 0, "degenerate count clamps to one lane");
    }

    #[test]
    fn owner_of_is_uniform_and_stable_under_resharding() {
        for shards in [1usize, 2, 4, 8] {
            let mut seen = vec![0usize; shards];
            for peer in 0..256u32 {
                let a = owner_of(peer, shards);
                assert_eq!(a, owner_of(peer, shards), "deterministic");
                assert!(a < shards);
                seen[a] += 1;
            }
            if shards > 1 {
                assert!(
                    seen.iter().all(|&c| c > 256 / shards / 4),
                    "every lane owns a fair share at {shards} shards: {seen:?}"
                );
            }
        }
        // The consistent-hash property the dense peer % shards mapping
        // lacked: growing 4 -> 8 lanes only moves peers to the *new*
        // lanes; survivors never trade peers among themselves.
        let mut moved = 0;
        for peer in 0..256u32 {
            let old = owner_of(peer, 4);
            let new = owner_of(peer, 8);
            if new != old {
                assert!(new >= 4, "peer {peer} shuffled between survivors: {old} -> {new}");
                moved += 1;
            }
        }
        assert!(moved > 0, "some peers should adopt the new lanes");
    }

    #[test]
    fn owner_of_spreads_sparse_id_strides() {
        // Under peer % shards, ids with stride 64 all collided onto lane
        // 0; rendezvous hashing keeps sparse id spaces spread.
        let shards = 4;
        let mut seen = vec![0usize; shards];
        for i in 0..32u32 {
            seen[owner_of(i * 64, shards)] += 1;
        }
        assert!(
            seen.iter().filter(|&&c| c > 0).count() > 1,
            "stride-64 ids must not pile onto one lane: {seen:?}"
        );
    }

    #[test]
    fn shard_routing_spreads_keys() {
        let n = 4usize;
        let mut seen = vec![0usize; n];
        for i in 0..256u32 {
            let key = UrlKey::new(format!("http://server-{}.x/{i}", i % 7).as_bytes());
            seen[shard_of(&key, n)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "every shard should own some keys: {seen:?}"
        );
    }

    #[test]
    fn insert_remove_round_trips_the_slice() {
        let cfg = FilterConfig {
            bits: 512,
            hashes: 4,
            function_bits: 32,
        };
        let mut shard = Shard::new(0, Some(cfg));
        let key = UrlKey::new(b"http://s/doc");
        let mut out = Vec::new();
        shard.handle(ShardEvent::Insert { url: &key }, &mut out);
        assert!(out.is_empty(), "directory mutations emit no outputs");
        assert!(shard.local_bits().is_some_and(|b| b.count_ones() > 0));
        shard.handle(ShardEvent::Remove { url: &key }, &mut out);
        assert!(shard.local_bits().is_some_and(|b| b.count_ones() == 0));
    }

    #[test]
    fn delta_without_bitmap_resyncs_with_backoff() {
        let mut shard = Shard::new(0, None);
        let spec = HashSpec::paper_default(4, 512).unwrap();
        let delta = |seq| DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 7,
            seq,
            content: DirContent::Flips(Vec::new()),
        };
        let at = |ms: u64| VirtualTime::from_micros(ms * 1000);
        let mut out = Vec::new();
        shard.handle(
            ShardEvent::Apply { now: at(10), from: 1, spec, update: delta(3) },
            &mut out,
        );
        assert!(
            matches!(out.as_slice(), [ShardOutput::Resync { peer: 1, last_generation: 0 }]),
            "first gap decides to resync: {out:?}"
        );
        out.clear();
        shard.handle(
            ShardEvent::Apply { now: at(20), from: 1, spec, update: delta(3) },
            &mut out,
        );
        assert!(out.is_empty(), "within backoff: no second decision: {out:?}");
        out.clear();
        shard.handle(
            ShardEvent::Apply { now: at(300), from: 1, spec, update: delta(3) },
            &mut out,
        );
        assert_eq!(out.len(), 1, "after backoff the retry rides the next delta");
        assert!(!shard.replica_installed(1), "no install from a delta alone");
    }

    /// Compress the `[start, start + len)` slice of `bits` into the
    /// wire fields of one DIRFULL_GR segment.
    fn gr_segment(bits: &BitVec, start: usize, len: usize) -> DirContent {
        let mut sub = BitVec::new(len);
        for i in 0..len {
            if bits.get(start + i) {
                sub.set(i, true);
            }
        }
        let c = sc_bloom::compress(&sub);
        DirContent::CompressedBitmap {
            first_bit: start as u32,
            seg_bits: len as u32,
            ones: c.ones,
            rice: c.rice,
            data: c.data,
        }
    }

    fn gr_update(generation: u32, seq: u32, content: DirContent) -> DirUpdate {
        DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation,
            seq,
            content,
        }
    }

    fn sample_bits() -> BitVec {
        let mut bits = BitVec::new(512);
        for i in [0usize, 17, 63, 64, 200, 255, 256, 300, 511] {
            bits.set(i, true);
        }
        bits
    }

    #[test]
    fn compressed_bitmap_installs_like_a_raw_one() {
        let spec = HashSpec::paper_default(4, 512).unwrap();
        let bits = sample_bits();
        let mut shard = Shard::new(0, None);
        let mut out = Vec::new();
        shard.handle(
            ShardEvent::Apply {
                now: VirtualTime::ZERO,
                from: 2,
                spec,
                update: gr_update(5, 9, gr_segment(&bits, 0, 512)),
            },
            &mut out,
        );
        assert!(shard.replica_installed(2), "single GR segment installs");
        assert_eq!(shard.replica_bits(2).unwrap(), bits, "bit-for-bit");
        assert!(
            out.iter().any(|o| matches!(
                o,
                ShardOutput::Effect(Effect::ReplicaInstalled { peer: 2, seq: 9, .. })
            )),
            "install effect: {out:?}"
        );
        // Sequencing matches the raw-bitmap discipline: the next delta
        // at seq 10 applies cleanly.
        out.clear();
        shard.handle(
            ShardEvent::Apply {
                now: VirtualTime::ZERO,
                from: 2,
                spec,
                update: gr_update(5, 10, DirContent::Flips(vec![sc_bloom::Flip::set(7)])),
            },
            &mut out,
        );
        assert!(shard.replica_bits(2).unwrap().get(7), "delta applied after GR install");
    }

    #[test]
    fn split_segments_install_only_when_complete_and_in_order() {
        let spec = HashSpec::paper_default(4, 512).unwrap();
        let bits = sample_bits();
        let apply = |shard: &mut Shard, seq: u32, content: DirContent| {
            let mut out = Vec::new();
            shard.handle(
                ShardEvent::Apply {
                    now: VirtualTime::ZERO,
                    from: 3,
                    spec,
                    update: gr_update(7, seq, content),
                },
                &mut out,
            );
            out
        };

        // In-order halves assemble and install once complete.
        let mut shard = Shard::new(0, None);
        apply(&mut shard, 4, gr_segment(&bits, 0, 256));
        assert!(!shard.replica_installed(3), "half a bitmap never installs");
        apply(&mut shard, 4, gr_segment(&bits, 256, 256));
        assert!(shard.replica_installed(3));
        assert_eq!(shard.replica_bits(3).unwrap(), bits);

        // A lost first segment leaves the tail orphaned: no install.
        let mut shard = Shard::new(0, None);
        apply(&mut shard, 4, gr_segment(&bits, 256, 256));
        assert!(!shard.replica_installed(3), "tail without head is discarded");

        // A fresh attempt (first_bit 0) supersedes stale staging.
        let mut shard = Shard::new(0, None);
        apply(&mut shard, 4, gr_segment(&bits, 0, 256));
        apply(&mut shard, 5, gr_segment(&bits, 0, 256)); // retry at a newer seq
        apply(&mut shard, 4, gr_segment(&bits, 256, 256)); // stale tail: dropped
        assert!(!shard.replica_installed(3), "stale tail must not complete the retry");
        apply(&mut shard, 5, gr_segment(&bits, 256, 256));
        assert!(shard.replica_installed(3), "matching tail completes the retry");
    }

    #[test]
    fn drop_replica_reports_changes_only_when_installed() {
        let mut shard = Shard::new(0, None);
        let mut out = Vec::new();
        shard.handle(ShardEvent::DropReplica { peer: 9 }, &mut out);
        assert!(out.is_empty(), "no replica, nothing changed");
        let spec = HashSpec::paper_default(4, 512).unwrap();
        let bitmap = DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 3,
            seq: 0,
            content: DirContent::Bitmap(vec![0u64; 8]),
        };
        shard.handle(
            ShardEvent::Apply { now: VirtualTime::ZERO, from: 9, spec, update: bitmap },
            &mut out,
        );
        assert!(shard.replica_installed(9));
        out.clear();
        shard.handle(ShardEvent::DropReplica { peer: 9 }, &mut out);
        assert!(
            matches!(out.as_slice(), [ShardOutput::ReplicasChanged]),
            "dropping an installed replica must re-merge: {out:?}"
        );
    }
}
