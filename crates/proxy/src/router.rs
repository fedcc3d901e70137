//! The router: one proxy's protocol state and every decision made on it.
//!
//! The daemon holds the whole router behind one `Mutex<Router>`; the
//! simnet drives the same type from a virtual clock. It owns:
//!
//! * **the local directory**: the paper's one counting Bloom filter
//!   over this proxy's cache (Section V-C), fed pre-hashed keys by
//!   [`Event::Stored`] / [`Event::Purged`];
//! * **the publish ledger**: generation, baseline bitmap, the shared
//!   flip log, and the update policy. A publish diffs the directory's
//!   bit array against the baseline — exactly the
//!   [`ProxySummary::publish`] arithmetic — and appends the diff to the
//!   flip log;
//! * **peer replicas**: one installed Bloom replica per peer plus the
//!   `(generation, seq)` sequencing state guarding it. Replicas install
//!   only from full (raw or Golomb–Rice) bitmaps; deltas apply only in
//!   sequence; a gap discards the replica and sends a DIRREQ resync;
//! * **request numbers**: one allocator for DIRREQ/DIRUPDATE numbering;
//! * **peer liveness**: SECHO bookkeeping, the failure sweep, and
//!   recovery reinitialization (Section VI-B);
//! * **per-peer update lanes**: each peer consumes the flip log at its
//!   own cursor with its own seq stream, serviced in a stagger slot
//!   derived from `(proxy, peer)` so keep-alive and update fanout
//!   spreads across ticks instead of bursting — the big-N scaling
//!   design (DESIGN.md §14). A lane far enough behind that the delta
//!   backlog outweighs a bitmap gets a full restatement instead,
//!   Golomb–Rice coded when the peer negotiated `DIRFULL_GR` support
//!   via the DIRREQ options word;
//! * **the replica snapshot cell**: whenever the installed replica set
//!   changes, the router publishes it as one immutable
//!   [`ReplicaSnapshot`] for the lock-free read path.
//!
//! The router processes one event at a time, so a given event sequence
//! always yields the same output stream — what lets the simnet replay a
//! seed's journal bit for bit.
//!
//! This module is sans-I/O (sc-check rule 6 covers it): no sockets, no
//! real clocks, no sleeps.

use crate::machine::{
    Dest, DirectoryView, Effect, Event, Output, Send, SendKind, VirtualTime,
    FAILURE_KEEPALIVE_PERIODS, FLIPS_PER_DATAGRAM, GR_SEGMENT_BITS, RESYNC_BACKOFF,
};
use crate::replica::{ReplicaCell, ReplicaSnapshot};
use sc_bloom::{BitVec, BloomFilter, CountingBloomFilter, FilterConfig, Flip, HashSpec, UrlKey};
use sc_util::fxhash::FxHashMap;
use sc_wire::icp::{
    DirContent, DirUpdate, IcpMessage, DIRFULL_GR_SEGMENT_LEN, DIRUPDATE_HEADER_LEN, HEADER_LEN,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use summary_cache_core::{wire_cost, ProxySummary, SummarySnapshot, UpdatePolicy};

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

/// The splitmix64 finalizer — a full-avalanche mix for fanout stagger
/// slots (deterministic, endian-free, no external state).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One read-only introspection surface over a directory owner — the
/// router and the live [`crate::daemon::Daemon`] both implement it, so
/// tests and admin endpoints ask one trait instead of reaching through
/// layers.
pub trait DirectoryInspect {
    /// Peer ids whose summary replicas are currently installed (i.e.
    /// synced — a bitmap has arrived and no gap has discarded it).
    fn replicated_peers(&self) -> Vec<u32>;
    /// The bit array of the installed replica of `peer`, if synced.
    fn replica_bits(&self, peer: u32) -> Option<BitVec>;
    /// This proxy's own *published* summary bit array (SC mode only) —
    /// what every in-sync peer replica of this proxy must equal.
    fn published_bits(&self) -> Option<BitVec>;
    /// Documents currently reflected in the local directory.
    fn cached_docs(&self) -> u64;
}

/// Failure-detection state for one peer (Section VI-B: the prototype
/// "leverages Squid's built-in support to detect failure and recovery
/// of neighbor proxies, and reinitializes a failed neighbor's bit array
/// when it recovers").
struct PeerLiveness {
    last_heard: VirtualTime,
    failed: bool,
}

/// Summary-cache mode's local half: the directory filter, the published
/// baseline, the shared flip log the per-peer lanes consume, the
/// generation lineage, and the policy counters the publish decision
/// reads. Sequence numbers are *per lane*: each peer sees its own
/// gap-free seq stream, which is what lets fanout stagger and per-peer
/// full restatements coexist (a unicast send can never create a seq
/// some other peer reads as a gap).
struct ScControl {
    spec: HashSpec,
    /// The local directory: one counting Bloom filter over every cached
    /// document, at the published spec.
    filter: CountingBloomFilter,
    /// Warm flip buffer for directory mutations. A publish diffs the
    /// filter's bits against the baseline, so per-insert flips are
    /// discarded — collected here instead of a fresh `Vec` so the
    /// steady-state store path never allocates.
    flip_scratch: Vec<Flip>,
    /// The published bitmap — the state at the flip log's head; what a
    /// peer whose lane cursor is current holds.
    baseline: BitVec,
    /// Cached `baseline.count_ones()`, refreshed at publish — feeds the
    /// cheap Golomb–Rice size estimate in the per-lane §V-D choice.
    baseline_ones: usize,
    generation: u32,
    policy: UpdatePolicy,
    /// Documents currently in the directory (inserts minus removes).
    docs: u64,
    /// Inserts since the last publish (Section V-A threshold input).
    fresh: u64,
    requests_since_publish: u64,
    last_publish: VirtualTime,
    /// The shared flip log: every publish appends its baseline diff
    /// here; lanes consume it at their own pace and it is trimmed to
    /// the slowest live lane's cursor.
    log: VecDeque<Flip>,
    /// Absolute index of `log.front()` (cursors are absolute, so
    /// trimming never renumbers).
    log_base: u64,
}

impl ScControl {
    /// A document keyed by `key` entered the cache. The key arrives
    /// pre-hashed — no digest happens here.
    fn insert(&mut self, key: &UrlKey) {
        self.flip_scratch.clear();
        self.filter.insert_key_into(key, &mut self.flip_scratch);
        self.docs += 1;
        self.fresh += 1;
    }

    /// A document keyed by `key` left the cache (eviction or purge).
    fn remove(&mut self, key: &UrlKey) {
        self.flip_scratch.clear();
        self.filter.remove_key_into(key, &mut self.flip_scratch);
        self.docs = self.docs.saturating_sub(1);
    }
}

/// One peer's summary replica and the sequencing state guarding it.
///
/// A replica is only ever *installed* from a full bitmap; delta flips
/// apply only when they carry exactly the expected `(generation, seq)`.
/// Until a bitmap arrives (`filter` is `None`) probes treat the peer as
/// empty — flips are never guessed onto an empty array.
#[derive(Default)]
struct ReplicaState {
    /// The installed replica; `None` on first contact or after a
    /// detected gap discarded the previous one. Shared by `Arc` with
    /// the published [`ReplicaSnapshot`]s; delta flips copy-on-write
    /// (`Arc::make_mut`) only while a reader holds an old snapshot.
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
    /// The spec every segment of this assembly must carry; `bits` is
    /// sized by it.
    spec: HashSpec,
    bits: BitVec,
    /// First bit the next segment must start at.
    next_bit: u32,
}

/// One peer's update lane: where it stands in the flip log and in its
/// private seq stream.
struct PeerLane {
    /// Seq of the last update datagram sent down this lane.
    seq: u32,
    /// Absolute flip-log index of the next flip this peer has not seen.
    cursor: u64,
    /// The next service must restate the full bitmap (set when the
    /// failure sweep snapped the cursor past flips the peer will never
    /// get as deltas).
    needs_full: bool,
    /// The peer advertised `DIRFULL_GR` support in a DIRREQ options
    /// word; full restatements to it go Golomb–Rice coded.
    accepts_gr: bool,
    /// Which fanout tick services this lane (stable jittered phase,
    /// hashed from `(proxy, peer)`).
    slot: u32,
}

/// The protocol state for one proxy: its directory, its peers'
/// replicas, and the control plane around them.
pub struct Router {
    id: u32,
    peers: Vec<u32>,
    keepalive_ms: u64,
    /// Peer summary replicas, keyed by peer id.
    replicas: FxHashMap<u32, ReplicaState>,
    liveness: FxHashMap<u32, PeerLiveness>,
    sc: Option<ScControl>,
    /// Per-peer update lanes (every configured peer has one; only SC
    /// mode uses the log fields, but the stagger slot drives keep-alive
    /// fanout in every mode).
    lanes: FxHashMap<u32, PeerLane>,
    /// How many stagger slots the fanout is spread over; a driver must
    /// tick `fanout_slots` times per keep-alive period so every peer is
    /// still serviced once per period.
    fanout_slots: u32,
    /// Ticks seen so far; `tick_no % fanout_slots` is the slot a tick
    /// services.
    tick_no: u64,
    /// The lock-free read-path cell: after replica mutations the router
    /// publishes an immutable snapshot of the installed replicas here,
    /// so SC-mode candidate selection never takes the router lock.
    cell: Arc<ReplicaCell>,
    /// Set when the replica set changed since the last publication to
    /// the cell. Deferring the publication to
    /// [`Router::flush_replicas`] is what lets a batch of delta
    /// datagrams share one copy-on-write of each touched filter: an
    /// eager per-datagram publish would re-`Arc` every filter, so every
    /// following `Arc::make_mut` would deep-copy again.
    replicas_dirty: bool,
    next_reqnum: u32,
}

impl Router {
    /// A router for proxy `id` peering with `peers`, with peer fanout
    /// staggered across `fanout_slots` ticks (0 clamps to 1). `sc`
    /// carries the summary (with its generation already set by the
    /// driver — fresh randomness is I/O) and publish policy in
    /// summary-cache mode; the summary's *published* snapshot seeds the
    /// ledger, and its Bloom spec sizes the directory filter. Non-Bloom
    /// summaries are not routable (nothing constructs them here) and
    /// degrade to no-SC mode. `now` initializes every peer's last-heard
    /// time.
    ///
    /// `_shards` is ignored: a proxy keeps one directory. The argument
    /// stays only because `benchmark/src/replay.rs` passes it; callers
    /// in this workspace pass 1, and the allocation pins in
    /// `tests/zero_alloc.rs` also pass 8 to show the value changes
    /// nothing.
    pub fn new(
        id: u32,
        peers: Vec<u32>,
        keepalive_ms: u64,
        _shards: usize,
        fanout_slots: usize,
        sc: Option<(ProxySummary, UpdatePolicy)>,
        now: VirtualTime,
    ) -> Router {
        let fanout_slots = fanout_slots.max(1) as u32;
        let liveness = peers
            .iter()
            .map(|&p| {
                (
                    p,
                    PeerLiveness {
                        last_heard: now,
                        failed: false,
                    },
                )
            })
            .collect();
        let sc = sc.and_then(|(summary, policy)| {
            let SummarySnapshot::Bloom { spec, bits } = summary.snapshot_published() else {
                return None;
            };
            Some((summary.seq(), ScControl {
                spec,
                filter: CountingBloomFilter::new(FilterConfig {
                    bits: spec.table_bits(),
                    hashes: spec.k(),
                    function_bits: spec.function_bits(),
                }),
                flip_scratch: Vec::new(),
                baseline_ones: bits.count_ones(),
                baseline: bits,
                generation: summary.generation(),
                policy,
                docs: summary.docs(),
                fresh: summary.fresh_docs(),
                requests_since_publish: 0,
                last_publish: now,
                log: VecDeque::new(),
                log_base: 0,
            }))
        });
        let lane_seq = sc.as_ref().map_or(0, |&(seq, _)| seq);
        let sc = sc.map(|(_, sc)| sc);
        let lanes = peers
            .iter()
            .map(|&p| {
                (
                    p,
                    PeerLane {
                        seq: lane_seq,
                        cursor: 0,
                        needs_full: false,
                        accepts_gr: false,
                        slot: (mix64((u64::from(id) << 32) | u64::from(p))
                            % u64::from(fanout_slots)) as u32,
                    },
                )
            })
            .collect();
        Router {
            id,
            peers,
            keepalive_ms,
            replicas: FxHashMap::default(),
            liveness,
            sc,
            lanes,
            fanout_slots,
            tick_no: 0,
            cell: ReplicaCell::new(),
            replicas_dirty: false,
            next_reqnum: 1,
        }
    }

    /// This proxy's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// How many stagger slots the peer fanout is spread over. A driver
    /// must deliver [`Event::Tick`] `fanout_slots` times per keep-alive
    /// period (i.e. every `keepalive_ms / fanout_slots` ms) so each
    /// peer keeps its once-per-period cadence.
    pub fn fanout_slots(&self) -> u32 {
        self.fanout_slots
    }

    /// The shared replica-snapshot cell. The driver clones this once at
    /// startup and serves SC-mode candidate selection from it without
    /// ever locking the router.
    pub fn replica_cell(&self) -> Arc<ReplicaCell> {
        self.cell.clone()
    }

    /// Publish pending replica changes to the read-path cell, if the
    /// replica set changed since the last flush. Batch drivers call this
    /// once per event batch (and [`Router::handle`] calls it per event
    /// for single-event callers), so N delta datagrams in one batch
    /// cost one snapshot merge and at most one copy-on-write per
    /// touched filter instead of N.
    pub fn flush_replicas(&mut self) {
        if self.replicas_dirty {
            self.replicas_dirty = false;
            self.publish_replicas();
        }
    }

    /// Gather the installed replicas into one immutable snapshot (in
    /// configured peer order, matching [`Router::candidates_key_into`]'s
    /// probe order) and publish it to the cell.
    fn publish_replicas(&self) {
        let peers = self
            .peers
            .iter()
            .filter_map(|&p| self.replica_filter(p).map(|f| (p, f.clone())))
            .collect();
        self.cell.swap(Arc::new(ReplicaSnapshot::new(peers)));
    }

    /// The installed replica of `peer`, if synced.
    fn replica_filter(&self, peer: u32) -> Option<&Arc<BloomFilter>> {
        self.replicas.get(&peer).and_then(|st| st.filter.as_ref())
    }

    /// Feed one event; returns the sends and effects it decided on, in
    /// order.
    pub fn handle(&mut self, now: VirtualTime, event: Event<'_>, dir: &dyn DirectoryView) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle_into(now, event, dir, &mut out);
        self.flush_replicas();
        out
    }

    /// [`handle`](Self::handle) into a caller-owned output buffer: `out`
    /// is cleared first and its capacity reused, so a warm driver loop
    /// feeds the steady request stream (store / purge / request-done
    /// with nothing to publish) without a single heap allocation.
    ///
    /// Unlike [`handle`](Self::handle), publication of replica changes
    /// to the read-path cell is *deferred*: a batch driver feeds a whole
    /// batch through here and then calls [`Router::flush_replicas`]
    /// once, so N delta datagrams in the batch share one snapshot merge
    /// and at most one copy-on-write per touched filter.
    pub fn handle_into(
        &mut self,
        now: VirtualTime,
        event: Event<'_>,
        dir: &dyn DirectoryView,
        out: &mut Vec<Output>,
    ) {
        out.clear();
        match event {
            Event::Datagram { from, data } => self.on_datagram(now, from, data, dir, out),
            Event::Tick => self.on_tick(now, out),
            Event::Stored { url, evicted } => {
                if let Some(sc) = self.sc.as_mut() {
                    sc.insert(url);
                    for victim in evicted {
                        sc.remove(victim);
                    }
                }
            }
            Event::Purged { url } => {
                if let Some(sc) = self.sc.as_mut() {
                    sc.remove(url);
                }
            }
            Event::RequestDone => self.on_request_done(now, out),
        }
    }

    // -- read-only views the driver needs ---------------------------------

    /// Peers not currently marked failed (what ICP mode queries).
    pub fn live_peers(&self) -> Vec<u32> {
        self.peers
            .iter()
            .filter(|p| self.liveness.get(p).is_none_or(|l| !l.failed))
            .copied()
            .collect()
    }

    /// Peers whose installed summary replica advertises `url`, in
    /// configured peer order (peers without a synced replica cannot be
    /// candidates), into a caller-owned buffer (cleared first; capacity
    /// reused): the key's memoized index set is derived once and tested
    /// against every installed replica.
    pub fn candidates_key_into(&self, url: &UrlKey, out: &mut Vec<u32>) {
        out.clear();
        for &p in &self.peers {
            if self.replica_filter(p).is_some_and(|f| f.contains_key(url)) {
                out.push(p);
            }
        }
    }

    /// Is a replica of `peer` currently installed?
    pub fn replica_installed(&self, peer: u32) -> bool {
        self.replica_filter(peer).is_some()
    }

    // -- event handlers ---------------------------------------------------

    fn on_datagram(
        &mut self,
        now: VirtualTime,
        from: Option<u32>,
        data: &[u8],
        dir: &dyn DirectoryView,
        out: &mut Vec<Output>,
    ) {
        let Ok(msg) = IcpMessage::decode(data) else {
            return; // malformed datagrams are dropped, as in Squid
        };
        if let Some(peer_id) = from {
            if self.mark_heard(now, peer_id) {
                // The peer just came back (Section VI-B): reinitialize
                // both directions through the resync machinery —
                // restate our bitmap so its replica of us recovers, and
                // ask for its bitmap to rebuild the one we dropped at
                // failure time.
                out.push(Output::Effect(Effect::PeerRecovered { peer: peer_id }));
                self.send_full_to(peer_id, out);
                self.request_resync(now, peer_id, out);
            }
        }
        match msg {
            IcpMessage::Query {
                request_number,
                url,
                ..
            } => {
                out.push(Output::Effect(Effect::QueryServed));
                let have = dir.contains(&url);
                let reply = if have {
                    IcpMessage::Hit {
                        request_number,
                        url,
                    }
                } else {
                    IcpMessage::Miss {
                        request_number,
                        url,
                    }
                };
                out.push(Output::Send(Send {
                    to: Dest::Sender,
                    msg: reply,
                    kind: SendKind::QueryReply,
                }));
            }
            IcpMessage::Hit { request_number, .. } => {
                out.push(Output::Effect(Effect::ReplyReceived {
                    request_number,
                    hit_from: from,
                    replier: from,
                }));
            }
            IcpMessage::Miss { request_number, .. }
            | IcpMessage::MissNoFetch { request_number, .. }
            | IcpMessage::Denied { request_number, .. }
            | IcpMessage::Err { request_number, .. } => {
                out.push(Output::Effect(Effect::ReplyReceived {
                    request_number,
                    hit_from: None,
                    replier: from,
                }));
            }
            IcpMessage::Secho { .. } => {
                // Keep-alive: nothing beyond the liveness marking above.
            }
            IcpMessage::DirUpdate { sender, update, .. } => {
                self.apply_update(now, sender, update, out);
            }
            IcpMessage::DirReq { accepts_gr, .. } => {
                // A peer's replica of us is missing or gapped: restate
                // the whole published bitmap. The options word tells us
                // whether this peer decodes compressed restatements —
                // remember it for every later full send to it.
                if let Some(peer) = from {
                    if let Some(lane) = self.lanes.get_mut(&peer) {
                        lane.accepts_gr = accepts_gr;
                    }
                    self.send_full_to(peer, out);
                }
            }
        }
    }

    /// Validate and account a received directory update, then apply it
    /// to the sender's replica.
    ///
    /// Sequencing discipline: a replica is only ever *installed* from a
    /// full bitmap, and delta flips apply only when they carry exactly
    /// the expected `(generation, seq)`. Anything else is evidence of
    /// loss, reordering, or a publisher restart — the replica is
    /// discarded and a resync goes out.
    fn apply_update(&mut self, now: VirtualTime, sender: u32, update: DirUpdate, out: &mut Vec<Output>) {
        let Ok(spec) = HashSpec::new(
            update.function_num,
            update.function_bits,
            update.bit_array_size,
        ) else {
            return; // malformed spec: drop, as with any bad datagram
        };
        if !self.peers.contains(&sender) {
            return; // not a configured peer: no replica, no resync
        }
        out.push(Output::Effect(Effect::UpdateReceived));
        let st = self.replicas.entry(sender).or_default();
        let bits = match update.content {
            DirContent::Bitmap(mut words) => {
                if words.len() != (spec.table_bits() as usize).div_ceil(64) {
                    return;
                }
                // Mask any overhang bits the sender left set.
                let rem = spec.table_bits() as usize % 64;
                if rem != 0 {
                    if let Some(last) = words.last_mut() {
                        *last &= (1u64 << rem) - 1;
                    }
                }
                BitVec::from_words(spec.table_bits() as usize, words)
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
                        && s.spec == spec
                        && s.next_bit == first_bit
                });
                let mut assembly = match (first_bit, staged) {
                    (0, _) => {
                        // A fresh attempt supersedes whatever was staged.
                        st.staging = None;
                        GrStaging {
                            generation: update.generation,
                            seq: update.seq,
                            spec,
                            bits: BitVec::new(total as usize),
                            next_bit: 0,
                        }
                    }
                    (_, Some(staged)) => staged,
                    (_, None) => {
                        // Mid-bitmap segment with no matching prefix: an
                        // earlier segment was lost, reordered, or belongs
                        // to a superseded attempt or another spec. Discard
                        // it but KEEP any in-progress assembly — a stale
                        // straggler must not destroy a live one.
                        return;
                    }
                };
                for i in segment.iter_ones() {
                    assembly.bits.set(first_bit as usize + i, true);
                }
                assembly.next_bit = first_bit + seg_bits;
                if assembly.next_bit != total {
                    st.staging = Some(assembly);
                    return;
                }
                assembly.bits
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
                            self.replicas_dirty = true;
                        }
                    }
                } else if in_sync && update.seq.wrapping_sub(st.expected_seq) > u32::MAX / 2 {
                    // duplicate / late datagram from the past: already reflected
                } else {
                    // Seq gap ahead, generation or spec change, or no
                    // replica at all (first contact / awaiting a bitmap).
                    if st.filter.take().is_some() {
                        self.replicas_dirty = true;
                        out.push(Output::Effect(Effect::UpdateGap {
                            peer: sender,
                            got_generation: update.generation,
                            got_seq: update.seq,
                            expected_generation: st.generation,
                            expected_seq: st.expected_seq,
                        }));
                    }
                    self.request_resync(now, sender, out);
                }
                return;
            }
        };
        // A whole bitmap arrived (raw, or the last GR segment): install.
        let first_contact = st.filter.is_none();
        st.filter = Some(Arc::new(BloomFilter::from_parts(spec, bits)));
        st.generation = update.generation;
        st.expected_seq = update.seq.wrapping_add(1);
        st.last_resync_request = None;
        st.staging = None;
        self.replicas_dirty = true;
        out.push(Output::Effect(Effect::ReplicaInstalled {
            peer: sender,
            first_contact,
            generation: update.generation,
            seq: update.seq,
            bits: spec.table_bits(),
        }));
    }

    /// Ask `peer` — the current datagram's sender — for its full bitmap,
    /// unless a DIRREQ to it is still inside [`RESYNC_BACKOFF`]. Retries
    /// ride the next delta or heartbeat that finds the replica still
    /// missing.
    fn request_resync(&mut self, now: VirtualTime, peer: u32, out: &mut Vec<Output>) {
        let st = self.replicas.entry(peer).or_default();
        if st
            .last_resync_request
            .is_some_and(|at| now.saturating_since(at) < RESYNC_BACKOFF)
        {
            return;
        }
        st.last_resync_request = Some(now);
        let last_generation = st.generation;
        let request_number = self.next_reqnum;
        self.next_reqnum = self.next_reqnum.wrapping_add(1);
        out.push(Output::Send(Send {
            to: Dest::Sender,
            msg: IcpMessage::DirReq {
                request_number,
                sender: self.id,
                generation: last_generation,
                // We decode DIRFULL_GR, so every resync we originate
                // advertises it.
                accepts_gr: true,
            },
            kind: SendKind::Resync {
                peer,
                last_generation,
            },
        }));
    }

    /// Forget `peer`'s replica state (the failure sweep declared it
    /// dead); the read-path cell must be refreshed only if a replica
    /// was actually installed.
    fn drop_replica(&mut self, peer: u32) {
        if self
            .replicas
            .remove(&peer)
            .is_some_and(|st| st.filter.is_some())
        {
            self.replicas_dirty = true;
        }
    }

    /// Restate the whole published bitmap to `peer` (answering a
    /// DIRREQ, or reinitializing a recovered peer). No-op outside SC
    /// mode. Golomb–Rice coded when the peer negotiated it, raw
    /// otherwise; a coded bitmap too big for one datagram goes out as
    /// several word-aligned segments under one `(generation, seq)`.
    ///
    /// Allocates the lane's *next* sequence number for the restatement:
    /// every datagram that moves a lane forward must burn a number, so
    /// that if the full is lost the following heartbeat's seq no longer
    /// matches the receiver's expectation, the gap fires, and the
    /// resync retries. (A full stamped in place and then lost would
    /// leave the receiver silently stale forever — the cursor has
    /// already snapped past the flips the bitmap was carrying.) The
    /// cursor snaps to the log head — the bitmap already reflects
    /// every logged flip.
    fn send_full_to(&mut self, peer: u32, out: &mut Vec<Output>) {
        let Self { sc, lanes, next_reqnum, id, .. } = self;
        let Some(sc) = sc.as_mut() else { return };
        let Some(lane) = lanes.get_mut(&peer) else { return };
        let request_number = *next_reqnum;
        *next_reqnum = next_reqnum.wrapping_add(1);
        lane.seq = lane.seq.wrapping_add(1);
        lane.cursor = sc.log_base + sc.log.len() as u64;
        lane.needs_full = false;
        for content in full_contents(sc, lane.accepts_gr) {
            out.push(Output::Send(Send {
                to: Dest::Peer(peer),
                msg: IcpMessage::DirUpdate {
                    request_number,
                    sender: *id,
                    update: DirUpdate {
                        function_num: sc.spec.k(),
                        function_bits: sc.spec.function_bits(),
                        bit_array_size: sc.spec.table_bits(),
                        generation: sc.generation,
                        seq: lane.seq,
                        content,
                    },
                },
                kind: SendKind::UpdateFull,
            }));
        }
    }

    /// Bring `peer`'s lane current. The per-lane Section V-D choice: a
    /// full restatement when the lane is marked stale or the logged
    /// backlog now costs more on the wire than a (GR-coded, when
    /// negotiated) bitmap; otherwise the pending flips, chunked per
    /// datagram; otherwise — only when `heartbeat` — the empty
    /// anti-entropy delta that keeps gap detection alive.
    fn service_lane(&mut self, peer: u32, heartbeat: bool, out: &mut Vec<Output>) {
        let Self { sc, lanes, next_reqnum, id, .. } = self;
        let Some(sc) = sc.as_mut() else { return };
        let Some(lane) = lanes.get_mut(&peer) else { return };
        let head = sc.log_base + sc.log.len() as u64;
        let pending = (head - lane.cursor) as usize;
        if pending == 0 && !lane.needs_full && !heartbeat {
            return;
        }
        let full_bytes = if lane.accepts_gr {
            gr_full_bytes_estimate(sc.baseline.len(), sc.baseline_ones)
        } else {
            wire_cost::bloom_full_bytes(sc.baseline.len())
        };
        let full = lane.needs_full
            || (pending > 0 && full_bytes < wire_cost::bloom_delta_bytes(pending));
        let request_number = *next_reqnum;
        *next_reqnum = next_reqnum.wrapping_add(1);
        let spec = sc.spec;
        let generation = sc.generation;
        let sender = *id;
        let mk = move |seq: u32, content: DirContent| IcpMessage::DirUpdate {
            request_number,
            sender,
            update: DirUpdate {
                function_num: spec.k(),
                function_bits: spec.function_bits(),
                bit_array_size: spec.table_bits(),
                generation,
                seq,
                content,
            },
        };
        if full {
            lane.seq = lane.seq.wrapping_add(1);
            lane.cursor = head;
            lane.needs_full = false;
            for content in full_contents(sc, lane.accepts_gr) {
                out.push(Output::Send(Send {
                    to: Dest::Peer(peer),
                    msg: mk(lane.seq, content),
                    kind: SendKind::UpdateFull,
                }));
            }
        } else if pending > 0 {
            let start = (lane.cursor - sc.log_base) as usize;
            let flips: Vec<Flip> = sc.log.iter().skip(start).copied().collect();
            lane.cursor = head;
            for chunk in flips.chunks(FLIPS_PER_DATAGRAM) {
                lane.seq = lane.seq.wrapping_add(1);
                out.push(Output::Send(Send {
                    to: Dest::Peer(peer),
                    msg: mk(lane.seq, DirContent::Flips(chunk.to_vec())),
                    kind: SendKind::UpdateDelta,
                }));
            }
        } else {
            lane.seq = lane.seq.wrapping_add(1);
            out.push(Output::Send(Send {
                to: Dest::Peer(peer),
                msg: mk(lane.seq, DirContent::Flips(Vec::new())),
                kind: SendKind::UpdateDelta,
            }));
        }
    }

    /// Drop log entries every live lane has consumed.
    fn trim_log(&mut self) {
        let Some(sc) = self.sc.as_mut() else { return };
        let head = sc.log_base + sc.log.len() as u64;
        let min = self
            .peers
            .iter()
            .filter(|p| !self.liveness.get(p).is_some_and(|l| l.failed))
            .filter_map(|p| self.lanes.get(p).map(|l| l.cursor))
            .min()
            .unwrap_or(head);
        while sc.log_base < min {
            sc.log.pop_front();
            sc.log_base += 1;
        }
    }

    /// Mark `peer` as heard-from now. Returns `true` if this is a
    /// recovery (the peer was marked failed).
    fn mark_heard(&mut self, now: VirtualTime, peer: u32) -> bool {
        let Some(l) = self.liveness.get_mut(&peer) else {
            return false;
        };
        l.last_heard = now;
        std::mem::replace(&mut l.failed, false)
    }

    /// One fanout tick: service the peers whose stagger slot came up —
    /// keep-alive ping plus (SC mode) the lane update — and run the
    /// failure sweep. With `fanout_slots` slots a driver ticks that
    /// many times per keep-alive period, so each peer keeps its
    /// once-per-period cadence while the per-tick burst shrinks from
    /// N datagrams to ~N/slots.
    fn on_tick(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        let slot = (self.tick_no % u64::from(self.fanout_slots)) as u32;
        self.tick_no = self.tick_no.wrapping_add(1);
        let slot_peers: Vec<u32> = self
            .peers
            .iter()
            .copied()
            .filter(|p| self.lanes.get(p).is_some_and(|l| l.slot == slot))
            .collect();
        for &p in &slot_peers {
            // Failed peers are pinged too: hearing us is how a healed
            // one-way partition recovers.
            out.push(Output::Send(Send {
                to: Dest::Peer(p),
                msg: IcpMessage::Secho {
                    request_number: 0,
                    url: String::new(),
                },
                kind: SendKind::Keepalive,
            }));
        }
        self.sweep_failed_peers(now, out);
        if self.sc.is_some() {
            for &p in &slot_peers {
                if self.liveness.get(&p).is_some_and(|l| l.failed) {
                    continue; // recovery will restate the bitmap instead
                }
                self.service_lane(p, true, out);
            }
            self.trim_log();
        }
    }

    /// Drop the summary replicas of peers we have not heard from
    /// lately.
    fn sweep_failed_peers(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        if self.keepalive_ms == 0 {
            return; // no keep-alives, no liveness signal
        }
        let timeout = Duration::from_millis(self.keepalive_ms) * FAILURE_KEEPALIVE_PERIODS;
        let mut newly_failed = Vec::new();
        for (&id, l) in self.liveness.iter_mut() {
            if !l.failed && now.saturating_since(l.last_heard) > timeout {
                l.failed = true;
                newly_failed.push(id);
            }
        }
        newly_failed.sort_unstable(); // HashMap order must not leak into output order
        let head = self
            .sc
            .as_ref()
            .map_or(0, |sc| sc.log_base + sc.log.len() as u64);
        for id in newly_failed {
            self.drop_replica(id);
            // A silent peer must not pin the flip log: snap its lane to
            // the head and mark it for a full restatement. Recovery
            // sends the bitmap anyway, so the skipped flips are safe.
            if let Some(lane) = self.lanes.get_mut(&id) {
                lane.cursor = head;
                lane.needs_full = true;
            }
            out.push(Output::Effect(Effect::PeerFailed { peer: id }));
        }
    }

    /// Post-request publish check (SC mode): when the policy says so,
    /// append the directory's diff against the baseline to the flip log.
    fn on_request_done(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        let Some(sc) = self.sc.as_mut() else { return };
        sc.requests_since_publish += 1;
        let elapsed_ms = now.saturating_since(sc.last_publish).as_millis() as u64;
        if !sc
            .policy
            .should_publish(sc.fresh, sc.docs, sc.requests_since_publish, elapsed_ms)
        {
            return;
        }
        self.publish_update(now, out);
    }

    /// The publish step: diff the directory's bit array against the
    /// published baseline and append the diff to the shared flip log.
    /// Nothing is sent yet unless a lane's backlog reached a full packet
    /// — the paper's "enough changes to fill an IP packet" rule; smaller
    /// publishes coalesce and ride each peer's next staggered fanout
    /// tick, so update cost no longer scales with `publishes × N` bursts.
    fn publish_update(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        let Some(sc) = self.sc.as_mut() else { return };
        let staleness = UpdatePolicy::staleness(sc.fresh, sc.docs);
        sc.fresh = 0;
        sc.requests_since_publish = 0;
        sc.last_publish = now;
        let bits = sc.filter.bits();
        let diff = sc.baseline.diff_indices(bits);
        let appended = diff.len();
        sc.log.extend(diff.iter().map(|&i| {
            if bits.get(i) {
                Flip::set(i as u32)
            } else {
                Flip::clear(i as u32)
            }
        }));
        sc.baseline.clone_from(bits);
        sc.baseline_ones = sc.baseline.count_ones();
        let head = sc.log_base + sc.log.len() as u64;
        // Flush any live lane whose backlog now fills a packet; each
        // flushed lane makes its own delta-vs-full choice. With
        // keep-alives disabled nothing ever ticks the fan-out, so every
        // pending lane flushes here instead of coalescing forever.
        let tickless = self.keepalive_ms == 0;
        let flush: Vec<u32> = self
            .peers
            .iter()
            .copied()
            .filter(|p| !self.liveness.get(p).is_some_and(|l| l.failed))
            .filter(|p| {
                self.lanes.get(p).is_some_and(|l| {
                    let pending = (head - l.cursor) as usize;
                    pending >= FLIPS_PER_DATAGRAM || (tickless && (pending > 0 || l.needs_full))
                })
            })
            .collect();
        let before = out.len();
        for p in flush {
            self.service_lane(p, false, out);
        }
        let messages = out[before..]
            .iter()
            .filter(|o| matches!(o, Output::Send(_)))
            .count();
        out.push(Output::Effect(Effect::Published {
            flips: appended,
            staleness,
            messages,
        }));
        self.trim_log();
    }
}

/// The DIRUPDATE payload(s) restating the whole published bitmap:
/// word-aligned Golomb–Rice segments when the receiver negotiated
/// support, one raw bitmap otherwise. Segmentation keeps every coded
/// datagram inside one UDP frame (a 200k-bit segment codes to at most
/// ~50 KB even at worst-case fill; see [`GR_SEGMENT_BITS`]).
fn full_contents(sc: &ScControl, accepts_gr: bool) -> Vec<DirContent> {
    if !accepts_gr {
        return vec![DirContent::Bitmap(sc.baseline.as_words().to_vec())];
    }
    let len = sc.baseline.len();
    let mut contents = Vec::new();
    let mut start = 0usize;
    while start < len {
        let seg = (len - start).min(GR_SEGMENT_BITS);
        let words = &sc.baseline.as_words()[start / 64..(start + seg).div_ceil(64)];
        let coded = sc_bloom::compress(&BitVec::from_words(seg, words.to_vec()));
        contents.push(DirContent::CompressedBitmap {
            first_bit: start as u32,
            seg_bits: seg as u32,
            ones: coded.ones,
            rice: coded.rice,
            data: coded.data,
        });
        start += seg;
    }
    if contents.is_empty() {
        // Degenerate zero-width spec: fall back to the raw form.
        contents.push(DirContent::Bitmap(Vec::new()));
    }
    contents
}

/// Cheap upper estimate of a Golomb–Rice-coded full restatement's wire
/// bytes, for the per-lane delta-vs-full choice: `ones · (1 + rice)`
/// remainder/terminator bits plus `len >> rice` quotient bits, plus
/// per-segment headers. Avoids actually coding the bitmap on every
/// tick; the estimate errs high, which only delays the switch to full
/// by a few flips.
fn gr_full_bytes_estimate(len: usize, ones: usize) -> usize {
    let rice = usize::from(sc_bloom::rice_parameter(len, ones));
    let coded_bits = ones.saturating_mul(1 + rice) + (len >> rice.min(63));
    let segments = len.div_ceil(GR_SEGMENT_BITS).max(1);
    segments * (HEADER_LEN + DIRUPDATE_HEADER_LEN + DIRFULL_GR_SEGMENT_LEN)
        + coded_bits.div_ceil(8)
}

impl DirectoryInspect for Router {
    fn replicated_peers(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| self.replica_installed(p))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        self.replica_filter(peer).map(|f| f.bits().clone())
    }

    fn published_bits(&self) -> Option<BitVec> {
        self.sc.as_ref().map(|sc| sc.baseline.clone())
    }

    fn cached_docs(&self) -> u64 {
        self.sc.as_ref().map_or(0, |sc| sc.docs)
    }
}

/// The document-cache stripe owning `key`: the low 64 bits of the key's
/// (already computed) MD5 digest, reduced mod `stripes`. Takes the
/// request's [`UrlKey`] so striping never re-digests the URL (the
/// hash-once discipline `request_path_digests_the_url_exactly_once`
/// pins).
///
/// [`sc_bloom::HashSpec`] consumes digest bits from the front of the
/// digest, so taking the *tail* keeps striping and Bloom indices
/// decorrelated for every spec the paper's experiments use.
pub fn stripe_of(key: &UrlKey, stripes: usize) -> usize {
    if stripes <= 1 {
        return 0;
    }
    let digest = key.digest();
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&digest[8..]);
    (u64::from_le_bytes(tail) % stripes as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use summary_cache_core::SummaryKind;

    struct NoDocs;
    impl DirectoryView for NoDocs {
        fn contains(&self, _url: &str) -> bool {
            false
        }
    }

    fn sc_router(id: u32, peers: Vec<u32>, generation: u32) -> Router {
        sc_router_slotted(id, peers, generation, 1, 64)
    }

    fn sc_router_slotted(
        id: u32,
        peers: Vec<u32>,
        generation: u32,
        slots: usize,
        expected_docs: u64,
    ) -> Router {
        let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
        let mut summary = ProxySummary::with_expected_docs(kind, expected_docs);
        summary.set_generation(generation);
        Router::new(
            id,
            peers,
            50,
            1,
            slots,
            Some((summary, UpdatePolicy::Threshold(0.0))),
            VirtualTime::ZERO,
        )
    }

    fn at(ms: u64) -> VirtualTime {
        VirtualTime::from_micros(ms * 1000)
    }

    fn key(url: &str) -> UrlKey {
        UrlKey::new(url.as_bytes())
    }

    #[test]
    fn publish_merges_slices_into_the_ledger() {
        let mut r = sc_router(1, vec![2], 3);
        let evicted: Vec<UrlKey> = Vec::new();
        for i in 0..16u32 {
            let url = key(&format!("http://s/{i}"));
            r.handle(at(1), Event::Stored { url: &url, evicted: &evicted }, &NoDocs);
        }
        assert_eq!(r.cached_docs(), 16);
        let outs = r.handle(at(2), Event::RequestDone, &NoDocs);
        let published = outs
            .iter()
            .any(|o| matches!(o, Output::Effect(Effect::Published { .. })));
        assert!(published, "threshold 0 publishes on the first request: {outs:?}");
        let bits = r.published_bits().expect("SC mode has a ledger");
        assert!(bits.count_ones() > 0, "the baseline holds the inserts");
    }

    /// The published bitmap is the paper's one counting filter over the
    /// cache directory: any mix of stores (with evictions) and purges,
    /// published under threshold 0, leaves `published_bits` equal to a
    /// reference filter fed the same keys.
    #[test]
    fn publish_matches_a_reference_counting_filter() {
        sc_util::prop::check("publish_matches_reference", 128, |rng| {
            let mut r = sc_router(1, vec![2], 7);
            let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
            let SummarySnapshot::Bloom { spec, .. } =
                ProxySummary::with_expected_docs(kind, 64).snapshot_published()
            else {
                panic!("a Bloom summary snapshots as Bloom");
            };
            let mut reference = CountingBloomFilter::new(FilterConfig {
                bits: spec.table_bits(),
                hashes: spec.k(),
                function_bits: spec.function_bits(),
            });
            let mut sink = Vec::new();
            let mut held: Vec<UrlKey> = Vec::new();
            let ops = rng.gen_range(1..40u32);
            for i in 0..ops {
                // The last op always stores, so the final request has a
                // fresh document to publish.
                if i + 1 == ops || held.is_empty() || rng.gen_bool(0.7) {
                    let url = key(&format!("http://s{}/{i}", rng.gen_range(0..4u32)));
                    let mut victims = Vec::new();
                    for _ in 0..rng.gen_range(0..3u32) {
                        if !held.is_empty() {
                            victims.push(held.swap_remove(rng.gen_range(0..held.len())));
                        }
                    }
                    r.handle(at(1), Event::Stored { url: &url, evicted: &victims }, &NoDocs);
                    reference.insert_key_into(&url, &mut sink);
                    for v in &victims {
                        reference.remove_key_into(v, &mut sink);
                    }
                    held.push(url);
                } else {
                    let url = held.swap_remove(rng.gen_range(0..held.len()));
                    r.handle(at(1), Event::Purged { url: &url }, &NoDocs);
                    reference.remove_key_into(&url, &mut sink);
                }
                if rng.gen_bool(0.25) {
                    r.handle(at(1), Event::RequestDone, &NoDocs);
                }
            }
            r.handle(at(2), Event::RequestDone, &NoDocs);
            assert_eq!(r.published_bits().as_ref(), Some(reference.bits()));
            assert_eq!(r.cached_docs(), held.len() as u64);
        });
    }

    #[test]
    fn replica_snapshot_follows_peer_order() {
        let mut r = sc_router(1, vec![2, 3, 4, 5], 9);
        // Install a replica for each peer via full bitmaps.
        for p in [2u32, 3, 4, 5] {
            let bitmap = IcpMessage::DirUpdate {
                request_number: 1,
                sender: p,
                update: DirUpdate {
                    function_num: 4,
                    function_bits: 32,
                    bit_array_size: 512,
                    generation: 100 + p,
                    seq: 0,
                    content: DirContent::Bitmap(vec![u64::from(p); 8]),
                },
            }
            .encode(p)
            .expect("encodes");
            r.handle(at(1), Event::Datagram { from: Some(p), data: &bitmap }, &NoDocs);
        }
        assert_eq!(r.replicated_peers(), vec![2, 3, 4, 5]);
        for p in [2u32, 3, 4, 5] {
            let bits = r.replica_bits(p).expect("installed");
            assert_eq!(bits.as_words()[0], u64::from(p), "replica {p} intact");
        }
        // The lock-free snapshot lists the replicas in peer order.
        let snap = r.replica_cell().load();
        assert_eq!(
            snap.peers().iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn stripe_of_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 4, 8] {
            for i in 0..64u32 {
                let key = key(&format!("http://s/{i}"));
                let a = stripe_of(&key, n);
                assert_eq!(a, stripe_of(&key, n), "striping must be deterministic");
                assert!(a < n);
            }
        }
        let key = key("http://s/one-stripe");
        assert_eq!(stripe_of(&key, 1), 0);
        assert_eq!(stripe_of(&key, 0), 0, "degenerate count clamps to one stripe");
    }

    #[test]
    fn stripe_of_spreads_keys() {
        let n = 4usize;
        let mut seen = vec![0usize; n];
        for i in 0..256u32 {
            seen[stripe_of(&key(&format!("http://server-{}.x/{i}", i % 7)), n)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "every stripe should own some keys: {seen:?}"
        );
    }

    /// A no-SC router peering with every publisher the replica tests use.
    fn replica_router() -> Router {
        Router::new(0, vec![1, 2, 3, 9], 50, 1, 1, None, VirtualTime::ZERO)
    }

    /// Apply `update` from `from` as a received DIRUPDATE would, and
    /// return the decisions that follow the `UpdateReceived` accounting.
    fn apply(r: &mut Router, now: VirtualTime, from: u32, update: DirUpdate) -> Vec<Output> {
        let mut out = Vec::new();
        r.apply_update(now, from, update, &mut out);
        assert!(
            matches!(out.first(), Some(Output::Effect(Effect::UpdateReceived))),
            "every configured-peer update is accounted: {out:?}"
        );
        out.remove(0);
        out
    }

    #[test]
    fn delta_without_bitmap_resyncs_with_backoff() {
        let mut r = replica_router();
        let delta = |seq| DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 7,
            seq,
            content: DirContent::Flips(Vec::new()),
        };
        let out = apply(&mut r, at(10), 1, delta(3));
        assert!(
            matches!(
                out.as_slice(),
                [Output::Send(Send { kind: SendKind::Resync { peer: 1, last_generation: 0 }, .. })]
            ),
            "first gap decides to resync: {out:?}"
        );
        let out = apply(&mut r, at(20), 1, delta(3));
        assert!(out.is_empty(), "within backoff: no second decision: {out:?}");
        let out = apply(&mut r, at(300), 1, delta(3));
        assert_eq!(out.len(), 1, "after backoff the retry rides the next delta");
        assert!(!r.replica_installed(1), "no install from a delta alone");
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
        let bits = sample_bits();
        let mut r = replica_router();
        let out = apply(&mut r, VirtualTime::ZERO, 2, gr_update(5, 9, gr_segment(&bits, 0, 512)));
        assert!(r.replica_installed(2), "single GR segment installs");
        assert_eq!(r.replica_bits(2).unwrap(), bits, "bit-for-bit");
        assert!(
            out.iter().any(|o| matches!(
                o,
                Output::Effect(Effect::ReplicaInstalled { peer: 2, seq: 9, .. })
            )),
            "install effect: {out:?}"
        );
        // Sequencing matches the raw-bitmap discipline: the next delta
        // at seq 10 applies cleanly.
        let flip = DirContent::Flips(vec![Flip::set(7)]);
        apply(&mut r, VirtualTime::ZERO, 2, gr_update(5, 10, flip));
        assert!(r.replica_bits(2).unwrap().get(7), "delta applied after GR install");
    }

    #[test]
    fn split_segments_install_only_when_complete_and_in_order() {
        let bits = sample_bits();
        let seg = |r: &mut Router, seq: u32, content: DirContent| {
            apply(r, VirtualTime::ZERO, 3, gr_update(7, seq, content))
        };

        // In-order halves assemble and install once complete.
        let mut r = replica_router();
        seg(&mut r, 4, gr_segment(&bits, 0, 256));
        assert!(!r.replica_installed(3), "half a bitmap never installs");
        seg(&mut r, 4, gr_segment(&bits, 256, 256));
        assert!(r.replica_installed(3));
        assert_eq!(r.replica_bits(3).unwrap(), bits);

        // A lost first segment leaves the tail orphaned: no install.
        let mut r = replica_router();
        seg(&mut r, 4, gr_segment(&bits, 256, 256));
        assert!(!r.replica_installed(3), "tail without head is discarded");

        // A fresh attempt (first_bit 0) supersedes stale staging.
        let mut r = replica_router();
        seg(&mut r, 4, gr_segment(&bits, 0, 256));
        seg(&mut r, 5, gr_segment(&bits, 0, 256)); // retry at a newer seq
        seg(&mut r, 4, gr_segment(&bits, 256, 256)); // stale tail: dropped
        assert!(!r.replica_installed(3), "stale tail must not complete the retry");
        seg(&mut r, 5, gr_segment(&bits, 256, 256));
        assert!(r.replica_installed(3), "matching tail completes the retry");
    }

    /// A continuation that claims a different spec than the staged
    /// assembly (here a larger `bit_array_size` at the same
    /// `(generation, seq)`) would write past the staged bitmap. It is
    /// discarded like any other broken sequence, and the staged
    /// assembly survives it.
    #[test]
    fn gr_continuation_with_a_different_spec_is_discarded() {
        let mut r = Router::new(1, vec![2], 1000, 1, 1, None, VirtualTime::ZERO);
        let segment = |bit_array_size: u32, bits: &BitVec, start: usize, len: usize| {
            let update = DirUpdate {
                bit_array_size,
                ..gr_update(7, 1, gr_segment(bits, start, len))
            };
            IcpMessage::DirUpdate { request_number: 1, sender: 2, update }
                .encode(2)
                .expect("encodes")
        };
        let small = BitVec::new(128);
        let mut large = BitVec::new(1024);
        large.set(564, true);
        for data in [segment(128, &small, 0, 64), segment(1024, &large, 64, 512)] {
            r.handle(at(1), Event::Datagram { from: Some(2), data: &data }, &NoDocs);
        }
        assert!(!r.replica_installed(2), "mismatched segments never install");
        let tail = segment(128, &small, 64, 64);
        r.handle(at(1), Event::Datagram { from: Some(2), data: &tail }, &NoDocs);
        assert_eq!(r.replica_bits(2).map(|b| b.len()), Some(128), "the staged spec completes");
    }

    /// Never-panics sweep over the update path: seeded sequences of
    /// DIRUPDATE datagrams — raw bitmaps, deltas and DIRFULL_GR segments
    /// at random sizes, offsets, generations and seqs, plus truncated and
    /// byte-mutated copies — from configured and unknown senders go
    /// through `Router::handle`. Nothing may panic, and every installed
    /// replica and staged assembly stays sized by its own spec.
    #[test]
    fn prop_update_path_never_panics() {
        use sc_util::prop::{check, vec_of};
        check("router_update_path_never_panics", 512, |rng| {
            let mut r = Router::new(1, vec![2, 3], 1000, 1, 1, None, VirtualTime::ZERO);
            // Sizes and offsets come mostly from small sets, and half the
            // GR segments continue the previous one's (generation, seq)
            // at its end bit — under whatever size this one claims.
            let pick = |rng: &mut sc_util::Rng, common: &[u32], any: std::ops::RangeInclusive<u32>| {
                if rng.gen_bool(0.8) {
                    common[rng.gen_range(0..common.len())]
                } else {
                    rng.gen_range(any)
                }
            };
            let mut last_gr: Option<(u32, u32, u32, u32)> = None;
            for step in 0..rng.gen_range(1..24u64) {
                let mut stamp = (rng.gen_range(1..3u32), rng.gen_range(0..3u32));
                let sender = pick(rng, &[2, 3], 9..=9);
                let mut bits = pick(rng, &[64, 128, 256, 512, 1024], 1..=2048);
                let content = match rng.gen_range(0..4u32) {
                    0 => {
                        let words = (bits as usize).div_ceil(64) + rng.gen_range(0..2usize);
                        DirContent::Bitmap(vec_of(rng, words..words + 1, |r| r.next_u64()))
                    }
                    1 => DirContent::Flips(vec_of(rng, 0..16, |r| {
                        let i = r.gen_range(0..bits * 2);
                        if r.gen_bool(0.5) { Flip::set(i) } else { Flip::clear(i) }
                    })),
                    _ => {
                        let mut start = pick(rng, &[0, 64, 128, 256, 512], 0..=bits);
                        if let Some((generation, seq, size, next_bit)) =
                            last_gr.filter(|_| rng.gen_bool(0.6))
                        {
                            (stamp, start) = ((generation, seq), next_bit);
                            if rng.gen_bool(0.5) {
                                bits = size;
                            }
                        }
                        let len = pick(rng, &[64, 128, 256, 512], 1..=bits);
                        let mut src = BitVec::new((start + len) as usize);
                        for _ in 0..rng.gen_range(0..16u32) {
                            src.set(rng.gen_range(start..start + len) as usize, true);
                        }
                        last_gr = Some((stamp.0, stamp.1, bits, start + len));
                        gr_segment(&src, start as usize, len as usize)
                    }
                };
                let update = DirUpdate {
                    function_num: pick(rng, &[4], 1..=6) as u16,
                    function_bits: pick(rng, &[32], 1..=32) as u16,
                    bit_array_size: bits,
                    generation: stamp.0,
                    seq: stamp.1,
                    content,
                };
                let msg = IcpMessage::DirUpdate { request_number: step as u32, sender, update };
                let Ok(mut data) = msg.encode(sender) else { continue };
                match rng.gen_range(0..6u32) {
                    0 => data.truncate(rng.gen_range(0..data.len())),
                    1 => {
                        let at = rng.gen_range(0..data.len());
                        data[at] = rng.gen_range(0u8..=255);
                    }
                    _ => {}
                }
                r.handle(at(step), Event::Datagram { from: Some(sender), data: &data }, &NoDocs);
                for (peer, st) in &r.replicas {
                    if let Some(f) = &st.filter {
                        assert_eq!(f.bits().len(), f.spec().table_bits() as usize, "replica {peer}");
                    }
                    if let Some(g) = &st.staging {
                        assert_eq!(g.bits.len(), g.spec.table_bits() as usize, "staging {peer}");
                        assert!(g.next_bit < g.spec.table_bits(), "staging {peer} is incomplete");
                    }
                }
            }
        });
    }

    #[test]
    fn drop_replica_reports_changes_only_when_installed() {
        let mut r = replica_router();
        r.drop_replica(9);
        assert!(!r.replicas_dirty, "no replica, nothing changed");
        let bitmap = DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 3,
            seq: 0,
            content: DirContent::Bitmap(vec![0u64; 8]),
        };
        apply(&mut r, VirtualTime::ZERO, 9, bitmap);
        assert!(r.replica_installed(9));
        r.flush_replicas();
        r.drop_replica(9);
        assert!(r.replicas_dirty, "dropping an installed replica must re-publish");
    }

    /// The double-digest regression pin: a proxied request costs
    /// exactly ONE MD5 digest of its URL. Everything downstream of
    /// `UrlKey::new` — stripe selection, the ledger insert/remove, the
    /// publish, and the candidate probe — reuses the key and never
    /// re-hashes. `blocks_hashed` is a per-thread counter, so any
    /// stray digest on this path shows up here.
    #[test]
    fn request_path_digests_the_url_exactly_once() {
        let mut r = sc_router(1, vec![2], 7);
        let cell = r.replica_cell();
        let url = "http://server-3.trace.invalid/doc/42";

        let before = sc_md5::blocks_hashed();
        let key = UrlKey::new(url.as_bytes());
        let one_digest = sc_md5::blocks_hashed() - before;
        assert!(one_digest >= 1, "UrlKey::new digests");

        let before = sc_md5::blocks_hashed();
        let _stripe = stripe_of(&key, 4);
        cell.load().candidates_key_into(&key, &mut Vec::new());
        r.handle(at(1), Event::Stored { url: &key, evicted: &[] }, &NoDocs);
        r.handle(at(1), Event::RequestDone, &NoDocs);
        r.handle(at(2), Event::Tick, &NoDocs);
        r.handle(at(3), Event::Purged { url: &key }, &NoDocs);
        r.handle(at(3), Event::RequestDone, &NoDocs);
        assert_eq!(
            sc_md5::blocks_hashed() - before,
            0,
            "a request's key must thread through the whole path un-re-hashed"
        );
    }

    /// Collect `(peer, kind)` for every send in a batch.
    fn send_targets(outs: &[Output]) -> Vec<(u32, SendKind)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::Send(Send { to: Dest::Peer(p), kind, .. }) => Some((*p, *kind)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fanout_slots_stagger_peers_across_ticks() {
        let peers = vec![2u32, 3, 4, 5, 6, 7, 8, 9];
        let mut r = sc_router_slotted(1, peers.clone(), 7, 4, 64);
        let mut per_tick: Vec<Vec<u32>> = Vec::new();
        for t in 0..4u64 {
            let outs = r.handle(at(10 + t), Event::Tick, &NoDocs);
            let mut pinged: Vec<u32> = send_targets(&outs)
                .into_iter()
                .filter(|(_, k)| *k == SendKind::Keepalive)
                .map(|(p, _)| p)
                .collect();
            pinged.sort_unstable();
            per_tick.push(pinged);
        }
        let all: Vec<u32> = {
            let mut v: Vec<u32> = per_tick.iter().flatten().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(all, peers, "one service per peer per keep-alive period");
        assert!(
            per_tick.iter().all(|t| t.len() < peers.len()),
            "no tick bursts to the whole peer set: {per_tick:?}"
        );
        // The cycle repeats: tick 4 services the same slot as tick 0.
        let outs = r.handle(at(20), Event::Tick, &NoDocs);
        let mut again: Vec<u32> = send_targets(&outs)
            .into_iter()
            .filter(|(_, k)| *k == SendKind::Keepalive)
            .map(|(p, _)| p)
            .collect();
        again.sort_unstable();
        assert_eq!(again, per_tick[0]);
    }

    #[test]
    fn dirreq_negotiates_compressed_restatements() {
        let mut r = sc_router(1, vec![2, 3], 7);
        let evicted: Vec<UrlKey> = Vec::new();
        for i in 0..16u32 {
            r.handle(
                at(1),
                Event::Stored { url: &key(&format!("http://s/{i}")), evicted: &evicted },
                &NoDocs,
            );
        }
        r.handle(at(1), Event::RequestDone, &NoDocs);
        let published = r.published_bits().expect("ledger");
        let ask = |r: &mut Router, from: u32, accepts_gr: bool| {
            let req = IcpMessage::DirReq {
                request_number: 5,
                sender: from,
                generation: 0,
                accepts_gr,
            }
            .encode(from)
            .expect("encodes");
            r.handle(at(2), Event::Datagram { from: Some(from), data: &req }, &NoDocs)
        };
        // A GR-capable peer gets the coded form, bit-for-bit equal to
        // the published bitmap after decompression.
        let outs = ask(&mut r, 2, true);
        let contents: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Output::Send(Send { msg: IcpMessage::DirUpdate { update, .. }, .. }) => {
                    Some(&update.content)
                }
                _ => None,
            })
            .collect();
        assert_eq!(contents.len(), 1, "small filter fits one segment: {outs:?}");
        let DirContent::CompressedBitmap { seg_bits, ones, rice, data, first_bit } = contents[0]
        else {
            panic!("GR-capable peer must get DIRFULL_GR: {:?}", contents[0]);
        };
        assert_eq!(*first_bit, 0);
        let decoded = sc_bloom::decompress(&sc_bloom::CompressedBits {
            len: *seg_bits,
            ones: *ones,
            rice: *rice,
            data: data.clone(),
        })
        .expect("well-formed code stream");
        assert_eq!(decoded, published, "coded restatement matches the ledger");
        // A legacy peer (options bit clear) falls back to the raw bitmap.
        let outs = ask(&mut r, 3, false);
        assert!(
            outs.iter().any(|o| matches!(
                o,
                Output::Send(Send { msg: IcpMessage::DirUpdate { update, .. }, .. })
                    if matches!(update.content, DirContent::Bitmap(_))
            )),
            "legacy peer must get raw DIRFULL: {outs:?}"
        );
    }

    #[test]
    fn small_publishes_coalesce_until_the_fanout_tick() {
        let mut r = sc_router(1, vec![2, 3], 7);
        let evicted: Vec<UrlKey> = Vec::new();
        // Two publishes, each a handful of flips: nothing goes out at
        // publish time.
        for i in 0..2u32 {
            r.handle(
                at(1),
                Event::Stored { url: &key(&format!("http://s/{i}")), evicted: &evicted },
                &NoDocs,
            );
            let outs = r.handle(at(1), Event::RequestDone, &NoDocs);
            assert!(
                send_targets(&outs).is_empty(),
                "small publishes must coalesce, not burst: {outs:?}"
            );
            assert!(
                outs.iter().any(|o| matches!(
                    o,
                    Output::Effect(Effect::Published { messages: 0, flips, .. }) if *flips > 0
                )),
                "publish still appends to the log: {outs:?}"
            );
        }
        // The tick services every lane with ONE delta each carrying the
        // coalesced flips of both publishes.
        let outs = r.handle(at(2), Event::Tick, &NoDocs);
        for peer in [2u32, 3] {
            let deltas: Vec<_> = outs
                .iter()
                .filter_map(|o| match o {
                    Output::Send(Send {
                        to: Dest::Peer(p),
                        msg: IcpMessage::DirUpdate { update, .. },
                        kind: SendKind::UpdateDelta,
                    }) if *p == peer => Some(update),
                    _ => None,
                })
                .collect();
            assert_eq!(deltas.len(), 1, "one coalesced delta for peer {peer}: {outs:?}");
            let DirContent::Flips(flips) = &deltas[0].content else {
                panic!("delta content expected");
            };
            assert!(!flips.is_empty(), "the delta carries the coalesced flips");
        }
        // Next tick: nothing pending, the empty heartbeat keeps gap
        // detection alive and the seq advances by exactly one.
        let outs = r.handle(at(3), Event::Tick, &NoDocs);
        let heartbeats = outs
            .iter()
            .filter(|o| matches!(
                o,
                Output::Send(Send { msg: IcpMessage::DirUpdate { update, .. }, .. })
                    if matches!(&update.content, DirContent::Flips(f) if f.is_empty())
            ))
            .count();
        assert_eq!(heartbeats, 2, "one empty heartbeat per peer: {outs:?}");
    }

    #[test]
    fn packet_sized_backlog_flushes_at_publish_with_cost_choice() {
        // A big filter (2048 bits) and one huge publish: the backlog
        // tops FLIPS_PER_DATAGRAM, so the publish flushes immediately,
        // and the per-lane cost choice picks the full bitmap (raw: no
        // negotiation has happened) over an oversized delta.
        let mut r = sc_router_slotted(1, vec![2], 7, 1, 256);
        let evicted: Vec<UrlKey> = Vec::new();
        for i in 0..256u32 {
            r.handle(
                at(1),
                Event::Stored { url: &key(&format!("http://s/{i}")), evicted: &evicted },
                &NoDocs,
            );
        }
        let outs = r.handle(at(1), Event::RequestDone, &NoDocs);
        let sends = send_targets(&outs);
        assert_eq!(
            sends,
            vec![(2, SendKind::UpdateFull)],
            "a packet-sized backlog flushes as one full restatement: {outs:?}"
        );
        assert!(
            outs.iter().any(|o| matches!(
                o,
                Output::Effect(Effect::Published { messages: 1, .. })
            )),
            "the effect reports the flush: {outs:?}"
        );
    }
}
