//! The router: one proxy's protocol state and every decision made on it.
//!
//! The daemon's protocol thread owns one router as a plain value; the
//! simnet drives the same type from a virtual clock. It owns:
//!
//! * **the local directory**: this proxy's own Bloom [`ProxySummary`]
//!   (the paper's one counting Bloom filter over the cache, Section
//!   V-C, plus the published bitmap and generation), fed pre-hashed
//!   keys by [`Event::Stored`] / [`Event::Purged`];
//! * **the flip log**: on [`Event::RequestDone`] the summary decides
//!   whether its update policy publishes
//!   ([`ProxySummary::request_done`]); a publish's flips are appended to
//!   the log the per-peer lanes consume;
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
//!   design (DESIGN.md §13). A lane far enough behind that the delta
//!   backlog outweighs a bitmap gets a full restatement instead,
//!   Golomb–Rice coded when the peer negotiated `DIRFULL_GR` support
//!   via the DIRREQ options word;
//! * **the replica snapshot cell**: whenever the installed replica set
//!   or the live-peer set changes, the router publishes both as one
//!   immutable [`ReplicaSnapshot`] for the read path.
//!
//! The router processes one event at a time, so a given event sequence
//! always yields the same output stream — what lets the simnet replay a
//! seed's journal bit for bit.
//!
//! This module is sans-I/O — no sockets, no real clocks, no sleeps — and
//! clippy enforces it: `crates/clippy.toml` disallows them.

use crate::machine::{
    Dest, DirectoryView, Effect, Event, Output, Send, SendKind, VirtualTime,
    FAILURE_KEEPALIVE_PERIODS, FLIPS_PER_DATAGRAM, GR_SEGMENT_BITS, MAX_WIRE_TABLE_BITS,
    RESYNC_BACKOFF,
};
use crate::replica::{ReplicaCell, ReplicaSnapshot};
use sc_bloom::{BitVec, BloomFilter, Flip, HashSpec, UrlKey};
use sc_util::mix64;
use sc_wire::icp::{
    DirContent, DirUpdate, IcpMessage, DIRFULL_GR_SEGMENT_LEN, DIRUPDATE_HEADER_LEN, HEADER_LEN,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use summary_cache_core::{wire_cost, ProxySummary, UpdatePolicy};

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

/// One configured peer: its failure-detection state (Section VI-B: the
/// prototype "leverages Squid's built-in support to detect failure and
/// recovery of neighbor proxies, and reinitializes a failed neighbor's
/// bit array when it recovers"), our replica of its summary, and our
/// update lane to it.
struct Peer {
    id: u32,
    last_heard: VirtualTime,
    failed: bool,
    replica: ReplicaState,
    lane: PeerLane,
}

/// Summary-cache mode's local half: the proxy's own Bloom
/// [`ProxySummary`] (directory, published bitmap, generation and the
/// publish counters), its update policy, and the shared flip log the
/// per-peer lanes consume. Sequence numbers are *per lane*: each peer
/// sees its own gap-free seq stream, which is what lets fanout stagger
/// and per-peer full restatements coexist (a unicast send can never
/// create a seq some other peer reads as a gap).
struct ScControl {
    summary: ProxySummary,
    policy: UpdatePolicy,
    /// The shared flip log: every publish appends its flips here; lanes
    /// consume it at their own pace and it is trimmed to the slowest
    /// live lane's cursor. The published bitmap is the state at its
    /// head.
    log: VecDeque<Flip>,
    /// Absolute index of `log.front()` (cursors are absolute, so
    /// trimming never renumbers).
    log_base: u64,
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
    /// One record per configured peer, in configured order: the order
    /// probes, snapshots, the failure sweep and the fanout walk. Every
    /// peer has a lane; only SC mode uses the log fields, but the
    /// stagger slot drives keep-alive fanout in every mode.
    peers: Vec<Peer>,
    keepalive_ms: u64,
    sc: Option<ScControl>,
    /// How many stagger slots the fanout is spread over; a driver must
    /// tick `fanout_slots` times per keep-alive period so every peer is
    /// still serviced once per period.
    fanout_slots: u32,
    /// Ticks seen so far; `tick_no % fanout_slots` is the slot a tick
    /// services.
    tick_no: u64,
    /// The read-path cell: after replica or liveness changes the router
    /// publishes an immutable snapshot of the installed replicas and
    /// the live peers here, so request threads choose whom to query
    /// without reaching the router's owner.
    cell: Arc<ReplicaCell>,
    /// Set when the replica or live-peer set changed since the last
    /// publication to the cell. Deferring the publication to
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
    /// summary-cache mode; the router keeps that summary as its
    /// directory, and every lane's seq stream starts after its
    /// [`ProxySummary::seq`]. Non-Bloom summaries are not routable
    /// (nothing constructs them here) and degrade to no-SC mode. `now`
    /// initializes every peer's last-heard time.
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
        let sc = sc
            .filter(|(summary, _)| summary.bloom().is_some())
            .map(|(summary, policy)| ScControl {
                summary,
                policy,
                log: VecDeque::new(),
                log_base: 0,
            });
        let lane_seq = sc.as_ref().map_or(0, |sc| sc.summary.seq());
        let peers = peers
            .into_iter()
            .map(|p| Peer {
                id: p,
                last_heard: now,
                failed: false,
                replica: ReplicaState::default(),
                lane: PeerLane {
                    seq: lane_seq,
                    cursor: 0,
                    needs_full: false,
                    accepts_gr: false,
                    slot: (mix64((u64::from(id) << 32) | u64::from(p)) % u64::from(fanout_slots))
                        as u32,
                },
            })
            .collect();
        let router = Router {
            id,
            peers,
            keepalive_ms,
            sc,
            fanout_slots,
            tick_no: 0,
            cell: ReplicaCell::new(),
            replicas_dirty: false,
            next_reqnum: 1,
        };
        // Every peer starts live: publish that before the first event.
        router.publish_replicas();
        router
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

    /// Gather the installed replicas (in configured peer order, the
    /// order [`ReplicaSnapshot::candidates_key_into`] probes them in)
    /// and the live peers into one immutable snapshot and publish it to
    /// the cell.
    fn publish_replicas(&self) {
        let peers = self
            .peers
            .iter()
            .filter_map(|p| p.replica.filter.as_ref().map(|f| (p.id, f.clone())))
            .collect();
        let snapshot = ReplicaSnapshot::new(peers, self.live_peers());
        self.cell.swap(Arc::new(snapshot));
    }

    /// Position of configured peer `peer` in [`Router::peers`], for
    /// inputs that name a peer by id.
    fn position(&self, peer: u32) -> Option<usize> {
        self.peers.iter().position(|p| p.id == peer)
    }

    /// The installed replica of `peer`, if synced.
    fn replica_filter(&self, peer: u32) -> Option<&Arc<BloomFilter>> {
        let at = self.position(peer)?;
        self.peers[at].replica.filter.as_ref()
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
            // The Bloom summary reads only the URL key; the router has
            // no server key, so the URL key stands in for both.
            Event::Stored { url, evicted } => {
                if let Some(sc) = self.sc.as_mut() {
                    sc.summary.insert_key(url, url);
                    for victim in evicted {
                        sc.summary.remove_key(victim, victim);
                    }
                }
            }
            Event::Purged { url } => {
                if let Some(sc) = self.sc.as_mut() {
                    sc.summary.remove_key(url, url);
                }
            }
            Event::RequestDone => self.on_request_done(now, out),
        }
    }

    // -- read-only views the driver needs ---------------------------------

    /// Peers not currently marked failed (what ICP mode queries).
    pub fn live_peers(&self) -> Vec<u32> {
        self.peers.iter().filter(|p| !p.failed).map(|p| p.id).collect()
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
        let from_at = from.and_then(|id| self.position(id));
        if let Some(at) = from_at {
            let peer = &mut self.peers[at];
            peer.last_heard = now;
            if std::mem::replace(&mut peer.failed, false) {
                self.replicas_dirty = true; // the live-peer set changed
                // The peer just came back (Section VI-B): reinitialize
                // both directions through the resync machinery —
                // restate our bitmap so its replica of us recovers, and
                // ask for its bitmap to rebuild the one we dropped at
                // failure time.
                out.push(Output::Effect(Effect::PeerRecovered { peer: peer.id }));
                self.send_full_to(at, out);
                self.request_resync(now, at, out);
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
                if let Some(at) = from_at {
                    self.peers[at].lane.accepts_gr = accepts_gr;
                    self.send_full_to(at, out);
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
        if spec.table_bits() > MAX_WIRE_TABLE_BITS {
            return; // past the wire limit: drop before staging anything
        }
        let Some(at) = self.position(sender) else {
            return; // not a configured peer: no replica, no resync
        };
        out.push(Output::Effect(Effect::UpdateReceived));
        let st = &mut self.peers[at].replica;
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
                    || seg_bits as usize > GR_SEGMENT_BITS
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
                    self.request_resync(now, at, out);
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

    /// Ask the peer at `at` — the current datagram's sender — for its
    /// full bitmap, unless a DIRREQ to it is still inside
    /// [`RESYNC_BACKOFF`]. Retries ride the next delta or heartbeat that
    /// finds the replica still missing.
    fn request_resync(&mut self, now: VirtualTime, at: usize, out: &mut Vec<Output>) {
        let Peer { id: peer, replica: st, .. } = &mut self.peers[at];
        if st
            .last_resync_request
            .is_some_and(|sent| now.saturating_since(sent) < RESYNC_BACKOFF)
        {
            return;
        }
        st.last_resync_request = Some(now);
        let last_generation = st.generation;
        let peer = *peer;
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

    /// Restate the whole published bitmap to the peer at `at`
    /// (answering a DIRREQ, or reinitializing a recovered peer): mark
    /// the lane stale and service it, so `service_lane` builds the one
    /// full restatement. No-op outside SC mode.
    fn send_full_to(&mut self, at: usize, out: &mut Vec<Output>) {
        self.peers[at].lane.needs_full = true;
        self.service_lane(at, false, out);
    }

    /// Bring the lane of the peer at `at` current. The per-lane Section
    /// V-D choice: a full restatement when the lane is marked stale or
    /// the logged backlog now costs more on the wire than a (GR-coded,
    /// when negotiated) bitmap; otherwise the pending flips, chunked per
    /// datagram; otherwise — only when `heartbeat` — the empty
    /// anti-entropy delta that keeps gap detection alive.
    fn service_lane(&mut self, at: usize, heartbeat: bool, out: &mut Vec<Output>) {
        let Self { sc, peers, next_reqnum, id, .. } = self;
        let Some(sc) = sc.as_ref() else { return };
        let Some((spec, bits)) = sc.summary.bloom() else { return };
        let Peer { id: peer, lane, .. } = &mut peers[at];
        let peer = *peer;
        let head = sc.log_base + sc.log.len() as u64;
        let pending = (head - lane.cursor) as usize;
        if pending == 0 && !lane.needs_full && !heartbeat {
            return;
        }
        let full_bytes = if lane.accepts_gr {
            gr_full_bytes_estimate(bits.len(), bits.count_ones())
        } else {
            wire_cost::bloom_full_bytes(bits.len())
        };
        let full = lane.needs_full
            || (pending > 0 && full_bytes < wire_cost::bloom_delta_bytes(pending));
        let request_number = *next_reqnum;
        *next_reqnum = next_reqnum.wrapping_add(1);
        let generation = sc.summary.generation();
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
            // The restatement burns the lane's *next* seq: every
            // datagram that moves a lane forward must, so that if the
            // full is lost the following heartbeat's seq no longer
            // matches the receiver's expectation, the gap fires, and the
            // resync retries. (A full stamped in place and then lost
            // would leave the receiver silently stale forever — the
            // cursor has already snapped past the flips the bitmap was
            // carrying.) The cursor snaps to the log head: the bitmap
            // already reflects every logged flip.
            lane.seq = lane.seq.wrapping_add(1);
            lane.cursor = head;
            lane.needs_full = false;
            for content in full_contents(bits, lane.accepts_gr) {
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
            .filter(|p| !p.failed)
            .map(|p| p.lane.cursor)
            .min()
            .unwrap_or(head);
        while sc.log_base < min {
            sc.log.pop_front();
            sc.log_base += 1;
        }
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
        for p in self.peers.iter().filter(|p| p.lane.slot == slot) {
            // Failed peers are pinged too: hearing us is how a healed
            // one-way partition recovers.
            out.push(Output::Send(Send {
                to: Dest::Peer(p.id),
                msg: IcpMessage::Secho {
                    request_number: 0,
                    url: String::new(),
                },
                kind: SendKind::Keepalive,
            }));
        }
        self.sweep_failed_peers(now, out);
        if self.sc.is_some() {
            for at in 0..self.peers.len() {
                // A failed peer's recovery restates the bitmap instead.
                if self.peers[at].lane.slot == slot && !self.peers[at].failed {
                    self.service_lane(at, true, out);
                }
            }
            self.trim_log();
        }
    }

    /// Mark the peers we have not heard from lately failed and drop
    /// their summary replicas.
    fn sweep_failed_peers(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        if self.keepalive_ms == 0 {
            return; // no keep-alives, no liveness signal
        }
        let timeout = Duration::from_millis(self.keepalive_ms) * FAILURE_KEEPALIVE_PERIODS;
        let head = self
            .sc
            .as_ref()
            .map_or(0, |sc| sc.log_base + sc.log.len() as u64);
        for p in &mut self.peers {
            if p.failed || now.saturating_since(p.last_heard) <= timeout {
                continue;
            }
            p.failed = true;
            p.replica = ReplicaState::default();
            self.replicas_dirty = true; // the live-peer set changed
            // A silent peer must not pin the flip log: snap its lane to
            // the head and mark it for a full restatement. Recovery
            // sends the bitmap anyway, so the skipped flips are safe.
            p.lane.cursor = head;
            p.lane.needs_full = true;
            out.push(Output::Effect(Effect::PeerFailed { peer: p.id }));
        }
    }

    /// Post-request publish (SC mode): report the request to the
    /// summary and, when its policy publishes, append the publish's
    /// flips to the shared flip log. Nothing is sent yet unless a lane's
    /// backlog reached a full packet — the paper's "enough changes to
    /// fill an IP packet" rule; smaller publishes coalesce and ride each
    /// peer's next staggered fanout tick, so update cost no longer
    /// scales with `publishes × N` bursts.
    fn on_request_done(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        let Some(sc) = self.sc.as_mut() else { return };
        let now_ms = now.saturating_since(VirtualTime::ZERO).as_millis() as u64;
        let Some(published) = sc.summary.request_done(sc.policy, now_ms) else {
            return;
        };
        sc.log.extend(&published.flips);
        let head = sc.log_base + sc.log.len() as u64;
        // Flush any live lane whose backlog now fills a packet; each
        // flushed lane makes its own delta-vs-full choice. With
        // keep-alives disabled nothing ever ticks the fan-out, so every
        // pending lane flushes here instead of coalescing forever.
        let tickless = self.keepalive_ms == 0;
        let before = out.len();
        for at in 0..self.peers.len() {
            let Peer { failed, lane, .. } = &self.peers[at];
            let pending = (head - lane.cursor) as usize;
            if !failed
                && (pending >= FLIPS_PER_DATAGRAM || (tickless && (pending > 0 || lane.needs_full)))
            {
                self.service_lane(at, false, out);
            }
        }
        let messages = out[before..]
            .iter()
            .filter(|o| matches!(o, Output::Send(_)))
            .count();
        out.push(Output::Effect(Effect::Published {
            flips: published.flips.len(),
            staleness: published.staleness,
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
fn full_contents(bits: &BitVec, accepts_gr: bool) -> Vec<DirContent> {
    if !accepts_gr {
        return vec![DirContent::Bitmap(bits.as_words().to_vec())];
    }
    let len = bits.len();
    let mut contents = Vec::new();
    let mut start = 0usize;
    while start < len {
        let seg = (len - start).min(GR_SEGMENT_BITS);
        let words = &bits.as_words()[start / 64..(start + seg).div_ceil(64)];
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
            .filter(|p| p.replica.filter.is_some())
            .map(|p| p.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        self.replica_filter(peer).map(|f| f.bits().clone())
    }

    fn published_bits(&self) -> Option<BitVec> {
        self.sc
            .as_ref()
            .and_then(|sc| sc.summary.bloom())
            .map(|(_, bits)| bits.clone())
    }

    fn cached_docs(&self) -> u64 {
        self.sc.as_ref().map_or(0, |sc| sc.summary.docs())
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
    use sc_bloom::{CountingBloomFilter, FilterConfig};
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
            let (spec, _) =
                ProxySummary::with_expected_docs(kind, 64).bloom().expect("a Bloom summary");
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
        // The snapshot lists the replicas in peer order.
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

    /// A GR segment may claim any table and segment size, and the
    /// sender field picks the replica, so any UDP source could make the
    /// receiver allocate `bit_array_size` bits twice over (512 MiB each
    /// at `u32::MAX`). A segment longer than [`GR_SEGMENT_BITS`] or a
    /// table above [`MAX_WIRE_TABLE_BITS`] is dropped before anything
    /// is allocated.
    #[test]
    fn oversized_gr_claims_stage_and_install_nothing() {
        let seg = GR_SEGMENT_BITS as u32;
        for (bit_array_size, seg_bits) in [
            (2 * seg, 2 * seg),              // one segment no publisher sends
            (MAX_WIRE_TABLE_BITS + 64, seg), // a table past the wire limit
            (u32::MAX, u32::MAX),
        ] {
            let mut r = replica_router();
            let content = DirContent::CompressedBitmap {
                first_bit: 0,
                seg_bits,
                ones: 0,
                rice: 0,
                data: Vec::new(),
            };
            let update = DirUpdate {
                bit_array_size,
                ..gr_update(1, 1, content)
            };
            r.apply_update(VirtualTime::ZERO, 2, update, &mut Vec::new());
            let claim = format!("{bit_array_size}-bit table, {seg_bits}-bit segment");
            assert!(
                r.peers.iter().all(|p| p.replica.staging.is_none()),
                "{claim}: nothing staged"
            );
            assert!(!r.replica_installed(2), "{claim}: nothing installed");
        }
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
                for Peer { id: peer, replica: st, .. } in &r.peers {
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

    /// The failure sweep forgets a silent peer's installed replica and
    /// publishes that: the next snapshot lists neither the replica nor
    /// the peer as live. Failures are declared in configured order.
    #[test]
    fn failed_peers_leave_the_snapshot_in_configured_order() {
        let mut r = Router::new(0, vec![9, 1, 3, 2], 50, 1, 1, None, VirtualTime::ZERO);
        let bitmap = DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 3,
            seq: 0,
            content: DirContent::Bitmap(vec![0u64; 8]),
        };
        apply(&mut r, VirtualTime::ZERO, 9, bitmap);
        r.flush_replicas();
        assert_eq!(r.replica_cell().load().peers().len(), 1);
        let failed: Vec<u32> = r
            .handle(at(10_000), Event::Tick, &NoDocs)
            .iter()
            .filter_map(|o| match o {
                Output::Effect(Effect::PeerFailed { peer }) => Some(*peer),
                _ => None,
            })
            .collect();
        assert_eq!(failed, vec![9, 1, 3, 2]);
        assert!(!r.replica_installed(9));
        let snap = r.replica_cell().load();
        assert!(snap.peers().is_empty() && snap.live_peers().is_empty());
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
