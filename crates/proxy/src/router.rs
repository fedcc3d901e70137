//! The shard router: the control plane of the shard-per-core runtime.
//!
//! The router owns everything that must be globally ordered or that
//! crosses shard boundaries, and routes everything else to the owning
//! [`Shard`]:
//!
//! * **request numbers**: one allocator, so DIRREQ/DIRUPDATE numbering
//!   is identical at every shard count;
//! * **peer liveness**: SECHO bookkeeping, the failure sweep, and
//!   recovery reinitialization (Section VI-B);
//! * **the publish ledger**: generation, baseline bitmap, the shared
//!   flip log, and the update policy. A publish is the canonical
//!   *cross-shard merge step*: the shard directory slices are OR-ed
//!   word-wise into one full-width bitmap, diffed against the baseline
//!   — exactly the unsharded [`ProxySummary::publish`] arithmetic —
//!   and the diff is appended to the flip log;
//! * **per-peer update lanes**: each peer consumes the flip log at its
//!   own cursor with its own seq stream, serviced in a stagger slot
//!   derived from `(proxy, peer)` so keep-alive and update fanout
//!   spreads across ticks instead of bursting — the big-N scaling
//!   design (DESIGN.md §14). A lane far enough behind that the delta
//!   backlog outweighs a bitmap gets a full restatement instead,
//!   Golomb–Rice coded when the peer negotiated `DIRFULL_GR` support
//!   via the DIRREQ options word;
//! * **the replica snapshot cell**: whenever any shard reports
//!   [`ShardOutput::ReplicasChanged`], the router re-merges every
//!   shard's installed replicas into one immutable
//!   [`ReplicaSnapshot`] for the lock-free read path.
//!
//! Determinism: the router processes one event at a time and drains
//! each shard's outputs synchronously, so the output stream for a
//! given event sequence is identical for every shard count — that is
//! what lets the simnet assert bit-for-bit equal journals for shards
//! ∈ {1, 2, 4} under the same seed (see DESIGN.md §13 for the full
//! argument, including the counter-saturation caveat).
//!
//! Like the machine it replaces, this module is sans-I/O (sc-check
//! rule 6 covers it): no sockets, no real clocks, no sleeps.

use crate::machine::{
    Dest, DirectoryView, Effect, Event, Output, Send, SendKind, VirtualTime,
    FAILURE_KEEPALIVE_PERIODS, FLIPS_PER_DATAGRAM, GR_SEGMENT_BITS,
};
use crate::replica::{ReplicaCell, ReplicaSnapshot};
use crate::shard::{mix64, owner_of, shard_of, Shard, ShardEvent, ShardOutput};
use sc_bloom::{BitVec, Flip, HashSpec, UrlKey};
use sc_util::fxhash::FxHashMap;
use sc_wire::icp::{
    DirContent, DirUpdate, IcpMessage, DIRFULL_GR_SEGMENT_LEN, DIRUPDATE_HEADER_LEN, HEADER_LEN,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use summary_cache_core::{wire_cost, ProxySummary, SummarySnapshot, UpdatePolicy};

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

/// The publish ledger: the control-plane half of summary-cache mode.
/// The per-URL counters live in the shards; everything here is global —
/// the published baseline, the shared flip log the per-peer lanes
/// consume, the generation lineage, and the policy counters the publish
/// decision reads. Sequence numbers are *per lane* now: each peer sees
/// its own gap-free seq stream, which is what lets fanout stagger and
/// per-peer full restatements coexist (a unicast send can never create
/// a seq some other peer reads as a gap).
struct ScControl {
    spec: HashSpec,
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

/// The routed protocol state for one proxy: N shards plus the control
/// plane. [`Router::new`] with one shard and one fanout slot is exactly
/// the old unsharded machine.
pub struct Router {
    id: u32,
    peers: Vec<u32>,
    keepalive_ms: u64,
    shards: Vec<Shard>,
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
    /// merges an immutable snapshot of all shards' replicas here, so
    /// SC-mode candidate selection never takes the router lock.
    cell: Arc<ReplicaCell>,
    /// Set when a shard reported a replica-set change that has not yet
    /// been merged into the cell. Deferring the merge to
    /// [`Router::flush_replicas`] is what lets a batch of delta
    /// datagrams share one copy-on-write of each touched filter: an
    /// eager per-datagram publish would re-`Arc` every filter, so every
    /// following `Arc::make_mut` would deep-copy again.
    replicas_dirty: bool,
    next_reqnum: u32,
}

impl Router {
    /// A router for proxy `id` peering with `peers`, partitioned over
    /// `shards` lanes with peer fanout staggered across `fanout_slots`
    /// ticks (both clamp 0 to 1). `sc` carries the summary (with its
    /// generation already set by the driver — fresh randomness is I/O)
    /// and publish policy in summary-cache mode; the summary's
    /// *published* snapshot seeds the ledger, and its Bloom spec sizes
    /// every shard's directory slice. Non-Bloom summaries are not
    /// routable (nothing constructs them here; the unsharded publish
    /// path treated them as unreachable) and degrade to no-SC mode.
    /// `now` initializes every peer's last-heard time.
    pub fn new(
        id: u32,
        peers: Vec<u32>,
        keepalive_ms: u64,
        shards: usize,
        fanout_slots: usize,
        sc: Option<(ProxySummary, UpdatePolicy)>,
        now: VirtualTime,
    ) -> Router {
        let shards = shards.max(1);
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
        let slice_cfg = sc.as_ref().map(|sc| sc_bloom::FilterConfig {
            bits: sc.spec.table_bits(),
            hashes: sc.spec.k(),
            function_bits: sc.spec.function_bits(),
        });
        Router {
            id,
            peers,
            keepalive_ms,
            shards: (0..shards).map(|i| Shard::new(i, slice_cfg)).collect(),
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

    /// How many shard lanes this router partitions state over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Publish pending replica changes to the read-path cell, if any
    /// shard reported one since the last flush. Batch drivers call this
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

    /// Merge every shard's installed replicas into one immutable
    /// snapshot (in configured peer order, matching
    /// [`Router::candidates_key_into`]'s probe order) and publish it to
    /// the cell.
    fn publish_replicas(&self) {
        let peers = self
            .peers
            .iter()
            .filter_map(|&p| {
                self.shards[owner_of(p, self.shards.len())]
                    .replica_filter(p)
                    .map(|f| (p, f.clone()))
            })
            .collect();
        self.cell.swap(Arc::new(ReplicaSnapshot::new(peers)));
    }

    /// Feed one event; returns the sends and effects it decided on, in
    /// order. Identical output stream at every shard count.
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
                if self.sc.is_some() {
                    self.route_insert(url);
                    for victim in evicted {
                        self.route_remove(victim);
                    }
                }
            }
            Event::Purged { url } => {
                if self.sc.is_some() {
                    self.route_remove(url);
                }
            }
            Event::RequestDone => self.on_request_done(now, out),
        }
    }

    /// Insert the document keyed by `key` into the owning shard's
    /// directory slice and bump the ledger counters (docs, Section V-A
    /// freshness). The key arrives pre-hashed — no digest happens here.
    fn route_insert(&mut self, key: &UrlKey) {
        let shard = shard_of(key, self.shards.len());
        let mut sink = Vec::new();
        self.shards[shard].handle(ShardEvent::Insert { url: key }, &mut sink);
        if let Some(sc) = self.sc.as_mut() {
            sc.docs += 1;
            sc.fresh += 1;
        }
        debug_assert!(sink.is_empty(), "directory mutations emit no outputs");
    }

    /// Remove the document keyed by `key` from the owning shard's
    /// directory slice.
    fn route_remove(&mut self, key: &UrlKey) {
        let shard = shard_of(key, self.shards.len());
        let mut sink = Vec::new();
        self.shards[shard].handle(ShardEvent::Remove { url: key }, &mut sink);
        if let Some(sc) = self.sc.as_mut() {
            sc.docs = sc.docs.saturating_sub(1);
        }
        debug_assert!(sink.is_empty(), "directory mutations emit no outputs");
    }

    /// Materialize a shard's routed outputs: effects pass through,
    /// resync decisions become DIRREQ sends (request number allocated
    /// here, so numbering is shard-count independent). Returns whether
    /// the shard reported a replica-set change.
    fn drain_shard_outputs(&mut self, souts: Vec<ShardOutput>, out: &mut Vec<Output>) -> bool {
        let mut replicas_changed = false;
        for sout in souts {
            match sout {
                ShardOutput::Effect(e) => out.push(Output::Effect(e)),
                ShardOutput::Resync {
                    peer,
                    last_generation,
                } => {
                    let request_number = self.next_reqnum;
                    self.next_reqnum = self.next_reqnum.wrapping_add(1);
                    out.push(Output::Send(Send {
                        to: Dest::Sender,
                        msg: IcpMessage::DirReq {
                            request_number,
                            sender: self.id,
                            generation: last_generation,
                            // We decode DIRFULL_GR, so every resync we
                            // originate advertises it.
                            accepts_gr: true,
                        },
                        kind: SendKind::Resync {
                            peer,
                            last_generation,
                        },
                    }));
                }
                ShardOutput::ReplicasChanged => replicas_changed = true,
            }
        }
        replicas_changed
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
            if self.shards[owner_of(p, self.shards.len())]
                .replica_filter(p)
                .is_some_and(|f| f.contains_key(url))
            {
                out.push(p);
            }
        }
    }

    /// Is a replica of `peer` currently installed?
    pub fn replica_installed(&self, peer: u32) -> bool {
        self.shards[owner_of(peer, self.shards.len())].replica_installed(peer)
    }

    /// The summary's current generation (SC mode only).
    pub fn generation(&self) -> Option<u32> {
        self.sc.as_ref().map(|sc| sc.generation)
    }

    /// Saturated-counter increments summed over every shard's slice —
    /// the only condition under which the shard OR-merge can diverge
    /// from an unsharded directory (DESIGN.md §13).
    pub fn saturations(&self) -> u64 {
        self.shards.iter().map(Shard::local_saturations).sum()
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
                let owner = owner_of(peer_id, self.shards.len());
                let mut souts = Vec::new();
                self.shards[owner].handle(
                    ShardEvent::PeerReturned { now, peer: peer_id },
                    &mut souts,
                );
                if self.drain_shard_outputs(souts, out) {
                    self.replicas_dirty = true;
                }
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

    /// Validate and account a received directory update, then route it
    /// to the shard owning the sender's replica.
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
        let owner = owner_of(sender, self.shards.len());
        let mut souts = Vec::new();
        self.shards[owner].handle(
            ShardEvent::Apply {
                now,
                from: sender,
                spec,
                update,
            },
            &mut souts,
        );
        if self.drain_shard_outputs(souts, out) {
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
    /// lately. The sweep itself is a control-plane decision; dropping
    /// each replica routes to the shard that owns it.
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
        let mut replicas_dropped = false;
        for id in newly_failed {
            let owner = owner_of(id, self.shards.len());
            let mut souts = Vec::new();
            self.shards[owner].handle(ShardEvent::DropReplica { peer: id }, &mut souts);
            replicas_dropped |= self.drain_shard_outputs(souts, out);
            // A silent peer must not pin the flip log: snap its lane to
            // the head and mark it for a full restatement. Recovery
            // sends the bitmap anyway, so the skipped flips are safe.
            if let Some(lane) = self.lanes.get_mut(&id) {
                lane.cursor = head;
                lane.needs_full = true;
            }
            out.push(Output::Effect(Effect::PeerFailed { peer: id }));
        }
        if replicas_dropped {
            self.replicas_dirty = true;
        }
    }

    /// Post-request publish check (SC mode): when the policy says so,
    /// merge the shard slices and append the diff to the flip log.
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

    /// The publish merge step: OR every shard's directory slice into
    /// one full-width bitmap, diff it against the published baseline,
    /// and append the diff to the shared flip log. Nothing is sent yet
    /// unless a lane's backlog reached a full packet — the paper's
    /// "enough changes to fill an IP packet" rule; smaller publishes
    /// coalesce and ride each peer's next staggered fanout tick, so
    /// update cost no longer scales with `publishes × N` bursts.
    fn publish_update(&mut self, now: VirtualTime, out: &mut Vec<Output>) {
        // Merge the slices first (immutable borrow of the shards ends
        // before the ledger mutates).
        let merged = {
            let Some(sc) = self.sc.as_ref() else { return };
            let bits = sc.baseline.len();
            let mut words = vec![0u64; bits.div_ceil(64)];
            for shard in &self.shards {
                if let Some(slice) = shard.local_bits() {
                    for (acc, &w) in words.iter_mut().zip(slice.as_words()) {
                        *acc |= w;
                    }
                }
            }
            BitVec::from_words(bits, words)
        };
        let Some(sc) = self.sc.as_mut() else { return };
        let staleness = UpdatePolicy::staleness(sc.fresh, sc.docs);
        sc.fresh = 0;
        sc.requests_since_publish = 0;
        sc.last_publish = now;
        let diff = sc.baseline.diff_indices(&merged);
        let appended = diff.len();
        sc.log.extend(diff.iter().map(|&i| {
            if merged.get(i) {
                Flip::set(i as u32)
            } else {
                Flip::clear(i as u32)
            }
        }));
        sc.baseline = merged;
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
/// datagram under [`crate::machine::UDP_PAYLOAD_BUDGET`] (a 200k-bit
/// segment codes to at most ~50 KB even at worst-case fill).
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
            .filter(|&p| self.shards[owner_of(p, self.shards.len())].replica_installed(p))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        self.shards[owner_of(peer, self.shards.len())].replica_bits(peer)
    }

    fn published_bits(&self) -> Option<BitVec> {
        self.sc.as_ref().map(|sc| sc.baseline.clone())
    }

    fn cached_docs(&self) -> u64 {
        self.sc.as_ref().map_or(0, |sc| sc.docs)
    }
}

/// Route one stored document's key the way the router would, without a
/// router — used by drivers that stripe their cache by the same key
/// space. Takes the request's already-computed [`UrlKey`] so striping
/// never re-digests the URL (the hash-once discipline, sc-check rule
/// `hash_once`).
pub fn stripe_of(key: &UrlKey, stripes: usize) -> usize {
    if stripes <= 1 {
        return 0;
    }
    shard_of(key, stripes)
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

    fn sc_router(id: u32, peers: Vec<u32>, generation: u32, shards: usize) -> Router {
        sc_router_slotted(id, peers, generation, shards, 1, 64)
    }

    fn sc_router_slotted(
        id: u32,
        peers: Vec<u32>,
        generation: u32,
        shards: usize,
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
            shards,
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

    /// Drive the same workload at several shard counts and demand the
    /// byte-identical output stream — the unit-level version of the
    /// simnet convergence sweep.
    #[test]
    fn output_stream_is_shard_count_invariant() {
        let encode_all = |outs: &[Output]| -> Vec<Vec<u8>> {
            outs.iter()
                .filter_map(|o| match o {
                    Output::Send(s) => s.msg.encode(99).ok(),
                    Output::Effect(_) => None,
                })
                .collect()
        };
        let run = |shards: usize| -> Vec<Vec<u8>> {
            let mut r = sc_router(1, vec![2, 3], 7, shards);
            let mut wire = Vec::new();
            let evicted: Vec<UrlKey> = Vec::new();
            for i in 0..40u32 {
                let url = key(&format!("http://server-{}.example/{i}", i % 5));
                wire.extend(encode_all(&r.handle(
                    at(u64::from(i)),
                    Event::Stored { url: &url, evicted: &evicted },
                    &NoDocs,
                )));
                wire.extend(encode_all(&r.handle(at(u64::from(i)), Event::RequestDone, &NoDocs)));
            }
            let victims = vec![key("http://server-1.example/6")];
            wire.extend(encode_all(&r.handle(
                at(50),
                Event::Stored { url: &key("http://server-0.example/new"), evicted: &victims },
                &NoDocs,
            )));
            wire.extend(encode_all(&r.handle(at(50), Event::RequestDone, &NoDocs)));
            wire.extend(encode_all(&r.handle(at(60), Event::Tick, &NoDocs)));
            wire
        };
        let baseline = run(1);
        assert!(!baseline.is_empty(), "the workload must publish something");
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards), baseline, "shards={shards} diverged from 1-shard wire");
        }
    }

    #[test]
    fn publish_merges_slices_into_the_ledger() {
        let mut r = sc_router(1, vec![2], 3, 4);
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
        assert!(bits.count_ones() > 0, "the merged baseline holds the inserts");
    }

    #[test]
    fn replicas_partition_by_owner_shard() {
        let mut r = sc_router(1, vec![2, 3, 4, 5], 9, 4);
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
        // The lock-free snapshot merges across shards in peer order.
        let snap = r.replica_cell().load();
        assert_eq!(
            snap.peers().iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn stripe_of_matches_shard_of() {
        for url in ["http://a/x", "http://b/y", "http://c.example/long/path"] {
            let key = UrlKey::new(url.as_bytes());
            for n in [1usize, 2, 4, 8] {
                assert_eq!(stripe_of(&key, n), shard_of(&key, n));
            }
        }
    }

    /// The double-digest regression pin: a proxied request costs
    /// exactly ONE MD5 digest of its URL. Everything downstream of
    /// `UrlKey::new` — stripe selection, the ledger insert/remove, the
    /// publish, and the candidate probe — reuses the key and never
    /// re-hashes. `blocks_hashed` is a per-thread counter, so any
    /// stray digest on this path shows up here.
    #[test]
    fn request_path_digests_the_url_exactly_once() {
        let mut r = sc_router(1, vec![2], 7, 4);
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
        let mut r = sc_router_slotted(1, peers.clone(), 7, 1, 4, 64);
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
        let mut r = sc_router(1, vec![2, 3], 7, 1);
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
        let mut r = sc_router(1, vec![2, 3], 7, 1);
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
        let mut r = sc_router_slotted(1, vec![2], 7, 1, 1, 256);
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
