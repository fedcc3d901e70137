//! The vocabulary of the sans-I/O replication/ICP machine.
//!
//! Every protocol decision — how to answer a query, when a delta applies
//! to a replica and when it forces a resync, which peers are alive, what
//! a keep-alive tick broadcasts, when the summary publishes — is a pure
//! function of `(now: VirtualTime, event)`, made by
//! [`crate::router::Router`] (with one fanout slot, the single machine).
//! Inputs are [`Event`]s: a datagram, a timer tick, a local cache
//! insert/evict, a finished client request. Outputs are datagram
//! [`Send`]s and journal/metric [`Effect`]s. This module holds that
//! vocabulary, the wire constants, and [`QueryRound`], the ICP query
//! round both drivers run.
//!
//! Nothing here opens a socket, reads a clock or sleeps
//! (`crates/clippy.toml` makes clippy reject it). The live daemon feeds
//! the machine from its UDP socket and wall clock, the deterministic
//! [`crate::simnet`] from a virtual clock and a seeded fault plan, so a
//! simnet seed is a faithful protocol schedule. Time enters only as
//! caller-supplied [`VirtualTime`]s, and randomness never enters: loss
//! injection and generation freshness are the caller's business.

use sc_bloom::UrlKey;
use sc_wire::icp::IcpMessage;
use std::time::Duration;

/// Max bit flips per DIRUPDATE datagram (keeps messages near one MTU,
/// as the prototype "sends updates whenever there are enough changes to
/// fill an IP packet").
pub const FLIPS_PER_DATAGRAM: usize = 320;

/// Bits per DIRFULL_GR segment when a compressed full bitmap must be
/// split. Golomb–Rice coding of `n` bits is at worst ~2 bits per set
/// bit plus the quotient stream — bounded by `2n` coded bits — so a
/// 200k-bit segment never exceeds ~50 KB: comfortably under ICP's
/// 64 KiB frame limit and what a UDP/IPv4 stack will actually carry.
/// Multiple of 64 keeps every segment boundary word-aligned, which the
/// receiver's splice path requires.
pub const GR_SEGMENT_BITS: usize = 200_000;

/// Largest summary table, in bits, a received DIRUPDATE may describe
/// (2^27 bits: a 16 MiB bitmap). A spec above it is dropped unread: a
/// full restatement is staged at the table's size, so an unchecked
/// `bit_array_size` would let one datagram choose the allocation.
pub const MAX_WIRE_TABLE_BITS: u32 = 1 << 27;

/// Minimum spacing between DIRREQs to one peer: resyncs are idempotent,
/// but a burst of gapped deltas must not become a burst of bitmap
/// requests (each answer is a full bitmap).
pub const RESYNC_BACKOFF: Duration = Duration::from_millis(150);

/// Failure timeout: a peer silent for this many keep-alive periods is
/// considered failed and its summary replica is dropped (probes then
/// treat it as empty — no candidates, no queries).
pub const FAILURE_KEEPALIVE_PERIODS: u32 = 3;

/// A point on the machine's clock: microseconds since an arbitrary
/// epoch chosen by the driver (daemon start, simulation start). The
/// machine only ever *subtracts* two of these — absolute values carry
/// no meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The driver's epoch.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// A time `us` microseconds past the epoch.
    pub fn from_micros(us: u64) -> VirtualTime {
        VirtualTime(us)
    }

    /// Elapsed duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: VirtualTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

/// One input to the machine.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A datagram arrived. `from` is the sending peer's id when the
    /// source address maps to a configured peer (replies to unknown
    /// sources are still served, but carry no liveness or replica
    /// meaning).
    Datagram {
        /// Sending peer, if the source address is a configured peer.
        from: Option<u32>,
        /// The raw datagram bytes (decoded inside the machine).
        data: &'a [u8],
    },
    /// One keep-alive period elapsed: ping peers, sweep liveness, and
    /// (SC mode) broadcast the anti-entropy heartbeat.
    Tick,
    /// A document was stored in the local cache, evicting `evicted`.
    /// Keys arrive pre-hashed: the driver digests each URL exactly once
    /// (at request time) and threads the [`UrlKey`] through — the
    /// machine never re-digests.
    Stored {
        /// Pre-hashed key of the URL now cached.
        url: &'a UrlKey,
        /// Pre-hashed keys of the victims the store pushed out.
        evicted: &'a [UrlKey],
    },
    /// A stale local copy was purged from the cache.
    Purged {
        /// Pre-hashed key of the URL no longer cached.
        url: &'a UrlKey,
    },
    /// A client request finished (drives the update publish policy).
    RequestDone,
}

/// Where a datagram goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// One configured peer, by id.
    Peer(u32),
    /// Every configured peer (the driver encodes once and fans out).
    AllPeers,
    /// Reply to the source of the datagram currently being handled.
    Sender,
}

/// What a send *is*, so the driver can apply the right accounting (and
/// the update-loss fault knob, which only ever drops updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// HIT/MISS answer to an ICP query.
    QueryReply,
    /// SECHO keep-alive ping.
    Keepalive,
    /// Delta (bit-flip) DIRUPDATE — includes the empty heartbeat delta.
    UpdateDelta,
    /// Full-bitmap DIRUPDATE (broadcast publish or unicast resync
    /// answer / recovery reinitialization).
    UpdateFull,
    /// DIRREQ asking `peer` to restate its bitmap.
    Resync {
        /// The publisher being asked.
        peer: u32,
        /// The generation last seen from it (0 = none), for the journal.
        last_generation: u32,
    },
}

impl SendKind {
    /// Is this datagram subject to the injected update-loss knob?
    pub fn is_update(self) -> bool {
        matches!(self, SendKind::UpdateDelta | SendKind::UpdateFull)
    }
}

/// One datagram the driver must put on the wire.
#[derive(Debug, Clone)]
pub struct Send {
    /// Destination.
    pub to: Dest,
    /// The message (the driver encodes it; an oversized encode is
    /// silently skipped, the documented full-bitmap size limit).
    pub msg: IcpMessage,
    /// Accounting class.
    pub kind: SendKind,
}

/// A journal/metric effect the driver must apply. Each variant maps
/// onto exactly the counters and journal records the pre-refactor
/// daemon emitted inline.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A directory update from a configured peer was accepted for
    /// processing (`sc_updates_received_total`).
    UpdateReceived,
    /// An ICP query was answered (`sc_icp_queries_served_total`).
    QueryServed,
    /// A replica was (re)installed from a full bitmap.
    ReplicaInstalled {
        /// The publisher.
        peer: u32,
        /// True when no replica existed before (first contact).
        first_contact: bool,
        /// Installed generation.
        generation: u32,
        /// Seq the bitmap was stamped with.
        seq: u32,
        /// Filter size in bits.
        bits: u32,
    },
    /// A lost/reordered update was detected and an installed replica
    /// was discarded pending resync.
    UpdateGap {
        /// The publisher whose replica was discarded.
        peer: u32,
        /// Generation the offending datagram carried.
        got_generation: u32,
        /// Seq the offending datagram carried.
        got_seq: u32,
        /// Generation the replica was installed under.
        expected_generation: u32,
        /// Seq the replica expected next.
        expected_seq: u32,
    },
    /// A peer went silent past the failure timeout; its replica (if
    /// any) was dropped.
    PeerFailed {
        /// The silent peer.
        peer: u32,
    },
    /// A failed peer was heard again; reinitialization sends follow in
    /// the same output batch.
    PeerRecovered {
        /// The returning peer.
        peer: u32,
    },
    /// The local summary published an update into the shared flip log.
    /// Datagrams no longer leave at publish time unless a lane's
    /// backlog reached a full packet — smaller publishes coalesce and
    /// ride each peer's staggered fanout tick.
    Published {
        /// Bit flips this publish appended to the update log.
        flips: usize,
        /// Staleness at publish time.
        staleness: f64,
        /// Update datagrams flushed immediately (0 = everything is
        /// riding the fanout ticks).
        messages: usize,
    },
    /// An ICP reply arrived. The driver feeds it to the [`QueryRound`]
    /// it opened under `request_number`, if that round is still open.
    ReplyReceived {
        /// The query's request number.
        request_number: u32,
        /// `Some(peer)` on a HIT from a configured peer.
        hit_from: Option<u32>,
        /// The replying peer (for RTT attribution), when known.
        replier: Option<u32>,
    },
}

/// One machine output: a send or an effect, in the order the old
/// inline code performed them.
#[derive(Debug, Clone)]
pub enum Output {
    /// Put a datagram on the wire.
    Send(Send),
    /// Apply a journal/metric effect.
    Effect(Effect),
}

/// The machine's read-only view of the local cache directory, used to
/// answer ICP queries. The daemon backs this with the real
/// [`sc_cache::WebCache`]; the simnet backs it with a set model.
pub trait DirectoryView {
    /// Is `url` currently cached locally?
    fn contains(&self, url: &str) -> bool;
}

/// One ICP query round (RFC 2186, which SC-ICP keeps under its
/// summaries, paper §VI): the queried peers still waiting, and a
/// deadline. The first HIT wins; the round ends all-miss once every
/// peer has answered. The daemon's protocol thread and the simnet each
/// keep their open rounds and feed them [`Effect::ReplyReceived`]s.
#[derive(Debug, Clone)]
pub struct QueryRound {
    /// Queried peers that have not answered; empty once the round ends.
    waiting: Vec<u32>,
    deadline: VirtualTime,
}

/// What one answer did to a [`QueryRound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Nothing: the peer was not waiting (a duplicate, a peer not
    /// queried, a round already over), or the reply came too late.
    Ignored,
    /// Counted; other peers are still waiting.
    Counted,
    /// The round is over: `Some(peer)` on a HIT, `None` when all missed.
    Ended(Option<u32>),
}

impl QueryRound {
    /// A round that queried `peers` (at least one) and ignores any
    /// reply at or after `deadline`.
    pub fn new(peers: &[u32], deadline: VirtualTime) -> QueryRound {
        QueryRound { waiting: peers.to_vec(), deadline }
    }

    /// A reply from `peer` arriving at `now`.
    pub fn reply(&mut self, peer: u32, hit: bool, now: VirtualTime) -> Answer {
        if self.expired(now) {
            return Answer::Ignored;
        }
        self.answer(peer, hit)
    }

    /// The query to `peer` never left, so no reply can come: count it
    /// as a MISS at once.
    pub fn strike(&mut self, peer: u32) -> Answer {
        self.answer(peer, false)
    }

    /// Has the deadline passed by `now`?
    pub fn expired(&self, now: VirtualTime) -> bool {
        now >= self.deadline
    }

    fn answer(&mut self, peer: u32, hit: bool) -> Answer {
        let Some(at) = self.waiting.iter().position(|&w| w == peer) else {
            return Answer::Ignored;
        };
        self.waiting.swap_remove(at);
        if hit {
            self.waiting.clear();
            Answer::Ended(Some(peer))
        } else if self.waiting.is_empty() {
            Answer::Ended(None)
        } else {
            Answer::Counted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use sc_wire::icp::{DirContent, DirUpdate};
    use summary_cache_core::{ProxySummary, SummaryKind, UpdatePolicy};

    struct NoDocs;
    impl DirectoryView for NoDocs {
        fn contains(&self, _url: &str) -> bool {
            false
        }
    }

    /// A single-slot SC-mode router.
    fn sc_machine(id: u32, peers: Vec<u32>, generation: u32) -> Router {
        let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
        let mut summary = ProxySummary::with_expected_docs(kind, 64);
        summary.set_generation(generation);
        Router::new(
            id,
            peers,
            50,
            1,
            1,
            Some((summary, UpdatePolicy::Threshold(0.0))),
            VirtualTime::ZERO,
        )
    }

    fn sends(outputs: &[Output]) -> Vec<&Send> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send(s) => Some(s),
                Output::Effect(_) => None,
            })
            .collect()
    }

    fn at(ms: u64) -> VirtualTime {
        VirtualTime::from_micros(ms * 1000)
    }

    /// Every way an answer can meet a round, from a round that queried
    /// peers 2, 3 and 4 with a deadline at 10 ms.
    #[test]
    fn query_round_rules() {
        use Answer::{Counted, Ended, Ignored};
        // (answers as (peer, hit, at ms; None = a struck send), the
        // Answer each gets)
        type Step = (u32, bool, Option<u64>, Answer);
        let table: [(&str, &[Step]); 7] = [
            ("duplicated miss", &[
                (2, false, Some(1), Counted),
                (2, false, Some(2), Ignored),
                (3, false, Some(3), Counted),
                (4, true, Some(4), Ended(Some(4))),
            ]),
            ("peer not queried", &[(9, true, Some(1), Ignored), (2, false, Some(2), Counted)]),
            ("failed send struck", &[
                (3, false, None, Counted),
                (3, true, Some(1), Ignored),
                (2, false, None, Counted),
                (4, false, Some(2), Ended(None)),
            ]),
            ("hit after a miss", &[
                (2, false, Some(1), Counted),
                (3, true, Some(2), Ended(Some(3))),
            ]),
            ("all miss", &[
                (4, false, Some(1), Counted),
                (2, false, Some(2), Counted),
                (3, false, Some(3), Ended(None)),
            ]),
            ("reply exactly at the deadline", &[
                (2, true, Some(10), Ignored),
                (3, false, Some(9), Counted),
            ]),
            ("nothing after the end", &[
                (2, true, Some(1), Ended(Some(2))),
                (3, true, Some(2), Ignored),
            ]),
        ];
        for (case, steps) in table {
            let mut round = QueryRound::new(&[2, 3, 4], at(10));
            for (i, &(peer, hit, when, want)) in steps.iter().enumerate() {
                let got = match when {
                    Some(ms) => round.reply(peer, hit, at(ms)),
                    None => round.strike(peer),
                };
                assert_eq!(got, want, "{case}, step {i}");
            }
        }
        assert!(!QueryRound::new(&[2], at(10)).expired(at(9)));
        assert!(QueryRound::new(&[2], at(10)).expired(at(10)));
    }

    #[test]
    fn flips_chunking_constant_fits_a_packet() {
        // 320 flips x 4 bytes + 32 bytes of headers stays under the
        // typical 1500-byte MTU, per the prototype's packet-fill intent.
        const { assert!(FLIPS_PER_DATAGRAM * 4 + 32 < 1500) };
    }

    #[test]
    fn delta_to_fresh_machine_requests_resync_not_install() {
        let mut publisher = sc_machine(1, vec![2], 7);
        let mut receiver = sc_machine(2, vec![1], 8);
        // Publisher stores a doc and publishes; the sub-packet batch
        // coalesces until the fan-out tick carries it out as a delta.
        let evicted: Vec<UrlKey> = Vec::new();
        let key = UrlKey::new(b"http://s/a");
        publisher.handle(
            at(1),
            Event::Stored { url: &key, evicted: &evicted },
            &NoDocs,
        );
        publisher.handle(at(1), Event::RequestDone, &NoDocs);
        let outs = publisher.handle(at(2), Event::Tick, &NoDocs);
        let update_bytes = sends(&outs)
            .iter()
            .find(|s| s.kind == SendKind::UpdateDelta)
            .map(|s| s.msg.encode(1).expect("encodes"))
            .expect("a delta was published");
        // The receiver must NOT install from the delta: replica stays
        // absent and a DIRREQ goes out.
        let outs = receiver.handle(
            at(2),
            Event::Datagram { from: Some(1), data: &update_bytes },
            &NoDocs,
        );
        assert!(!receiver.replica_installed(1), "no install from a delta alone");
        assert!(
            sends(&outs)
                .iter()
                .any(|s| matches!(s.kind, SendKind::Resync { peer: 1, .. })),
            "gapless first contact still resyncs: {outs:?}"
        );
    }

    #[test]
    fn resync_backoff_limits_dirreqs() {
        let mut receiver = sc_machine(2, vec![1], 8);
        let publisher = {
            let mut m = sc_machine(1, vec![2], 7);
            let evicted: Vec<UrlKey> = Vec::new();
            let key = UrlKey::new(b"http://s/a");
            m.handle(at(0), Event::Stored { url: &key, evicted: &evicted }, &NoDocs);
            m
        };
        let _ = publisher;
        let delta = IcpMessage::DirUpdate {
            request_number: 9,
            sender: 1,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 512,
                generation: 7,
                seq: 3,
                content: DirContent::Flips(Vec::new()),
            },
        }
        .encode(1)
        .expect("encodes");
        let first = receiver.handle(at(10), Event::Datagram { from: Some(1), data: &delta }, &NoDocs);
        assert_eq!(sends(&first).len(), 1, "first gap asks for a bitmap");
        let again = receiver.handle(at(20), Event::Datagram { from: Some(1), data: &delta }, &NoDocs);
        assert!(sends(&again).is_empty(), "within backoff: no second DIRREQ");
        let later = receiver.handle(at(300), Event::Datagram { from: Some(1), data: &delta }, &NoDocs);
        assert_eq!(sends(&later).len(), 1, "after backoff the retry rides the next delta");
    }

    #[test]
    fn tick_sweeps_silent_peers_and_heartbeats() {
        let mut m = sc_machine(1, vec![2, 3], 5);
        let cell = m.replica_cell();
        // First tick at t=10ms: nobody has timed out (threshold 150ms).
        let outs = m.handle(at(10), Event::Tick, &NoDocs);
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send(Send { kind: SendKind::Keepalive, .. })
        )));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send(Send { kind: SendKind::UpdateDelta, .. })
        )));
        assert!(!outs.iter().any(|o| matches!(o, Output::Effect(Effect::PeerFailed { .. }))));
        // Hear from peer 2 only; at t=200ms peer 3 fails.
        let secho = IcpMessage::Secho { request_number: 0, url: String::new() }
            .encode(2)
            .expect("encodes");
        m.handle(at(100), Event::Datagram { from: Some(2), data: &secho }, &NoDocs);
        let outs = m.handle(at(220), Event::Tick, &NoDocs);
        let failed: Vec<u32> = outs
            .iter()
            .filter_map(|o| match o {
                Output::Effect(Effect::PeerFailed { peer }) => Some(*peer),
                _ => None,
            })
            .collect();
        assert_eq!(failed, vec![3]);
        assert_eq!(m.live_peers(), vec![2]);
        assert_eq!(cell.load().live_peers(), [2], "the read path sees the failure");
        // Peer 3 speaks again: recovery restates our bitmap and DIRREQs theirs.
        let outs = m.handle(at(230), Event::Datagram { from: Some(3), data: &secho }, &NoDocs);
        assert!(outs.iter().any(|o| matches!(o, Output::Effect(Effect::PeerRecovered { peer: 3 }))));
        let kinds: Vec<_> = sends(&outs).iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SendKind::UpdateFull));
        assert!(kinds.iter().any(|k| matches!(k, SendKind::Resync { peer: 3, .. })));
        assert_eq!(cell.load().live_peers(), [2, 3], "and the recovery");
    }

    #[test]
    fn queries_answered_from_directory_view() {
        struct OneDoc;
        impl DirectoryView for OneDoc {
            fn contains(&self, url: &str) -> bool {
                url == "http://s/have"
            }
        }
        let mut m = Router::new(1, vec![2], 0, 1, 1, None, VirtualTime::ZERO);
        let q = |url: &str| {
            IcpMessage::Query {
                request_number: 77,
                requester: 2,
                url: url.to_string(),
            }
            .encode(2)
            .expect("encodes")
        };
        let outs = m.handle(at(1), Event::Datagram { from: Some(2), data: &q("http://s/have") }, &OneDoc);
        assert!(matches!(
            sends(&outs)[0].msg,
            IcpMessage::Hit { request_number: 77, .. }
        ));
        let outs = m.handle(at(1), Event::Datagram { from: Some(2), data: &q("http://s/miss") }, &OneDoc);
        assert!(matches!(
            sends(&outs)[0].msg,
            IcpMessage::Miss { request_number: 77, .. }
        ));
    }
}
