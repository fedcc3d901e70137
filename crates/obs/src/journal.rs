//! A bounded ring-buffer journal of structured trace events.
//!
//! The daemon appends one [`Event`] per interesting protocol moment
//! (query fan-out, false hit, delta published, peer summary installed,
//! peer failure) and the admin endpoint serves the most recent ones as
//! JSON — enough to reconstruct *why* a counter moved without logging
//! every request.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use sc_json::{ToJson, Value};

/// What happened. Mirrors the paper's protocol moments: Section IV-V
/// (false hits / stale summaries) and Section VI (delta and bitmap
/// updates, recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An ICP query was fanned out to summary candidates.
    QuerySent,
    /// Every queried candidate missed — the summary lied (§V).
    FalseHit,
    /// A queried candidate served the document.
    RemoteHit,
    /// A candidate had only a stale copy.
    RemoteStaleHit,
    /// A delta (bit-flip) update was published to peers (§VI-A).
    DeltaPublished,
    /// A full-bitmap update was published (bootstrap / recovery).
    FullBitmapPublished,
    /// A peer's summary was installed or replaced.
    PeerSummaryInstalled,
    /// A peer's summary went stale (spec change forced a reset wait).
    PeerSummaryStale,
    /// A peer stopped answering keep-alives.
    PeerFailed,
    /// A failed peer came back.
    PeerRecovered,
    /// A lost or reordered update datagram was detected (seq gap or
    /// generation change); the replica was discarded pending resync.
    UpdateGap,
    /// A DIRREQ was sent asking a peer for its full bitmap.
    ResyncRequested,
    /// A peer replica was rebuilt from a received full bitmap.
    ReplicaResynced,
}

impl EventKind {
    /// Stable lowercase label used in JSON and logs.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::QuerySent => "query_sent",
            EventKind::FalseHit => "false_hit",
            EventKind::RemoteHit => "remote_hit",
            EventKind::RemoteStaleHit => "remote_stale_hit",
            EventKind::DeltaPublished => "delta_published",
            EventKind::FullBitmapPublished => "full_bitmap_published",
            EventKind::PeerSummaryInstalled => "peer_summary_installed",
            EventKind::PeerSummaryStale => "peer_summary_stale",
            EventKind::PeerFailed => "peer_failed",
            EventKind::PeerRecovered => "peer_recovered",
            EventKind::UpdateGap => "update_gap",
            EventKind::ResyncRequested => "resync_requested",
            EventKind::ReplicaResynced => "replica_resynced",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (counts every event ever recorded,
    /// including ones the ring has since dropped).
    pub seq: u64,
    /// Milliseconds since the journal was created.
    pub at_ms: u64,
    /// What happened.
    pub kind: EventKind,
    /// The peer involved, when the event concerns one.
    pub peer: Option<u32>,
    /// Free-form detail (URL, byte counts, ...). May be empty.
    pub detail: String,
}

impl ToJson for Event {
    fn to_json(&self) -> Value {
        sc_json::obj! {
            "seq" => self.seq,
            "at_ms" => self.at_ms,
            "kind" => self.kind.label(),
            "peer" => match self.peer {
                Some(p) => Value::UInt(p as u64),
                None => Value::Null,
            },
            "detail" => self.detail
        }
    }
}

#[derive(Debug)]
struct State {
    next_seq: u64,
    events: VecDeque<Event>,
}

/// A bounded ring buffer of [`Event`]s: recording is O(1), the oldest
/// event is dropped once `capacity` is reached.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(1024)
    }
}

impl Journal {
    /// A journal keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Journal {
        Journal {
            capacity: capacity.max(1),
            origin: Instant::now(),
            state: Mutex::new(State {
                next_seq: 0,
                events: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append an event, evicting the oldest once full.
    pub fn record(&self, kind: EventKind, peer: Option<u32>, detail: impl Into<String>) {
        let at_ms = self.origin.elapsed().as_millis() as u64;
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.events.len() == self.capacity {
            st.events.pop_front();
        }
        st.events.push_back(Event {
            seq,
            at_ms,
            kind,
            peer,
            detail: detail.into(),
        });
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let st = self.lock();
        let skip = st.events.len().saturating_sub(n);
        st.events.iter().skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let j = Journal::new(8);
        j.record(EventKind::QuerySent, Some(1), "http://a/");
        j.record(EventKind::FalseHit, Some(1), "");
        let evs = j.recent(10);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[1].kind, EventKind::FalseHit);
    }

    #[test]
    fn ring_drops_oldest() {
        let j = Journal::new(3);
        for i in 0..5 {
            j.record(EventKind::DeltaPublished, None, format!("pub {i}"));
        }
        let evs = j.recent(10);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 2, "oldest two dropped");
        assert_eq!(j.recent(1).len(), 1);
        assert_eq!(j.recent(1)[0].seq, 4, "recent(n) returns the newest n");
    }

    #[test]
    fn event_json_shape() {
        let j = Journal::new(2);
        j.record(EventKind::PeerFailed, Some(7), "3 missed keepalives");
        let v = j.recent(1)[0].to_json();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("peer_failed"));
        assert_eq!(v.get("peer").and_then(|p| p.as_u64()), Some(7));
        let j2 = Journal::new(2);
        j2.record(EventKind::QuerySent, None, "");
        assert_eq!(j2.recent(1)[0].to_json().get("peer"), Some(&Value::Null));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::PeerSummaryStale.label(), "peer_summary_stale");
        assert_eq!(EventKind::FullBitmapPublished.label(), "full_bitmap_published");
    }
}
