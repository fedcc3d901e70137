//! The acceptance bar for the read-path split: SC-mode candidate
//! selection must perform **no** acquisition of the mutex guarding the
//! protocol machine (the [`Router`]).
//!
//! Strategy: install peer replicas through the router, then hold the
//! router's mutex on the test thread while a reader thread resolves
//! candidates through the [`ReplicaCell`]. If the read path ever locked
//! the router, the reader would deadlock and the channel receive below
//! would time out.
//!
//! [`ReplicaCell`]: sc_proxy::replica::ReplicaCell

use sc_proxy::machine::{DirectoryView, Event, VirtualTime};
use sc_proxy::replica::ReplicaSnapshot;
use sc_proxy::router::Router;
use sc_wire::icp::{DirContent, DirUpdate, IcpMessage};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use summary_cache_core::UrlKey;

struct NoDocs;
impl DirectoryView for NoDocs {
    fn contains(&self, _url: &str) -> bool {
        false
    }
}

/// A bitmap DIRUPDATE from `peer` advertising exactly `urls`.
fn bitmap_from(peer: u32, generation: u32, urls: &[&[u8]]) -> Vec<u8> {
    let mut f = sc_bloom::BloomFilter::new(sc_bloom::FilterConfig::with_load_factor(64, 8, 4));
    for u in urls {
        f.insert_key(&UrlKey::new(u));
    }
    let spec = f.spec();
    IcpMessage::DirUpdate {
        request_number: 1,
        sender: peer,
        update: DirUpdate {
            function_num: spec.k(),
            function_bits: spec.function_bits(),
            bit_array_size: spec.table_bits(),
            generation,
            seq: 0,
            content: DirContent::Bitmap(f.bits().as_words().to_vec()),
        },
    }
    .encode(peer)
    .expect("bitmap update encodes")
}

/// One fanout slot, ICP mode.
fn machine(peers: Vec<u32>) -> Router {
    Router::new(1, peers, 0, 1, 1, None, VirtualTime::ZERO)
}

fn advertisers(snap: &ReplicaSnapshot, url: &[u8]) -> Vec<u32> {
    let mut out = Vec::new();
    snap.candidates_key_into(&UrlKey::new(url), &mut out);
    out
}

fn feed(machine: &mut Router, peer: u32, data: &[u8]) {
    machine.handle(
        VirtualTime::from_micros(1),
        Event::Datagram {
            from: Some(peer),
            data,
        },
        &NoDocs,
    );
}

#[test]
fn candidate_selection_completes_while_machine_lock_is_held() {
    let mut machine = machine(vec![2, 3]);
    feed(&mut machine, 2, &bitmap_from(2, 7, &[b"http://a/x"]));
    feed(&mut machine, 3, &bitmap_from(3, 9, &[b"http://a/x", b"http://b/y"]));
    let cell = machine.replica_cell();

    let machine = Mutex::new(machine);
    let guard = machine.lock().expect("test thread takes the machine lock");

    let (tx, rx) = mpsc::channel();
    let reader_cell = Arc::clone(&cell);
    std::thread::spawn(move || {
        let _ = tx.send(advertisers(&reader_cell.load(), b"http://a/x"));
    });
    let got = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("candidate read must not block on the machine lock");
    assert_eq!(got, vec![2, 3], "both replicas advertise the URL");
    drop(guard);
}

#[test]
fn snapshot_tracks_machine_replica_mutations() {
    let mut machine = machine(vec![2]);
    let cell = machine.replica_cell();
    assert_eq!(cell.load().peers().len(), 0, "empty before any bitmap");

    feed(&mut machine, 2, &bitmap_from(2, 7, &[b"http://a/x"]));
    let snap = cell.load();
    assert_eq!(snap.peers().len(), 1);
    assert_eq!(advertisers(&snap, b"http://a/x"), vec![2]);

    // A delta with a gapped seq discards the replica; the snapshot must
    // follow (probes treat the peer as empty until resync).
    let gapped = IcpMessage::DirUpdate {
        request_number: 2,
        sender: 2,
        update: DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 4096,
            generation: 7,
            seq: 40,
            content: DirContent::Flips(Vec::new()),
        },
    }
    .encode(2)
    .expect("delta encodes");
    feed(&mut machine, 2, &gapped);
    assert_eq!(cell.load().peers().len(), 0, "gap discard reaches readers");
}

#[test]
fn old_snapshots_stay_valid_across_reinstalls() {
    let mut machine = machine(vec![2]);
    let cell = machine.replica_cell();
    feed(&mut machine, 2, &bitmap_from(2, 7, &[b"http://a/x"]));
    let old = cell.load();

    feed(&mut machine, 2, &bitmap_from(2, 8, &[b"http://b/y"]));
    // The retained snapshot is immutable: it still answers from the
    // old bitmap, while fresh loads see the new one.
    assert_eq!(advertisers(&old, b"http://a/x"), vec![2]);
    assert_eq!(advertisers(&cell.load(), b"http://a/x"), Vec::<u32>::new());
    assert_eq!(advertisers(&cell.load(), b"http://b/y"), vec![2]);
}
