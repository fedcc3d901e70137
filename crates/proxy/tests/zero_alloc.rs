//! Counting-allocator pins for the sub-microsecond request path.
//!
//! Two properties the hot path must keep:
//!
//! * a **warm steady-state request** on the thread's `RequestScratch`
//!   (key reset, replica-snapshot probe, stale purge, store with or
//!   without an evicted victim, request-done, flush with nothing
//!   pending) performs **zero heap allocations**, whatever shard count
//!   the caller passes to `Router::new` (the router keeps one directory
//!   and ignores it; 1 and 8 are pinned);
//! * a batch of N delta datagrams applied while a reader holds the
//!   previous replica snapshot costs **exactly one** copy-on-write of
//!   the touched filter — the `Arc::make_mut` deep copy happens on the
//!   first flip datagram and every later one in the batch mutates the
//!   now-unshared filter in place.
//!
//! The allocator counter is thread-local so the two tests (and the
//! harness's own threads) never pollute each other's counts.

use sc_bloom::UrlKey;
use sc_proxy::machine::{DirectoryView, Event, VirtualTime};
use sc_proxy::router::{cow_copies, Router};
use sc_proxy::scratch::with_scratch;
use sc_bloom::Flip;
use sc_wire::icp::{DirContent, DirUpdate, IcpMessage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use summary_cache_core::{ProxySummary, SummaryKind, UpdatePolicy};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may already be torn down during thread exit.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

struct NoDocs;
impl DirectoryView for NoDocs {
    fn contains(&self, _url: &str) -> bool {
        false
    }
}

fn at(ms: u64) -> VirtualTime {
    VirtualTime::from_micros(ms * 1000)
}

/// An SC-mode router whose publish policy never fires, so the steady
/// stream is pure directory mutation with nothing to send.
fn quiet_router(shards: usize) -> Router {
    let kind = SummaryKind::Bloom { load_factor: 8, hashes: 4 };
    let mut summary = ProxySummary::with_expected_docs(kind, 4096);
    summary.set_generation(7);
    Router::new(
        1,
        vec![2, 3],
        50,
        shards,
        1,
        Some((summary, UpdatePolicy::EveryRequests(u64::MAX))),
        VirtualTime::ZERO,
    )
}

/// Install a full-bitmap replica for `peer` so the candidate probe has
/// real filters to test against.
fn install_replica(r: &mut Router, peer: u32) {
    let dg = IcpMessage::DirUpdate {
        request_number: 1,
        sender: peer,
        update: DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 512,
            generation: 100 + peer,
            seq: 0,
            content: DirContent::Bitmap(vec![0x5555_5555_5555_5555; 8]),
        },
    }
    .encode(peer)
    .expect("encodes");
    r.handle(at(1), Event::Datagram { from: Some(peer), data: &dg }, &NoDocs);
}

/// One request's directory traffic: the URL it stores, the victim the
/// store evicts (if any), and whether a stale local copy was purged first.
struct Step {
    url: String,
    victim: Option<String>,
    stale: bool,
}

/// One steady-state request exactly as the daemon drives it, on the
/// thread's warm `RequestScratch`: reset the key, probe the
/// replica snapshot, purge a stale copy, store the document (evicting
/// one victim on some requests), account the request, flush (a no-op
/// when nothing changed replicas). `victim` is a warm key reset per
/// eviction, so the directory remove re-derives into retained buffers.
fn one_request(r: &mut Router, step: &Step, victim: &mut UrlKey) {
    with_scratch(|s| {
        s.key.reset(step.url.as_bytes());
        r.replica_cell().load().candidates_key_into(&s.key, &mut s.candidates);
        if step.stale {
            r.handle_into(at(2), Event::Purged { url: &s.key }, &NoDocs, &mut s.outputs);
            assert!(s.outputs.is_empty(), "purge emits nothing: {:?}", s.outputs);
        }
        let evicted = match &step.victim {
            Some(v) => {
                victim.reset(v.as_bytes());
                std::slice::from_ref(&*victim)
            }
            None => &[],
        };
        r.handle_into(at(2), Event::Stored { url: &s.key, evicted }, &NoDocs, &mut s.outputs);
        assert!(s.outputs.is_empty(), "steady store emits nothing: {:?}", s.outputs);
        r.handle_into(at(2), Event::RequestDone, &NoDocs, &mut s.outputs);
        assert!(s.outputs.is_empty(), "quiet policy never publishes: {:?}", s.outputs);
        r.flush_replicas();
    });
}

fn steady_state_allocs(shards: usize) -> u64 {
    let mut r = quiet_router(shards);
    install_replica(&mut r, 2);
    install_replica(&mut r, 3);

    let url = |i: usize| format!("http://server-{}.trace.invalid/doc/{i}", i % 7);
    // Every even request from 50 on evicts the document stored 50
    // requests earlier; every tenth re-fetches the previous document
    // after purging its stale copy.
    let steps: Vec<Step> = (0..400)
        .map(|i| {
            let stale = i % 10 == 5;
            Step {
                url: url(if stale { i - 1 } else { i }),
                victim: (i >= 50 && i % 2 == 0).then(|| url(i - 50)),
                stale,
            }
        })
        .collect();
    let mut victim = UrlKey::new(b"");

    // Warm every buffer: the scratch key's byte/memo capacity, the
    // candidate vec, the snapshot cache, the directory's flip scratch,
    // the victim key.
    for step in &steps[..350] {
        one_request(&mut r, step, &mut victim);
    }

    let before = allocs();
    for step in &steps[350..] {
        one_request(&mut r, step, &mut victim);
    }
    allocs() - before
}

#[test]
fn steady_state_request_is_allocation_free_at_one_shard() {
    assert_eq!(steady_state_allocs(1), 0, "warm request path must not allocate");
}

#[test]
fn steady_state_request_is_allocation_free_at_eight_shards() {
    assert_eq!(steady_state_allocs(8), 0, "warm request path must not allocate");
}

/// A batch of N flip datagrams against a snapshot-held replica costs
/// exactly one copy-on-write: the first `Arc::make_mut` unshares the
/// filter, the rest of the batch mutates it in place. (The eager
/// per-datagram publish this PR removed re-`Arc`'d the filter after
/// every datagram, making every datagram pay the deep copy.)
#[test]
fn delta_batch_costs_exactly_one_cow_copy() {
    let mut r = quiet_router(1);
    install_replica(&mut r, 2);
    r.flush_replicas();

    // A reader holds the published snapshot across the whole batch, as
    // the daemon's request threads do.
    let snapshot = r.replica_cell().load();
    assert_eq!(snapshot.peers().len(), 1, "peer 2's replica is published");

    let before = cow_copies();
    let mut outputs = Vec::new();
    for seq in 1..=10u32 {
        let dg = IcpMessage::DirUpdate {
            request_number: seq,
            sender: 2,
            update: DirUpdate {
                function_num: 4,
                function_bits: 32,
                bit_array_size: 512,
                generation: 102,
                seq,
                content: DirContent::Flips(vec![
                    Flip::clear(2 * seq),
                    Flip::set(2 * seq + 1),
                ]),
            },
        }
        .encode(2)
        .expect("encodes");
        // Batched apply: no flush between datagrams.
        r.handle_into(at(3), Event::Datagram { from: Some(2), data: &dg }, &NoDocs, &mut outputs);
    }
    r.flush_replicas();

    assert_eq!(
        cow_copies() - before,
        1,
        "10 deltas in one batch share a single copy-on-write"
    );
    drop(snapshot);
}
