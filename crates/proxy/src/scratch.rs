//! Per-thread reusable request scratch: the zero-alloc request path.
//!
//! A steady-state request (hit, or miss with nothing to publish) needs
//! owned buffers: the request's [`UrlKey`] and the candidate list the
//! replica-snapshot probe fills, plus, for a driver that feeds the
//! router on the request's own thread, the router-output sink for the
//! ledger events. (The daemon queues its directory events to the
//! protocol thread, which owns its own sink.) Allocating them per
//! request put heap round-trips on the hottest path; this module gives
//! every request thread one warm set instead.
//!
//! Ownership rules (what keeps this simple and sound):
//!
//! * the scratch is **thread-local** and handed out only for the
//!   duration of one [`with_scratch`] call — it never escapes, is never
//!   sent across threads, and nothing in a request holds it across
//!   another request;
//! * [`with_scratch`] is **not re-entrant** (the nested borrow would
//!   panic): callees that need scratch state receive `&mut
//!   RequestScratch` as an argument instead of re-entering;
//! * every buffer is reset-on-use by its consumer ([`UrlKey::reset`],
//!   `candidates_key_into`, `handle_into` all clear first), so a stale
//!   read of leftover state is impossible by construction — a fresh
//!   scratch and a warm one behave identically, the warm one just skips
//!   the allocations.
//!
//! `tests/zero_alloc.rs` pins the result with a counting global
//! allocator: a warm steady-state request performs zero heap
//! allocations.

use crate::machine::Output;
use sc_bloom::UrlKey;
use std::cell::RefCell;

/// One thread's reusable request-path buffers.
pub struct RequestScratch {
    /// The request's one URL key, re-digested in place per request
    /// ([`UrlKey::reset`] keeps the byte and memo capacity).
    pub key: UrlKey,
    /// Candidate peers from the replica-snapshot probe
    /// (`candidates_key_into` clears it first).
    pub candidates: Vec<u32>,
    /// Router-output sink for the request's ledger events, for drivers
    /// that call the router on the request thread (`handle_into` clears
    /// it first).
    pub outputs: Vec<Output>,
}

impl RequestScratch {
    /// A cold scratch; every buffer warms up over the first requests
    /// and then holds its high-water capacity.
    pub fn new() -> RequestScratch {
        RequestScratch {
            key: UrlKey::new(b""),
            candidates: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

impl Default for RequestScratch {
    fn default() -> RequestScratch {
        RequestScratch::new()
    }
}

thread_local! {
    static SCRATCH: RefCell<RequestScratch> = RefCell::new(RequestScratch::new());
}

/// Run `f` with this thread's request scratch. Not re-entrant: pass
/// the `&mut RequestScratch` down to callees instead of nesting calls.
pub fn with_scratch<R>(f: impl FnOnce(&mut RequestScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_keep_capacity_across_uses() {
        with_scratch(|s| {
            s.key.reset(b"http://example.com/a");
            s.candidates.clear();
            s.candidates.extend([1, 2, 3]);
        });
        with_scratch(|s| {
            assert!(s.candidates.capacity() >= 3);
            s.key.reset(b"http://example.com/b");
            assert_eq!(s.key.bytes(), b"http://example.com/b");
        });
    }

    #[test]
    fn with_scratch_returns_the_closure_value() {
        assert_eq!(with_scratch(|_| 7u32), 7);
    }
}
