//! # summary-cache
//!
//! A from-scratch Rust reproduction of *Summary Cache: A Scalable
//! Wide-Area Web Cache Sharing Protocol* (Fan, Cao, Almeida, Broder —
//! SIGCOMM 1998 / IEEE ToN June 2000): the protocol that popularized
//! Bloom filters in networked systems and introduced the **counting
//! Bloom filter**.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`bloom`] — Bloom filters, counting Bloom filters, the MD5-derived
//!   hash family, bit-flip records, and the false-positive analysis;
//! * [`md5`] — RFC 1321 MD5, implemented from scratch;
//! * [`cache`] — byte-budget LRU caches with the paper's web policy;
//! * [`trace`] — calibrated synthetic workloads standing in for the
//!   paper's five proprietary traces;
//! * [`core`] — the summary-cache protocol: directory summaries
//!   (exact / server-name / Bloom), update policies, candidate selection,
//!   the wire-cost model and the Section V-F scalability calculator;
//! * [`wire`] — ICPv2 (RFC 2186) plus the paper's `ICP_OP_DIRUPDATE`
//!   extension, and a minimal HTTP/1.x codec;
//! * [`sim`] — trace-driven simulators for Figs. 1–2 and 5–8;
//! * [`proxy`] — a live threaded proxy cluster reproducing the testbed
//!   experiments (Tables II, IV, V), with a per-daemon admin endpoint
//!   (`/metrics`, `/json`, `/events`);
//! * [`obs`] — the std-only metrics registry / event journal every
//!   number above flows through;
//! * [`json`] — the hand-rolled JSON used for results and snapshots;
//! * [`util`] — seeded RNG, property-test harness, bench harness, and
//!   the shared convergence/deadline-polling helper.
//!
//! ## Quick start
//!
//! ```
//! use summary_cache::core::{ProxySummary, SummaryKind, UrlKey};
//!
//! // Each URL is digested once; every summary operation reuses the key.
//! let (a, b) = (UrlKey::new(b"http://example.com/a"), UrlKey::new(b"http://example.com/b"));
//! let server = UrlKey::new(b"example.com");
//!
//! // A proxy summarizes its cache directory as a Bloom filter…
//! let mut mine = ProxySummary::new(SummaryKind::recommended(), 64 << 20);
//! mine.insert_key(&a, &server);
//! assert!(!mine.probe_published_key(&a, &server), "peers see only what is published");
//! mine.publish();
//!
//! // …and peers probe the published summary before querying anyone.
//! assert!(mine.probe_published_key(&a, &server));
//! assert!(!mine.probe_published_key(&b, &server));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the per-table/figure experiment
//! harnesses.

pub use sc_bloom as bloom;
pub use sc_cache as cache;
pub use sc_json as json;
pub use sc_md5 as md5;
pub use sc_obs as obs;
pub use sc_proxy as proxy;
pub use sc_sim as sim;
pub use sc_trace as trace;
pub use sc_util as util;
pub use sc_wire as wire;
pub use summary_cache_core as core;
