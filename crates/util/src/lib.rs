#![warn(missing_docs)]

//! Std-only building blocks shared across the workspace.
//!
//! The repo's dependency firewall (see `crates/check`) forbids registry
//! crates, so the usual suspects are reimplemented here at the scale this
//! project needs:
//!
//! * [`rng`] — a seeded xorshift RNG replacing `rand` (every consumer in
//!   this workspace seeds explicitly; there is deliberately *no* ambient
//!   `thread_rng`, so simulations stay replayable);
//! * [`prop`] — a minimal property-test harness replacing `proptest`
//!   (seeded cases, shrink-free, failure messages name the failing seed);
//! * [`bench`](mod@bench) — a minimal wall-clock micro-benchmark
//!   harness replacing `criterion` (used by the `harness = false` bench
//!   targets);
//! * [`poll`] — a shared convergence loop: virtual-clock stepping for
//!   the deterministic simnet, real-clock deadline polling for live
//!   integration tests;
//! * [`fxhash`] — a fast seed-free multiply-xor hasher for internal maps
//!   keyed by trusted values (peer ids, digests), where SipHash's DoS
//!   resistance buys nothing.

pub mod bench;
pub mod fxhash;
pub mod poll;
pub mod prop;
pub mod rng;

pub use rng::Rng;
