#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! A working summary-cache web proxy over `std::net` + threads, plus
//! everything needed to reproduce the paper's live experiments
//! (Tables II, IV, V).
//!
//! The pieces:
//!
//! * [`machine`] — the sans-I/O protocol vocabulary (events, outputs,
//!   effects, virtual time, wire constants, the ICP query round) that
//!   every replication/ICP decision (query answering, replica sequencing,
//!   gap-triggered resync, failure detection, publish fan-out) is
//!   phrased in: a pure function of `(virtual time, event)` — no
//!   sockets, no clocks, no sleeps.
//! * [`router`] — the state that makes those decisions: the proxy's own
//!   Bloom `ProxySummary` and the flip log its publishes feed, one
//!   summary replica per peer, liveness, and request numbering.
//! * [`daemon`] — the proxy itself: an HTTP front end with a
//!   metadata-only document cache, a UDP ICP endpoint feeding the
//!   router, and three peering modes ([`config::Mode`]): no
//!   cooperation, classic ICP (query every neighbour on every miss),
//!   and summary-cache enhanced ICP (probe local Bloom replicas of peer
//!   directories, query only candidates, ship `ICP_OP_DIRUPDATE`
//!   deltas).
//! * [`replica`] — the read path: the router publishes immutable
//!   peer-replica and live-peer snapshots into a cell whose lock covers
//!   only a pointer clone, and request threads choose whom to query
//!   from them (SC mode via the hash-once `UrlKey` probe) without
//!   reaching the protocol thread that owns the router.
//! * [`simnet`] — the deterministic simulation harness: N routers, a
//!   virtual clock, one event priority-queue, and a seeded fault plan
//!   (loss, duplication, reordering, crash+restart, partitions) for
//!   replayable protocol soak tests.
//! * [`origin`] — the origin-server emulator: answers every GET with the
//!   size the URL's headers request, after a configurable artificial
//!   delay (the benchmark's stand-in for Internet latency, Section IV).
//! * [`client`] — the one HTTP client ([`client::ProxyClient`], also
//!   the daemon's peer and origin fetcher) and the one load driver
//!   ([`client::run_plans`]) running the Wisconsin-style synthetic
//!   benchmark (Pareto sizes, temporal locality, adjustable inherent
//!   hit ratio, optional disjoint per-proxy document spaces) and the two
//!   trace-replay modes of Section VII (per-client binding and
//!   round-robin dispatch).
//! * `net` (crate-private) — the socket shell every TCP endpoint
//!   shares: one accept loop and one HTTP head reader.
//! * [`cluster`] — spins up N proxies + an origin in-process on loopback
//!   and runs a driver against them, collecting per-proxy statistics.
//! * [`stats`] — the per-daemon sc-obs registry (counters, per-peer
//!   gauges/histograms, event journal) standing in for the paper's
//!   `netstat` and CPU measurements, including `/proc/self/stat`-based
//!   CPU time.
//! * [`admin`] — a loopback observability endpoint per daemon serving
//!   `/metrics` (Prometheus text), `/json` (registry snapshot) and
//!   `/events` (recent protocol events).
//!
//! Bodies are synthesized (the cache stores metadata, not payloads):
//! the experiments measure protocol traffic, CPU and latency, none of
//! which depend on payload contents — only on their sizes, which are
//! preserved exactly.

// Serves /metrics over a TCP listener.
#[allow(clippy::disallowed_types)]
pub mod admin;
// HTTP client: TCP connects and timing.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod client;
// In-process loopback cluster: sockets and polling.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod cluster;
pub mod config;
// The socket shell: UDP, TCP, timers, real time.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod daemon;
pub mod machine;
// The shared accept loop and HTTP head reader.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod net;
// Origin emulator: TCP listener and artificial delay.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub mod origin;
pub mod replica;
pub mod router;
pub mod scratch;
/// The copy-on-write counter's old path, kept for `benchmark/src/replay.rs`.
pub mod shard { pub use crate::router::cow_copies; }
pub mod simnet;
pub mod stats;

pub use client::{BenchmarkConfig, ReplayMode};
pub use cluster::{Cluster, ClusterConfig, ExperimentReport};
pub use config::{ConfigError, Mode, ProxyConfig, ProxyConfigBuilder};
pub use stats::{CpuTimes, PeerStats, ProxyStats, StatsSnapshot};
