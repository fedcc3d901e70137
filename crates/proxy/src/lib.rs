#![warn(missing_docs)]

//! A working summary-cache web proxy over `std::net` + threads, plus
//! everything needed to reproduce the paper's live experiments
//! (Tables II, IV, V).
//!
//! The pieces:
//!
//! * [`machine`] — the sans-I/O protocol vocabulary (events, outputs,
//!   effects, virtual time, wire constants) that every
//!   replication/ICP decision (query answering, replica sequencing,
//!   gap-triggered resync, failure detection, publish fan-out) is
//!   phrased in: a pure function of `(virtual time, event)` — no
//!   sockets, no clocks, no sleeps.
//! * [`router`] — the state that makes those decisions: the proxy's one
//!   counting-Bloom directory and its publish ledger, one summary
//!   replica per peer, liveness, and request numbering.
//! * [`daemon`] — the proxy itself: an HTTP front end with a
//!   metadata-only document cache, a UDP ICP endpoint feeding the
//!   router, and three peering modes ([`config::Mode`]): no
//!   cooperation, classic ICP (query every neighbour on every miss),
//!   and summary-cache enhanced ICP (probe local Bloom replicas of peer
//!   directories, query only candidates, ship `ICP_OP_DIRUPDATE`
//!   deltas).
//! * [`replica`] — the lock-free read path: the router publishes
//!   immutable peer-replica snapshots into an epoch-swapped cell, and
//!   SC-mode candidate selection reads them (via the hash-once
//!   `UrlKey` probe) without ever taking the router lock.
//! * [`simnet`] — the deterministic simulation harness: N routers, a
//!   virtual clock, one event priority-queue, and a seeded fault plan
//!   (loss, duplication, reordering, crash+restart, partitions) for
//!   replayable protocol soak tests.
//! * [`origin`] — the origin-server emulator: answers every GET with the
//!   size the URL's headers request, after a configurable artificial
//!   delay (the benchmark's stand-in for Internet latency, Section IV).
//! * [`client`] — load drivers: the Wisconsin-style synthetic benchmark
//!   (Pareto sizes, temporal locality, adjustable inherent hit ratio,
//!   optional disjoint per-proxy document spaces) and the two
//!   trace-replay modes of Section VII (per-client binding and
//!   round-robin dispatch).
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

pub mod admin;
pub mod client;
pub mod cluster;
pub mod config;
pub mod daemon;
pub mod machine;
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
