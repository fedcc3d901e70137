#![warn(missing_docs)]

//! `sc-obs` — the workspace's std-only observability layer.
//!
//! The paper's whole evaluation is measurement (Table II's ICP overhead,
//! Tables IV–V and Figs. 5–8's messages/bytes/CPU/hit-ratio columns), so
//! the daemon reports through one substrate instead of ad-hoc tallies:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s, each `(name, labels)` series registered once and
//!   lock-free on the hot path;
//! * [`Journal`] — a bounded ring buffer of structured protocol
//!   [`Event`]s (query sent, false hit, delta published, ...);
//! * [`Snapshot`] — a frozen registry view with a Prometheus-style text
//!   renderer ([`Snapshot::render_prometheus`]) and `sc-json`
//!   serialization for the proxy's admin endpoint and the bench
//!   binaries' results files.
//!
//! Metric names follow the Prometheus convention: `sc_` prefix,
//! `_total` suffix on counters, unit suffix on histograms (`_us`,
//! `_bytes`). Per-peer series reuse one name with a `peer` label.
//! The daemon's stats are the only registrar, and a second registration
//! of a series panics. The simulators need no registry: they count into
//! their own report structs, and a [`Histogram`] works standalone.

mod instrument;
mod journal;
mod registry;

pub use instrument::{
    bucket_floor, bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS, SUBBUCKETS,
};
pub use journal::{Event, EventKind, Journal};
pub use registry::{InstrumentSnapshot, Observation, Registry, Snapshot};
