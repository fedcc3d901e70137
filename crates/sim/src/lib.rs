#![warn(missing_docs)]

//! Trace-driven simulator for the paper's cache-sharing experiments.
//!
//! Two simulation families:
//!
//! * [`schemes`] — the Section III comparison of cooperation schemes
//!   (no sharing / ICP-style simple sharing / single-copy sharing /
//!   global cache), producing Fig. 1, and the same loops under any
//!   [`sc_cache::Policy`] for Section III's replacement caveat;
//! * [`summary_sim`] — the Section V summary-cache simulation with a
//!   pluggable representation ([`summary_cache_core::SummaryKind`]) and
//!   update policy, producing Fig. 2 and Figs. 5–8 plus the Table III
//!   memory numbers; the same run also evaluates the ICP message model
//!   for the Fig. 7/8 baselines.
//!
//! All simulators honour the paper's Section II methodology: clients are
//! partitioned onto proxies by `clientid mod groups`, caches run LRU
//! (unless a policy sweep asks for another [`sc_cache::Policy`]) with
//! the 250 KB object limit, consistency is perfect (a version
//! change is a stale hit, counted as a miss), and the default cache size
//! is 10 % of the trace's infinite cache size, split evenly across
//! proxies.

pub mod hierarchy;
pub mod keys;
pub mod metrics;
pub mod schemes;
pub mod summary_sim;

pub use hierarchy::{simulate_hierarchy, HierarchyConfig, HierarchyResult};
pub use metrics::{Metrics, Rates};
pub use schemes::{simulate_scheme, simulate_scheme_with_policy, SchemeKind};
pub use summary_sim::{simulate_summary_cache, SummaryCacheConfig, SummarySimResult};

/// The cached-document view of a trace request: its size and version.
fn meta(r: &sc_trace::Request) -> sc_cache::DocMeta {
    sc_cache::DocMeta {
        size: r.size,
        last_modified: r.last_modified,
    }
}
