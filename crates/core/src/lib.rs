#![warn(missing_docs)]

//! The **summary cache** protocol core (Fan, Cao, Almeida, Broder,
//! SIGCOMM '98): compact, lazily updated summaries of peer cache
//! directories, probed before any inter-proxy query is sent.
//!
//! Each proxy — in the trace simulators, the simnet and the daemon
//! alike — owns a [`ProxySummary`] that tracks its local cache
//! directory under one of the paper's three representations
//! ([`SummaryKind`]):
//!
//! * **exact-directory** — the MD5 signature of every cached URL
//!   (16 bytes per document);
//! * **server-name** — just the server component of cached URLs (≈10×
//!   smaller, many false hits);
//! * **Bloom** — a counting Bloom filter sized at a configurable *load
//!   factor* (bits per document), the representation the paper
//!   recommends.
//!
//! Summaries are **not** kept fresh: a proxy publishes its pending
//! changes only when the fraction of documents not yet reflected
//! crosses an [`UpdatePolicy`] threshold (Section V-A);
//! [`ProxySummary::request_done`] makes that decision. On a local miss
//! a proxy probes each peer's *published* summary with
//! [`ProxySummary::probe_published_key`] and queries only the peers
//! that answer yes; the tolerated errors are *false hits* (wasted
//! query) and *false misses* (lost remote hit), never incorrect
//! documents.
//!
//! [`wire_cost`] carries the paper's Section V-D message-size model and
//! [`scalability`] the Section V-F extrapolation; both feed the
//! experiment harnesses.

pub mod representation;
pub mod scalability;
pub mod summary;
pub mod update;
pub mod wire_cost;

pub use representation::SummaryKind;
pub use summary::{ProxySummary, PublishOutcome};
pub use update::UpdatePolicy;

// Re-exported so consumers of the hash-once probe pipeline (daemon,
// simulators) need not depend on sc-bloom directly.
pub use sc_bloom::UrlKey;

/// The paper's working assumption for sizing Bloom summaries: "The
/// average number of documents is calculated by dividing the cache size
/// by 8 K (the average document size)" (Section V-D).
pub const AVG_DOC_BYTES: u64 = 8 * 1024;

/// Expected number of cached documents for a cache of `cache_bytes`.
pub fn expected_docs(cache_bytes: u64) -> u64 {
    (cache_bytes / AVG_DOC_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_docs_matches_section_vd() {
        // 8 GB cache ⇒ about 1M pages (the Section V-F example).
        assert_eq!(expected_docs(8 << 30), 1 << 20);
        assert_eq!(expected_docs(0), 1, "never zero");
        assert_eq!(expected_docs(8 * 1024), 1);
    }
}
