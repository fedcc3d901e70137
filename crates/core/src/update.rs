//! When to publish a summary update (Section V-A / V-E).
//!
//! The paper's primary trigger is a *threshold*: publish when the
//! fraction of cached documents not yet reflected in peers' summaries
//! reaches 1–10 %. A time-based trigger, the Section V-A NLANR
//! sub-experiment's raw request-count trigger and the Section VI-B
//! prototype's packet-fill trigger are here too.


/// The update trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdatePolicy {
    /// Publish when `fresh_docs / cached_docs` reaches this fraction.
    /// The paper recommends 0.01–0.10.
    Threshold(f64),
    /// Publish every `n` user requests (the Section V-A "delay being 2
    /// and 10 user requests" sub-experiment).
    EveryRequests(u64),
    /// Publish when `elapsed_ms` since the last publish reaches this.
    EveryMillis(u64),
    /// Publish when at least `n` documents have been cached since the
    /// last publish — the Section VI-B prototype's behaviour of sending
    /// an update "whenever there are enough changes to fill an IP
    /// packet" (≈45 new documents ≈ 360 bit flips ≈ one 1.4 KB packet
    /// at 4 hash functions).
    EveryFreshDocs(u64),
}

impl UpdatePolicy {
    /// The paper's recommended default: a 1 % threshold.
    pub fn recommended() -> Self {
        UpdatePolicy::Threshold(0.01)
    }

    /// The Section VI-B prototype's trigger: enough pending changes to
    /// fill one IP packet.
    pub fn packet_fill() -> Self {
        UpdatePolicy::EveryFreshDocs(45)
    }

    /// The fraction of the current directory not yet reflected in
    /// peers' summaries (`fresh_docs / cached_docs`, clamped to 1) —
    /// the quantity [`UpdatePolicy::Threshold`] compares against, and
    /// the "summary staleness" gauge the proxy exports.
    pub fn staleness(fresh_docs: u64, cached_docs: u64) -> f64 {
        (fresh_docs as f64 / cached_docs.max(1) as f64).min(1.0)
    }

    /// Should the proxy publish now?
    ///
    /// * `fresh_docs` — documents cached since the last publish;
    /// * `cached_docs` — documents currently cached;
    /// * `requests_since` — user requests handled since the last publish;
    /// * `elapsed_ms` — wall-clock (or trace-clock) time since it.
    pub fn should_publish(
        &self,
        fresh_docs: u64,
        cached_docs: u64,
        requests_since: u64,
        elapsed_ms: u64,
    ) -> bool {
        match *self {
            UpdatePolicy::Threshold(t) => {
                fresh_docs > 0 && fresh_docs as f64 >= t * cached_docs.max(1) as f64
            }
            UpdatePolicy::EveryRequests(n) => requests_since >= n,
            UpdatePolicy::EveryMillis(ms) => elapsed_ms >= ms,
            UpdatePolicy::EveryFreshDocs(n) => fresh_docs >= n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_fires_at_fraction() {
        let p = UpdatePolicy::Threshold(0.01);
        assert!(!p.should_publish(0, 10_000, 500, 0), "nothing new, never fire");
        assert!(!p.should_publish(99, 10_000, 0, 0));
        assert!(p.should_publish(100, 10_000, 0, 0));
        // Empty cache: any fresh doc fires (cached_docs floored at 1).
        assert!(p.should_publish(1, 0, 0, 0));
    }

    #[test]
    fn request_count_trigger() {
        let p = UpdatePolicy::EveryRequests(10);
        assert!(!p.should_publish(100, 100, 9, 0));
        assert!(p.should_publish(0, 100, 10, 0));
    }

    #[test]
    fn fresh_docs_trigger() {
        let p = UpdatePolicy::packet_fill();
        assert!(!p.should_publish(44, 10_000, 500, 500));
        assert!(p.should_publish(45, 10_000, 0, 0));
    }

    #[test]
    fn time_trigger() {
        let p = UpdatePolicy::EveryMillis(5 * 60 * 1000);
        assert!(!p.should_publish(0, 0, 0, 299_999));
        assert!(p.should_publish(0, 0, 0, 300_000));
    }

    #[test]
    fn staleness_is_clamped_fraction() {
        assert_eq!(UpdatePolicy::staleness(0, 1000), 0.0);
        assert!((UpdatePolicy::staleness(25, 1000) - 0.025).abs() < 1e-12);
        assert_eq!(UpdatePolicy::staleness(10, 5), 1.0, "clamped");
        assert_eq!(UpdatePolicy::staleness(3, 0), 1.0, "empty cache floored at 1 doc");
    }
}
