//! The instrument handles: atomic counters, gauges, and log-bucketed
//! histograms.
//!
//! Handles are cheap `Arc` clones around shared atomic storage; the hot
//! path (`incr`/`add`/`set`/`record`) is a single relaxed atomic RMW with
//! no locking. Registration (in [`crate::Registry`]) takes a lock once,
//! after which the handle is used lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buckets per power of two (16 ⇒ ~4.4 % bucket width).
pub const SUBBUCKETS: u64 = 16;
/// Total bucket count: 64 octaves × 16 sub-buckets covers the full u64
/// range of recorded values (the proxy records microseconds and bytes).
pub const BUCKETS: usize = 1024;

/// Bucket index for a value: [`SUBBUCKETS`] linear slices per octave.
pub fn bucket_of(value: u64) -> usize {
    let v = value.max(1);
    let octave = 63 - v.leading_zeros() as u64;
    let base = octave * SUBBUCKETS;
    let within = if octave == 0 {
        0
    } else {
        // Position of v within [2^octave, 2^(octave+1)).
        ((v - (1 << octave)) * SUBBUCKETS) >> octave
    };
    ((base + within) as usize).min(BUCKETS - 1)
}

/// Lower bound of a bucket, for reporting.
pub fn bucket_floor(idx: usize) -> u64 {
    let octave = idx as u64 / SUBBUCKETS;
    let within = idx as u64 % SUBBUCKETS;
    if octave == 0 {
        within + 1
    } else {
        (1 << octave) + ((within << octave) / SUBBUCKETS)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, detached counter (normally obtained from a registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` sample (stored as bits in an
/// `AtomicU64`, so reads and writes stay lock-free).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, detached gauge (normally obtained from a registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the current value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistCore {
    /// Always exactly [`BUCKETS`] long.
    buckets: Box<[AtomicU64]>,
    /// Sum of all recorded values (for Prometheus `_sum` / means).
    sum: AtomicU64,
}

/// A concurrent log-bucketed histogram: 1024 logarithmic buckets
/// (16 per octave, ~4.4 % width) cover the full u64 range, each an
/// `AtomicU64`, safe to hammer from every connection thread.
///
/// The paper reports mean client latency; tail latency is where ICP's
/// query round-trips actually hurt (a miss waits for the slowest
/// neighbour or the timeout), so the cluster records full distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistCore {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, detached histogram (normally obtained from a registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.core.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Freeze the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        HistogramSnapshot {
            counts,
            sum: self.core.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: per-bucket counts (trailing empty buckets
/// trimmed; index `i` covers `[bucket_floor(i), bucket_floor(i+1))`)
/// plus the sum of recorded values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts, trailing zeroes trimmed (so snapshots taken at
    /// different times legitimately have different widths).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

sc_json::json_struct!(HistogramSnapshot { counts, sum });

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The value at percentile `p` (in `[0,1]`), reported as the floor
    /// of the bucket holding it — i.e. within one sub-bucket (~4.4 %)
    /// *below* the true value. Returns 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
        let total = self.samples();
        if total == 0 {
            return 0;
        }
        let target = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return bucket_floor(i);
            }
        }
        bucket_floor(self.counts.len().saturating_sub(1))
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.samples();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Total merge of two snapshots: buckets are summed elementwise and
    /// the shorter snapshot is treated as zero-padded, so **no bucket is
    /// ever dropped** regardless of the two widths. Sums add; the result
    /// width is the longer of the two.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.counts.len().max(other.counts.len());
        let mut counts = Vec::with_capacity(len);
        for i in 0..len {
            let a = self.counts.get(i).copied().unwrap_or(0);
            let b = other.counts.get(i).copied().unwrap_or(0);
            counts.push(a.saturating_add(b));
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.saturating_add(other.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 6, "clones share storage");

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn buckets_are_monotone_and_cover() {
        let mut prev = 0;
        for us in [1u64, 2, 3, 7, 8, 100, 1_000, 65_536, 10_000_000] {
            let b = bucket_of(us);
            assert!(b >= prev, "bucket order at {us}");
            prev = b;
            assert!(bucket_floor(b) <= us, "floor({b}) = {} > {us}", bucket_floor(b));
        }
        assert_eq!(bucket_of(0), bucket_of(1), "zero clamps to the first bucket");
    }

    #[test]
    fn bucket_floor_inverts_across_range() {
        for shift in 0..30 {
            for off in [0u64, 1, 3] {
                let us = (1u64 << shift) + off;
                let b = bucket_of(us);
                assert!(bucket_floor(b) <= us);
                // Below 2^4 several sub-buckets share a floor (the
                // octave is narrower than 16 slots), so the strict
                // "next bucket starts above us" property only holds
                // from octave 4 up.
                if b + 1 < BUCKETS && shift >= 4 {
                    assert!(bucket_floor(b + 1) > us, "next bucket starts past {us}");
                }
            }
        }
    }

    #[test]
    fn histogram_percentiles_of_known_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.samples(), 100);
        assert_eq!(s.sum, 90 * 1_000 + 10 * 1_000_000);
        let p50 = s.percentile(0.5);
        // Bucket floors under-report by up to one sub-bucket (~4.4%).
        assert!((950..=1000).contains(&p50), "p50 {p50} us");
        let p95 = s.percentile(0.95);
        assert!((900_000..1_100_000).contains(&p95), "p95 {p95} us");
        assert!(s.percentile(0.89) < 2_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.samples(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.counts.is_empty(), "all-zero buckets trim away");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_percentile() {
        Histogram::new().snapshot().percentile(1.5);
    }

    /// The reported percentile is always <= the true value and within
    /// one sub-bucket (~10%) below it.
    #[test]
    fn prop_percentile_accuracy() {
        use sc_util::prop::{check, vec_of};
        check("prop_percentile_accuracy", 256, |rng| {
            let mut values = vec_of(rng, 1..300, |r| r.gen_range(1u64..10_000_000));
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let true_p50 = values[(values.len() - 1) / 2];
            let got = h.snapshot().percentile(0.5);
            assert!(got <= true_p50, "floor property: {got} > {true_p50}");
            assert!(
                (got as f64) >= true_p50 as f64 * 0.90,
                "bucket error too large: {got} vs {true_p50}"
            );
        });
    }

    #[test]
    fn merge_is_total_across_widths() {
        let a = Histogram::new();
        a.record(1); // early bucket only -> short snapshot
        let b = Histogram::new();
        b.record(1_000_000); // late bucket -> long snapshot
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert!(sa.counts.len() < sb.counts.len());
        // Both orders keep every sample and the result width is the max.
        for m in [sa.merged(&sb), sb.merged(&sa)] {
            assert_eq!(m.samples(), 2);
            assert_eq!(m.sum, 1 + 1_000_000);
            assert_eq!(m.counts.len(), sb.counts.len());
        }
        let id = sa.merged(&HistogramSnapshot::default());
        assert_eq!(id, sa, "empty snapshot is the merge identity");
    }

    #[test]
    fn snapshot_json_roundtrip() {
        use sc_json::{FromJson, ToJson};
        let h = Histogram::new();
        h.record(5);
        h.record(500);
        let s = h.snapshot();
        let back = HistogramSnapshot::from_json(&s.to_json()).expect("roundtrip");
        assert_eq!(back, s);
    }
}
