//! Micro probes: per-call costs of the operations that happen *inside*
//! a layer call the replay spans (the digest inside `UrlKey::reset`,
//! the counting-filter updates inside `Router::handle_into(Stored)`,
//! the registry writes sprinkled through the daemon), timed by calling
//! the same public functions directly on the workload's own URLs and
//! filter geometry.

use crate::workload::{url_into, Phase, Stream, Workload};
use sc_bloom::{BloomFilter, CountingBloomFilter, FilterConfig, UrlKey};
use sc_obs::{Counter, EventKind, Histogram, Journal};
use sc_trace::sampler::Zipf;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Distinct workload URLs the probes cycle through.
const URLS: usize = 2_048;
/// Batches per probe; the reported figure is the median batch.
const BATCHES: usize = 9;

/// Nanoseconds per call of each probed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `sc_md5::md5` of one workload URL.
    pub md5_digest_ns: f64,
    /// `CountingBloomFilter::insert_key_into`.
    pub bloom_insert_ns: f64,
    /// `CountingBloomFilter::remove_key_into`.
    pub bloom_remove_ns: f64,
    /// `BloomFilter::contains_key` (half present, half absent).
    pub bloom_contains_ns: f64,
    /// `Counter::incr`.
    pub obs_counter_ns: f64,
    /// `Histogram::record`.
    pub obs_histogram_ns: f64,
    /// `Journal::record` with a URL-sized detail string.
    pub obs_journal_ns: f64,
    /// One draw from the benchmark's own request stream.
    pub gen_sample_ns: f64,
}

/// Median over [`BATCHES`] of the mean per-call time of `batch`, which
/// makes `calls` calls each time it runs.
fn time(calls: usize, mut batch: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// Run every probe against `workload`'s URLs and summary geometry.
pub fn run(workload: &Workload, zipf: &Arc<Zipf>, seed: u64) -> Probe {
    let mut stream = Stream::new(workload, zipf, seed, 0, Phase::Measured);
    let mut url = String::new();
    let urls: Vec<String> = (0..URLS as u32)
        .map(|doc| {
            url_into(&mut url, 0, doc % workload.docs as u32);
            url.clone()
        })
        .collect();
    let keys: Vec<UrlKey> = urls.iter().map(|u| UrlKey::new(u.as_bytes())).collect();
    // The summary geometry the daemons run: 8 bits per expected
    // document, 4 hash functions (`Mode::summary_cache_default`).
    let config = FilterConfig::with_load_factor(workload.expected_docs as usize, 8, 4);
    let mut counting = CountingBloomFilter::new(config);
    let mut replica = BloomFilter::new(config);
    for key in keys.iter().step_by(2) {
        replica.insert_key(key);
    }
    let mut flips = Vec::new();
    let (counter, histogram, journal) = (Counter::new(), Histogram::new(), Journal::new(1024));

    Probe {
        md5_digest_ns: time(URLS, || {
            for u in &urls {
                black_box(sc_md5::md5(black_box(u.as_bytes())));
            }
        }),
        bloom_insert_ns: time(URLS, || {
            for key in &keys {
                counting.insert_key_into(key, &mut flips);
                black_box(&flips);
            }
        }),
        // Every batch of inserts above is still in the filter; take one
        // batch out per run, so no counter ever underflows.
        bloom_remove_ns: time(URLS, || {
            for key in &keys {
                counting.remove_key_into(key, &mut flips);
                black_box(&flips);
            }
        }),
        bloom_contains_ns: time(URLS, || {
            for key in &keys {
                black_box(replica.contains_key(key));
            }
        }),
        obs_counter_ns: time(URLS, || {
            for _ in 0..URLS {
                counter.incr();
            }
        }),
        obs_histogram_ns: time(URLS, || {
            for i in 0..URLS as u64 {
                histogram.record(black_box(3 + i % 4_000));
            }
        }),
        obs_journal_ns: time(URLS, || {
            for u in &urls {
                journal.record(EventKind::RemoteHit, Some(1), u.as_str());
            }
        }),
        gen_sample_ns: time(URLS, || {
            for _ in 0..URLS {
                black_box(stream.next_req());
            }
        }),
    }
}
