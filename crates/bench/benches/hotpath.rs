//! The tracked hot-path benchmark suite: every stage of the hash-once
//! probe pipeline, from the raw MD5 digest to end-to-end simnet request
//! throughput.
//!
//! Run via `scripts/bench.sh`, which sets `SC_BENCH_MS` for a real
//! measurement window and `SC_BENCH_JSON` to write the tracked
//! `BENCH_hotpath.json` at the repo root. Run alone (`cargo bench`) the
//! suite uses a small window and writes no file.

// A timing harness: it reads the wall clock and `SC_BENCH_JSON` by
// design.
#![allow(clippy::disallowed_methods)]

use sc_bloom::{BloomFilter, FilterConfig, Flip};
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_json::Value;
use sc_proxy::machine::{Event, VirtualTime};
use sc_proxy::replica::ReplicaSnapshot;
use sc_proxy::router::Router;
use sc_proxy::simnet::{Sim, SimConfig};
use sc_util::bench::{black_box, Bench};
use sc_wire::icp::{DirContent, DirUpdate, IcpMessage};
use summary_cache_core::{ProxySummary, SummaryKind, UrlKey};
use std::sync::Arc;
use std::time::Instant;

fn url(i: u32) -> Vec<u8> {
    format!("http://server-{}.trace.invalid/doc/{}", i / 12, i).into_bytes()
}

/// `n` peers' Bloom replicas, each holding 200 documents, as the
/// daemon's request threads read them.
fn replicas_of(n: u32) -> ReplicaSnapshot {
    let cfg = FilterConfig::with_load_factor(256, 8, 4);
    let peers = (0..n)
        .map(|id| {
            let mut f = BloomFilter::new(cfg);
            for j in 0..200u32 {
                f.insert_key(&UrlKey::new(&url(id * 1_000 + j)));
            }
            (id, Arc::new(f))
        })
        .collect();
    ReplicaSnapshot::new(peers, (0..n).collect())
}

fn bench_md5(b: &mut Bench, results: &mut Vec<(String, Value)>) {
    let key = url(123_456);
    let ns = b.bench("md5/url-digest", || {
        black_box(sc_md5::md5(black_box(&key)));
    });
    results.push(("md5/url-digest".into(), Value::Float(ns)));
}

fn bench_indices(b: &mut Bench, results: &mut Vec<(String, Value)>) {
    let key = url(123_456);
    let spec = sc_bloom::HashSpec::paper_default(4, 1 << 20).expect("valid spec");

    let ns = b.bench("indices/alloc", || {
        black_box(spec.indices(black_box(&key)));
    });
    results.push(("indices/alloc".into(), Value::Float(ns)));

    let mut buf = Vec::new();
    let ns = b.bench("indices/into", || {
        spec.indices_into(black_box(&key), &mut buf);
        black_box(&buf);
    });
    results.push(("indices/into".into(), Value::Float(ns)));

    let ukey = UrlKey::new(&key);
    let ns = b.bench("indices/urlkey-memoized", || {
        ukey.with_indices(&spec, |idx| {
            black_box(idx);
        });
    });
    results.push(("indices/urlkey-memoized".into(), Value::Float(ns)));
}

fn bench_probe_all(b: &mut Bench, results: &mut Vec<(String, Value)>) {
    for peers in [4u32, 8, 16] {
        let replicas = replicas_of(peers);
        let probe_url = url(3_007); // in peer 3's directory
        let mut candidates = Vec::new();

        // The key path includes key construction each iteration: this is
        // the full per-request cost, hashed once and probed everywhere.
        let ns = b.bench(&format!("probe-all/{peers}-peers/urlkey"), || {
            let uk = UrlKey::new(black_box(&probe_url));
            replicas.candidates_key_into(&uk, &mut candidates);
            black_box(&candidates);
        });
        results.push((format!("probe-all/{peers}-peers/urlkey"), Value::Float(ns)));
    }
}

/// The document store's two request-path operations on `String` keys,
/// as the daemon keys them: `cache/lru-hit` is a fresh hit on one of
/// 1 000 warm 128 B documents, drawn in a seeded random order (the
/// local-hit path); `cache/store-evict` stores a new document into a
/// full cache, evicting exactly one victim (the churn path).
fn bench_cache(b: &mut Bench, results: &mut Vec<(String, Value)>) {
    let doc = DocMeta { size: 128, last_modified: 0 };
    let keys: Vec<String> = (0..2_000u32)
        .map(|i| String::from_utf8(url(i)).expect("ascii url"))
        .collect();
    let mut cache: WebCache<String> = WebCache::new(1_000 * doc.size);
    for k in &keys[..1_000] {
        cache.store(k.clone(), doc);
    }
    let mut rng = sc_util::Rng::seed_from_u64(7);
    let order: Vec<usize> = (0..4_096).map(|_| rng.gen_range(0..1_000usize)).collect();
    let mut i = 0usize;
    let ns = b.bench("cache/lru-hit", || {
        let key = &keys[order[i % order.len()]];
        i += 1;
        assert_eq!(cache.lookup(black_box(key), doc), Lookup::Hit);
    });
    results.push(("cache/lru-hit".into(), Value::Float(ns)));

    // Cycling through 2 000 keys against room for 1 000 means every
    // stored key was evicted 1 000 stores ago: one victim per store.
    let mut i = 1_000usize;
    let ns = b.bench("cache/store-evict", || {
        let key = keys[i % keys.len()].clone();
        i += 1;
        let victims = cache.store(black_box(key), doc).expect("cacheable");
        assert_eq!(victims.len(), 1);
    });
    results.push(("cache/store-evict".into(), Value::Float(ns)));
}

/// Per-stage attribution of the request path: where the non-probe
/// nanoseconds live. Each row isolates one stage against warm state —
/// digest (key construction, fresh vs reused scratch key), probe
/// (candidate selection over an 8-peer snapshot), directory-event (a
/// Stored/Purged pair against the router's directory), delta-publish (a
/// threshold-0 publish servicing every peer lane), and encode (one
/// 320-flip DIRUPDATE datagram). The rows don't sum to
/// `e2e/ns-per-request` — the simnet run adds scheduling and
/// decode — but they rank the targets and pin each one's trajectory.
fn bench_breakdown(b: &mut Bench, results: &mut Vec<(String, Value)>) {
    struct NoDocs;
    impl sc_proxy::machine::DirectoryView for NoDocs {
        fn contains(&self, _url: &str) -> bool {
            false
        }
    }

    let probe_url = url(3_007);

    // digest: what every request pays before it can probe anything.
    let ns = b.bench("e2e/breakdown/digest-fresh", || {
        black_box(UrlKey::new(black_box(&probe_url)));
    });
    results.push(("e2e/breakdown/digest-fresh".into(), Value::Float(ns)));

    let mut scratch_key = UrlKey::new(&probe_url);
    let mut flip = 0u32;
    let ns = b.bench("e2e/breakdown/digest-reuse", || {
        flip ^= 1;
        let u = if flip == 0 { url(3_007) } else { url(3_008) };
        scratch_key.reset(black_box(&u));
        black_box(scratch_key.digest());
    });
    results.push(("e2e/breakdown/digest-reuse".into(), Value::Float(ns)));

    // probe: candidate selection against a published 8-peer snapshot
    // (the lock-free read path the daemon takes on every SC request).
    let fcfg = FilterConfig { bits: 1 << 14, hashes: 4, function_bits: 32 };
    let snapshot = ReplicaSnapshot::new(
        (0..8u32)
            .map(|p| {
                let mut f = BloomFilter::new(fcfg);
                for j in 0..200u32 {
                    f.insert_key(&UrlKey::new(&url(p * 1_000 + j)));
                }
                (p, Arc::new(f))
            })
            .collect(),
        (0..8u32).collect(),
    );
    let ukey = UrlKey::new(&probe_url);
    let mut candidates = Vec::new();
    let ns = b.bench("e2e/breakdown/probe", || {
        snapshot.candidates_key_into(black_box(&ukey), &mut candidates);
        black_box(&candidates);
    });
    results.push(("e2e/breakdown/probe".into(), Value::Float(ns)));

    // directory-event: a Stored/Purged pair against the router's
    // counting-Bloom directory (no publish — the policy never fires).
    let mk_router = |policy| {
        let mut summary = ProxySummary::with_expected_docs(SummaryKind::recommended(), 256);
        summary.set_generation(1);
        summary.publish();
        Router::new(7, (0..8u32).collect(), 50, 1, 1, Some((summary, policy)), VirtualTime::ZERO)
    };
    let mut router = mk_router(summary_cache_core::UpdatePolicy::EveryRequests(u64::MAX));
    let keys: Vec<UrlKey> = (0..256u32).map(|i| UrlKey::new(&url(i))).collect();
    let mut i = 0usize;
    let mut sink = Vec::new();
    let ns = b.bench("e2e/breakdown/directory-event", || {
        let key = &keys[i % keys.len()];
        i += 1;
        router.handle_into(VirtualTime::ZERO, Event::Stored { url: key, evicted: &[] }, &NoDocs, &mut sink);
        router.handle_into(VirtualTime::ZERO, Event::Purged { url: key }, &NoDocs, &mut sink);
        black_box(&sink);
        sink.clear();
    });
    results.push(("e2e/breakdown/directory-event".into(), Value::Float(ns / 2.0)));

    // delta-publish: a threshold-0 ledger publishes on every completed
    // request, servicing all 8 peer lanes immediately (keepalive 0 =
    // tickless flush). Cost per publish, flips included.
    let mut router = mk_router(summary_cache_core::UpdatePolicy::Threshold(0.0));
    let mut i = 0usize;
    let ns = b.bench("e2e/breakdown/delta-publish", || {
        let key = &keys[i % keys.len()];
        let stale = &keys[(i + 128) % keys.len()];
        i += 1;
        router.handle_into(
            VirtualTime::ZERO,
            Event::Stored { url: key, evicted: std::slice::from_ref(stale) },
            &NoDocs,
            &mut sink,
        );
        router.handle_into(VirtualTime::ZERO, Event::RequestDone, &NoDocs, &mut sink);
        black_box(&sink);
        sink.clear();
    });
    results.push(("e2e/breakdown/delta-publish".into(), Value::Float(ns)));

    // encode: one packet-sized (320-flip) DIRUPDATE datagram.
    let flips: Vec<Flip> = (0..320u32).map(|i| Flip::set(i * 7 % 4096)).collect();
    let msg = IcpMessage::DirUpdate {
        request_number: 1,
        sender: 7,
        update: DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: 4096,
            generation: 1,
            seq: 9,
            content: DirContent::Flips(flips),
        },
    };
    let mut wire = Vec::new();
    let ns = b.bench("e2e/breakdown/encode", || {
        msg.encode_into(black_box(7), &mut wire).expect("encodes");
        black_box(&wire);
    });
    results.push(("e2e/breakdown/encode".into(), Value::Float(ns)));
}

/// End-to-end: a quiet (fault-free) deterministic simnet run, reported
/// as ns per client request. Exercises the whole stack — machine event
/// handling, hash-once summary maintenance, candidate probes, delta
/// publish fan-out, wire encode/decode.
fn bench_simnet(results: &mut Vec<(String, Value)>) {
    let cfg = SimConfig {
        proxies: 4,
        local_ops: 200,
        horizon_ms: 500,
        keepalive_ms: 50,
        loss: 0.0,
        duplicate: 0.0,
        delay_us: (200, 2_000),
        crashes: 0,
        partitions: 0,
        ..SimConfig::default()
    };
    let local_ops = cfg.local_ops as u64;
    // Fastest single run in the window: each run is ~1.5 ms of pure
    // compute, so one scheduler-quiet run measures the true cost,
    // while a whole-window mean absorbs every preemption on a shared
    // box. The tracked row gates CI, so it must be the stable
    // estimator.
    let budget = u128::from(sc_util::bench::window_ms().max(4));
    let started = Instant::now();
    let mut seed = 1u64;
    let mut best = f64::INFINITY;
    let mut runs = 0u64;
    while started.elapsed().as_millis() < budget || runs < 3 {
        let t = Instant::now();
        let report = Sim::new(cfg.clone(), seed).run();
        let ns = t.elapsed().as_nanos() as f64;
        assert!(report.converged, "quiet simnet must converge");
        black_box(report.events_processed);
        seed = seed.wrapping_add(1);
        best = best.min(ns);
        runs += 1;
    }
    let ns_per_run = best;
    println!("hotpath/e2e/simnet-run: fastest of {runs} runs: {ns_per_run:.0} ns");
    let ns_per_request = ns_per_run / local_ops as f64;
    println!(
        "hotpath/e2e/simnet ns-per-request: {ns_per_request:.0} ({local_ops} requests/run)"
    );
    results.push(("e2e/simnet-run".into(), Value::Float(ns_per_run)));
    results.push(("e2e/ns-per-request".into(), Value::Float(ns_per_request)));
}

fn main() {
    let mut b = Bench::new("hotpath");
    let mut results: Vec<(String, Value)> = Vec::new();
    bench_md5(&mut b, &mut results);
    bench_indices(&mut b, &mut results);
    bench_probe_all(&mut b, &mut results);
    bench_cache(&mut b, &mut results);
    bench_breakdown(&mut b, &mut results);
    bench_simnet(&mut results);

    // Tracked JSON output: only when the driver asks for it
    // (`scripts/bench.sh` sets SC_BENCH_JSON to the repo-root path), so
    // `cargo test` runs never dirty the tree.
    if let Ok(path) = std::env::var("SC_BENCH_JSON") {
        let doc = Value::Object(vec![
            ("suite".into(), Value::Str("hotpath".into())),
            ("unit".into(), Value::Str("ns/op".into())),
            (
                "window_ms".into(),
                Value::UInt(sc_util::bench::window_ms()),
            ),
            ("results".into(), Value::Object(results)),
        ]);
        std::fs::write(&path, doc.to_pretty() + "\n").expect("write SC_BENCH_JSON");
        println!("wrote {path}");
    }
}
