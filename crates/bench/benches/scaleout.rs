//! The big-N scaleout benchmark: what peer scaling actually costs on
//! the wire, measured against the paper's Section V-F arithmetic.
//!
//! Three experiments, all deterministic (no timing windows):
//!
//! 1. **GR vs raw DIRFULL** — one full-bitmap restatement of a
//!    load-factor-16 filter at 12.5 % document occupancy, encoded both
//!    ways through the real wire codec. The Golomb–Rice form must cut
//!    the resync cost at least 3x (the fill is ~3 %, so the coded gap
//!    stream is far below the 1 bit/bit of the raw bitmap).
//! 2. **Per-proxy update bytes vs N** — quiet simnet runs at
//!    N ∈ {16, 64, 128} serving one fixed client population (the
//!    paper's deployment: a federation shares its misses, so adding
//!    proxies divides the insert stream). Per-peer lanes fan every
//!    delta out to N−1 peers, so naive per-event restatement predicts
//!    per-proxy bytes growing ≈ 8.5x from 16 to 128; batching flips
//!    into shared datagrams and coalescing publishes per keep-alive
//!    tick must keep the measured growth sub-linear (< 8x).
//! 3. **Reconvergence under faults** — the same Ns through a
//!    crash+partition plan, recording settle windows and resync counts,
//!    next to the Section V-F model's per-request overhead for each N.
//!
//! Run via `scripts/bench.sh`, which sets `SC_BENCH_JSON` to write the
//! tracked `BENCH_scaleout.json` at the repo root.

// A harness: it reads `SC_BENCH_JSON` by design.
#![allow(clippy::disallowed_methods)]

use sc_bloom::{compress, BitVec, HashSpec};
use sc_json::Value;
use sc_proxy::simnet::{Sim, SimConfig, SimReport};
use sc_wire::icp::{DirContent, DirUpdate, IcpMessage};
use summary_cache_core::scalability::{estimate, Deployment};

/// The router's DIRFULL_GR split size (router.rs `GR_SEGMENT_BITS`):
/// bitmaps larger than this restate as several word-aligned segments.
const GR_SEGMENT_BITS: u32 = 200_000;

fn url(i: u32) -> Vec<u8> {
    format!("http://server-{}.trace.invalid/doc/{i}", i / 12).into_bytes()
}

fn encoded_dirfull(bits: u32, content: DirContent) -> usize {
    IcpMessage::DirUpdate {
        request_number: 7,
        sender: 0,
        update: DirUpdate {
            function_num: 4,
            function_bits: 32,
            bit_array_size: bits,
            generation: 1,
            seq: 9,
            content,
        },
    }
    .encode(0)
    .expect("encodable restatement")
    .len()
}

/// Experiment 1: raw vs Golomb–Rice restatement bytes.
fn bench_gr_vs_raw(results: &mut Vec<(String, Value)>) {
    const BITS: u32 = 400_000; // raw bitmap 50 KB: fits one DIRFULL
    const LOAD_FACTOR: u32 = 16;
    let capacity = BITS / LOAD_FACTOR; // documents the filter is sized for
    let docs = capacity / 8; // 12.5 % occupancy
    let spec = HashSpec::paper_default(4, BITS).expect("valid spec");
    let mut bits = BitVec::new(BITS as usize);
    for i in 0..docs {
        for idx in spec.indices(&url(i)) {
            bits.set(idx as usize, true);
        }
    }
    let fill = bits.count_ones() as f64 / BITS as f64;

    let raw = encoded_dirfull(BITS, DirContent::Bitmap(bits.as_words().to_vec()));

    // Split exactly as the router does: word-aligned segments sharing
    // one (generation, seq) stamp, each its own datagram.
    let mut gr = 0usize;
    let mut first_bit = 0u32;
    while first_bit < BITS {
        let seg_bits = GR_SEGMENT_BITS.min(BITS - first_bit);
        let mut segment = BitVec::new(seg_bits as usize);
        for i in 0..seg_bits as usize {
            if bits.get(first_bit as usize + i) {
                segment.set(i, true);
            }
        }
        let coded = compress(&segment);
        gr += encoded_dirfull(
            BITS,
            DirContent::CompressedBitmap {
                first_bit,
                seg_bits,
                ones: coded.ones,
                rice: coded.rice,
                data: coded.data,
            },
        );
        first_bit += seg_bits;
    }

    let ratio = raw as f64 / gr as f64;
    println!(
        "scaleout/gr: raw {raw} B, gr {gr} B, ratio {ratio:.2}x (fill {:.2}%)",
        fill * 100.0
    );
    assert!(
        ratio >= 3.0,
        "GR must cut DIRFULL restatement bytes at least 3x at 12.5% occupancy, got {ratio:.2}x"
    );
    results.push(("gr/raw-dirfull-bytes".into(), Value::UInt(raw as u64)));
    results.push(("gr/gr-dirfull-bytes".into(), Value::UInt(gr as u64)));
    results.push(("gr/ratio".into(), Value::Float(ratio)));
    results.push(("gr/occupancy".into(), Value::Float(0.125)));
    results.push(("gr/bit-fill".into(), Value::Float(fill)));
}

/// A quiet (fault-free) run: the steady-state update-byte curve. The
/// cluster serves a fixed total insert stream (1 920 ops, 120 per proxy
/// at N = 16 down to 15 at N = 128) — the paper's scaling question is
/// what federating the same workload across more proxies costs.
fn quiet_run(n: usize) -> SimReport {
    let cfg = SimConfig {
        proxies: n,
        local_ops: 1_920,
        horizon_ms: 2_000,
        keepalive_ms: 50,
        loss: 0.0,
        duplicate: 0.0,
        delay_us: (200, 2_000),
        crashes: 0,
        partitions: 0,
        fanout_slots: 4,
        ..SimConfig::default()
    };
    let report = Sim::new(cfg, 0x5CA1E + n as u64).run();
    assert!(report.converged, "quiet {n}-proxy run must converge");
    report
}

/// A faulted run: crash + partition, measuring reconvergence.
fn faulted_run(n: usize) -> SimReport {
    let cfg = SimConfig {
        proxies: n,
        local_ops: 640,
        horizon_ms: 600,
        keepalive_ms: 50,
        loss: 0.05,
        duplicate: 0.02,
        delay_us: (200, 20_000),
        crashes: 1,
        partitions: 1,
        fanout_slots: 4,
        ..SimConfig::default()
    };
    let report = Sim::new(cfg, 0xFA17 + n as u64).run();
    assert!(report.converged, "faulted {n}-proxy run must reconverge");
    report
}

/// The Section V-F arithmetic matched to the simulated deployment:
/// threshold-0 policy publishes every insert, so the model's
/// requests-between-updates pins at 1 and its per-request update cost
/// is exactly linear in the peer count — the curve the measured lanes
/// must beat.
fn model_for(n: u32) -> (f64, u64) {
    let docs = 48u64; // SimConfig::default cache_docs
    let e = estimate(Deployment {
        proxies: n,
        cache_bytes: (docs * 8) << 10, // expected_docs() divides by 8 KB
        load_factor: 8,
        hashes: 4,
        threshold: 1.0 / docs as f64,
    });
    (e.update_messages_per_request, e.update_message_bytes)
}

/// Experiments 2 + 3: the measured N-curve next to the model.
fn bench_scaling(results: &mut Vec<(String, Value)>) {
    let mut per_proxy_bytes = Vec::new();
    for n in [16usize, 64, 128] {
        let quiet = quiet_run(n);
        let horizon_s = 2.0;
        let bpp = quiet.update_bytes_sent as f64 / n as f64;
        let bpps = bpp / horizon_s;
        let per_op = quiet.update_bytes_sent as f64 / quiet.events_processed as f64;
        let (model_msgs, model_bytes) = model_for(n as u32);

        let faulted = faulted_run(n);
        let settle = faulted.settle_steps.unwrap_or(usize::MAX) as u64;

        println!(
            "scaleout/n{n}: {bpps:.0} update B/proxy/s, {} datagrams, settle {settle} windows, {} resyncs",
            quiet.update_datagrams_sent, faulted.resyncs_requested
        );
        results.push((format!("n{n}/update-bytes-per-proxy-per-sec"), Value::Float(bpps)));
        results.push((format!("n{n}/update-bytes-per-proxy"), Value::Float(bpp)));
        results.push((format!("n{n}/update-bytes-per-event"), Value::Float(per_op)));
        results.push((
            format!("n{n}/update-datagrams"),
            Value::UInt(quiet.update_datagrams_sent),
        ));
        results.push((
            format!("n{n}/other-bytes"),
            Value::UInt(quiet.other_bytes_sent),
        ));
        results.push((
            format!("n{n}/model-update-messages-per-request"),
            Value::Float(model_msgs),
        ));
        results.push((
            format!("n{n}/model-update-message-bytes"),
            Value::UInt(model_bytes),
        ));
        results.push((format!("n{n}/settle-windows"), Value::UInt(settle)));
        results.push((
            format!("n{n}/resyncs"),
            Value::UInt(faulted.resyncs_requested),
        ));
        results.push((
            format!("n{n}/replicas-installed"),
            Value::UInt(faulted.replicas_installed),
        ));
        per_proxy_bytes.push((n, bpp));
    }

    let (_, b16) = per_proxy_bytes[0];
    let (_, b128) = *per_proxy_bytes.last().expect("ran the 128 row");
    let growth = b128 / b16;
    // 8x the proxies over the same workload: naive per-event
    // restatement (a datagram per insert per peer) predicts per-proxy
    // bytes growing with the lane count, 127/15 ≈ 8.5x; flip batching
    // and per-tick coalescing must hold the measured curve under 8.
    println!("scaleout/growth: per-proxy update bytes 16->128 proxies: {growth:.2}x");
    assert!(
        growth < 8.0,
        "per-proxy update bytes must grow sub-linearly in N, got {growth:.2}x"
    );
    results.push((
        "scaling/per-proxy-bytes-128-over-16".into(),
        Value::Float(growth),
    ));
}

fn main() {
    let mut results: Vec<(String, Value)> = Vec::new();
    bench_gr_vs_raw(&mut results);
    bench_scaling(&mut results);

    // Tracked JSON output: only when the driver asks for it
    // (`scripts/bench.sh` sets SC_BENCH_JSON to the repo-root path), so
    // `cargo test` runs never dirty the tree.
    if let Ok(path) = std::env::var("SC_BENCH_JSON") {
        let doc = Value::Object(vec![
            ("suite".into(), Value::Str("scaleout".into())),
            ("results".into(), Value::Object(results)),
        ]);
        std::fs::write(&path, doc.to_pretty() + "\n").expect("write SC_BENCH_JSON");
        println!("wrote {path}");
    }
}
