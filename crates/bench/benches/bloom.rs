//! Bloom / counting-Bloom operation costs, including the ablations
//! DESIGN.md calls out: probe cost vs hash count k, and counting-filter
//! maintenance vs the plain filter.

use sc_bloom::{BloomFilter, CountingBloomFilter, FilterConfig, UrlKey};
use sc_util::bench::{black_box, Bench};

/// A freshly digested key: each operation's row includes the one MD5
/// digest a request pays for its URL.
fn url(i: u32) -> UrlKey {
    UrlKey::new(format!("http://server-{}.trace.invalid/doc/{}", i / 12, i).as_bytes())
}

fn bench_ops(b: &mut Bench) {
    let cfg = FilterConfig::with_load_factor(100_000, 8, 4);

    {
        let mut f = BloomFilter::new(cfg);
        let mut i = 0u32;
        b.bench("insert", || {
            f.insert_key(black_box(&url(i)));
            i = i.wrapping_add(1);
        });
    }

    {
        let mut f = BloomFilter::new(cfg);
        for i in 0..100_000 {
            f.insert_key(&url(i));
        }
        let mut i = 0u32;
        b.bench("query-hit", || {
            black_box(f.contains_key(black_box(&url(i % 100_000))));
            i = i.wrapping_add(1);
        });
        let mut i = 1_000_000u32;
        b.bench("query-miss", || {
            black_box(f.contains_key(black_box(&url(i))));
            i = i.wrapping_add(1);
        });
    }

    {
        let mut f = CountingBloomFilter::new(cfg);
        let mut flips = Vec::new();
        let mut i = 0u32;
        b.bench("counting/insert+remove", || {
            let u = url(i);
            flips.clear();
            f.insert_key_into(black_box(&u), &mut flips);
            f.remove_key_into(black_box(&u), &mut flips);
            i = i.wrapping_add(1);
        });
    }
}

/// Ablation: probe cost as a function of k at a fixed load factor.
fn bench_k_sweep(b: &mut Bench) {
    for k in [2u16, 4, 6, 8, 12] {
        let cfg = FilterConfig {
            bits: 1 << 20,
            hashes: k,
            function_bits: 32,
        };
        let mut f = BloomFilter::new(cfg);
        for i in 0..50_000 {
            f.insert_key(&url(i));
        }
        let mut i = 0u32;
        b.bench(&format!("probe-vs-k/{k}"), || {
            black_box(f.contains_key(black_box(&url(i))));
            i = i.wrapping_add(1);
        });
    }
}

/// Delta-update encoding: diffing a published baseline against the live
/// bits — the per-publish cost of the protocol.
fn bench_delta(b: &mut Bench) {
    let cfg = FilterConfig::with_load_factor(100_000, 8, 4);
    let mut f = CountingBloomFilter::new(cfg);
    let mut flips = Vec::new();
    for i in 0..100_000 {
        f.insert_key_into(&url(i), &mut flips);
    }
    let baseline = f.bits().clone();
    // 1% churn.
    for i in 0..1_000 {
        f.remove_key_into(&url(i), &mut flips);
        f.insert_key_into(&url(200_000 + i), &mut flips);
    }
    b.bench("delta-diff-1%churn", || {
        black_box(baseline.diff_indices(black_box(f.bits())));
    });
}

/// The paper's MD5 index derivation and the Golomb-coded bitmap
/// transmission (the Section V-D compression alternative).
fn bench_alternatives(b: &mut Bench) {
    let key = b"http://server-123.trace.invalid/doc/456789";

    let md5_spec = sc_bloom::HashSpec::paper_default(4, 1 << 20).unwrap();
    b.bench("hash-family/4-indices/md5", || {
        black_box(md5_spec.indices(black_box(key)));
    });

    // Compression of a realistic published bitmap (fill ~0.22, the k=4
    // load-factor-16 operating point).
    let mut f = BloomFilter::new(FilterConfig::with_load_factor(50_000, 16, 4));
    for i in 0..50_000 {
        f.insert_key(&url(i));
    }
    b.bench("bitmap/golomb-compress", || {
        black_box(sc_bloom::compress(black_box(f.bits())));
    });
    let coded = sc_bloom::compress(f.bits());
    b.bench("bitmap/golomb-decompress", || {
        black_box(sc_bloom::decompress(black_box(&coded)).unwrap());
    });
}

fn main() {
    let mut b = Bench::new("bloom");
    bench_ops(&mut b);
    bench_k_sweep(&mut b);
    bench_delta(&mut b);
    bench_alternatives(&mut b);
}
