//! Sizing a summary for a deployment: the Section V-F arithmetic as a
//! planning tool, plus an empirical check of the false-positive math
//! against a real filter.
//!
//! Run with: `cargo run --release --example bloom_tuning`

use summary_cache::bloom::{analysis, BloomFilter, FilterConfig, UrlKey};
use summary_cache::core::scalability::{estimate, Deployment};

fn main() {
    // Plan: 16 proxies with 8 GB caches — what does each load factor
    // cost, and what does it buy?
    println!("deployment: 16 proxies x 8 GB cache, 1% update threshold\n");
    println!(
        "{:>11} {:>8} {:>14} {:>16} {:>14}",
        "load factor", "k_opt", "p(false pos)", "summary memory", "peer mem/proxy"
    );
    for lf in [4u32, 8, 16, 32] {
        let k = analysis::optimal_k(lf as f64);
        let e = estimate(Deployment {
            proxies: 16,
            cache_bytes: 8 << 30,
            load_factor: lf,
            hashes: k,
            threshold: 0.01,
        });
        println!(
            "{:>11} {:>8} {:>13.4}% {:>13} KiB {:>13} MB",
            lf,
            k,
            e.false_positive_per_summary * 100.0,
            e.summary_bytes >> 10,
            e.peer_memory_bytes >> 20,
        );
    }

    // Check the math against an actual filter: insert 100k keys at load
    // factor 8 / k=4 and measure the observed false-positive rate.
    let n = 100_000u32;
    let cfg = FilterConfig::with_load_factor(n as usize, 8, 4);
    let key = |host: &str, i: u32| {
        UrlKey::new(format!("http://{host}{}.example/{i}", i % 997).as_bytes())
    };
    let mut f = BloomFilter::new(cfg);
    for i in 0..n {
        f.insert_key(&key("s", i));
    }
    let probes = 200_000u32;
    let fp = (0..probes).filter(|&i| f.contains_key(&key("t", i))).count();
    println!(
        "\nempirical check at load factor 8, k=4: predicted {:.3}%, filter model {:.3}%, observed {:.3}%",
        analysis::false_positive_probability_asymptotic(8.0, 4) * 100.0,
        f.false_positive_rate() * 100.0,
        fp as f64 / probes as f64 * 100.0,
    );
    println!(
        "filter: {} bits, fill ratio {:.3}, {} bytes shipped per full update",
        cfg.bits,
        f.fill_ratio(),
        f.byte_len(),
    );
}
