//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. hash-function count `k` at a fixed load factor (the paper fixes
//!    k = 4 "not the optimal choice … but suffices");
//! 2. Bloom load factor sweep beyond the paper's 8/16/32;
//! 3. counting-filter counter width (the paper's 4 bits vs narrower /
//!    wider), via the overflow bound;
//! 4. delta vs full-bitmap update crossover as a function of the
//!    update threshold;
//! 5. update trigger: fraction threshold vs request cadence vs trace
//!    time at matched update rates.

use sc_bench::{pct, rule, write_results};
use sc_bloom::analysis;
use sc_sim::{simulate_summary_cache, SummaryCacheConfig};
use sc_trace::{profile, TraceStats};
use summary_cache_core::{wire_cost, SummaryKind, UpdatePolicy};

struct KRow {
    k: u16,
    predicted_fp: f64,
    false_hit_ratio: f64,
    messages_per_request: f64,
}

struct LfRow {
    load_factor: u32,
    false_hit_ratio: f64,
    summary_fraction_of_cache: f64,
}

struct PolicyRow {
    policy: String,
    total_hit_ratio: f64,
    publishes: u64,
    update_bytes: u64,
}

sc_json::json_struct!(KRow { k, predicted_fp, false_hit_ratio, messages_per_request });
sc_json::json_struct!(LfRow { load_factor, false_hit_ratio, summary_fraction_of_cache });
sc_json::json_struct!(PolicyRow { policy, total_hit_ratio, publishes, update_bytes });

fn main() {
    let trace = profile("UPisa").expect("profile").generate_scaled(sc_bench::scale().max(2));
    let budget = TraceStats::compute(&trace).infinite_cache_bytes / 10;

    // 1. k sweep at load factor 16.
    println!("ablation 1: hash count k at load factor 16 (paper fixes k=4)");
    let header = format!(
        "{:>4} {:>14} {:>12} {:>10}",
        "k", "predicted fp", "false hits", "msgs/req"
    );
    println!("{header}");
    rule(&header);
    let mut k_rows = Vec::new();
    for k in [1u16, 2, 4, 8, 11] {
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: 16, hashes: k },
            policy: UpdatePolicy::EveryRequests(200),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, budget);
        let rates = r.metrics.rates();
        let row = KRow {
            k,
            predicted_fp: analysis::false_positive_probability_asymptotic(16.0, k as u32),
            false_hit_ratio: rates.false_hit_ratio,
            messages_per_request: rates.messages_per_request,
        };
        println!(
            "{:>4} {:>13.4}% {:>12} {:>10.4}",
            row.k,
            row.predicted_fp * 100.0,
            pct(row.false_hit_ratio),
            row.messages_per_request
        );
        k_rows.push(row);
    }
    println!("(k_opt at load factor 16 is {}; k=4 trades fp for probe cost)", analysis::optimal_k(16.0));

    // 2. load-factor sweep at k=4.
    println!("\nablation 2: load factor sweep at k=4");
    let header = format!(
        "{:>6} {:>12} {:>16}",
        "lf", "false hits", "summary %cache"
    );
    println!("{header}");
    rule(&header);
    let mut lf_rows = Vec::new();
    for lf in [2u32, 4, 8, 16, 32, 64] {
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: lf, hashes: 4 },
            policy: UpdatePolicy::EveryRequests(200),
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, budget);
        let row = LfRow {
            load_factor: lf,
            false_hit_ratio: r.metrics.rates().false_hit_ratio,
            summary_fraction_of_cache: r.summary_memory_fraction_of_cache,
        };
        println!(
            "{:>6} {:>12} {:>16}",
            row.load_factor,
            pct(row.false_hit_ratio),
            pct(row.summary_fraction_of_cache)
        );
        lf_rows.push(row);
    }

    // 3. counter width: overflow probability per bit (analytic; the
    // paper's argument for 4 bits).
    println!("\nablation 3: counter width w -> clamp threshold 2^w-1, overflow bound per bit");
    for w in [2u32, 3, 4, 5] {
        let clamp = (1u32 << w) - 1;
        println!(
            "  w = {w}: clamp at {clamp:>2}, Pr(count >= {clamp:>2}) <= {:.3e} per bit",
            analysis::counter_overflow_probability(1, clamp)
        );
    }
    println!("  paper: 4 bits -> 1.37e-15 x m, 'amply sufficient'.");

    // 4. delta vs full-bitmap crossover: at what churn does shipping
    // the whole array win? (filter of m bits, f flips)
    println!("\nablation 4: delta vs full-bitmap update (m = 65536 bits)");
    let m = 65_536usize;
    let full = wire_cost::bloom_full_bytes(m);
    println!("  full bitmap: {full} bytes; delta wins below {} flips", (full - wire_cost::BLOOM_HEADER_BYTES) / wire_cost::BLOOM_FLIP_BYTES);
    for flips in [100usize, 1_000, 2_000, 2_048, 4_000] {
        let delta = wire_cost::bloom_delta_bytes(flips);
        println!(
            "  {flips:>5} flips: delta {delta:>6} B, chosen: {}",
            if delta < full { "delta" } else { "full bitmap" }
        );
    }

    // 4b. compressed full-bitmap transmission (the paper's "memory can
    // be further reduced" note; Mitzenmacher's compressed Bloom filters).
    println!("\nablation 4b: Golomb-coded full-bitmap transmission (65536-bit filter)");
    {
        use sc_bloom::{BloomFilter, FilterConfig};
        for (lf, n) in [(8u32, 8192usize), (16, 4096), (32, 2048)] {
            let mut f = BloomFilter::new(FilterConfig {
                bits: 65_536,
                hashes: 4,
                function_bits: 32,
            });
            for i in 0..n {
                f.insert_key(&sc_bloom::UrlKey::new(format!("http://s{}/d{i}", i % 97).as_bytes()));
            }
            let raw = wire_cost::bloom_full_bytes(65_536);
            let coded = sc_bloom::compress::compressed_bytes(&sc_bloom::compress(f.bits()));
            println!(
                "  load factor {lf:>2} (fill {:.3}): raw {raw:>6} B, coded {coded:>6} B ({:.0}% saved)",
                f.fill_ratio(),
                (1.0 - coded as f64 / raw as f64) * 100.0
            );
            let _ = lf;
        }
    }

    // 5. update triggers at matched rates: ~every 200 requests.
    println!("\nablation 5: update triggers (matched to ~1 update per 200 requests/proxy)");
    let header = format!("{:>22} {:>10} {:>10} {:>14}", "trigger", "hit", "publishes", "update bytes");
    println!("{header}");
    rule(&header);
    let mut policy_rows = Vec::new();
    let per_proxy_requests = trace.len() as u64 / trace.groups as u64;
    let interval_ms = trace.duration_ms() / (per_proxy_requests / 200).max(1);
    for (label, policy) in [
        ("threshold 1%".to_string(), UpdatePolicy::Threshold(0.01)),
        ("every 200 requests".to_string(), UpdatePolicy::EveryRequests(200)),
        (
            format!("every {} s (trace time)", interval_ms / 1000),
            UpdatePolicy::EveryMillis(interval_ms),
        ),
    ] {
        let cfg = SummaryCacheConfig {
            kind: SummaryKind::Bloom { load_factor: 16, hashes: 4 },
            policy,
            multicast_updates: false,
        };
        let r = simulate_summary_cache(&trace, &cfg, budget);
        let row = PolicyRow {
            policy: label.clone(),
            total_hit_ratio: r.metrics.rates().total_hit_ratio,
            publishes: r.metrics.publishes,
            update_bytes: r.metrics.update_bytes,
        };
        println!(
            "{:>22} {:>10} {:>10} {:>14}",
            row.policy,
            pct(row.total_hit_ratio),
            row.publishes,
            row.update_bytes
        );
        policy_rows.push(row);
    }
    println!("\npaper (V-A/V-E): time- and threshold-triggers are equivalent once converted");
    println!("via request rate x miss ratio; thresholds adapt to load, intervals don't.");

    write_results(
        "ablation",
        &sc_json::obj! {
            "k_sweep" => k_rows,
            "load_factor_sweep" => lf_rows,
            "policies" => policy_rows,
        },
    );
}
