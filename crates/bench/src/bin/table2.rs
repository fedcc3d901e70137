//! Table II — overhead of ICP in the four-proxy case, measured on the
//! live threaded cluster.
//!
//! The paper's setup (Section IV): 4 Squid proxies, 120 synthetic
//! clients (30 per proxy) issuing 200 requests each with zero think
//! time, Pareto document sizes, servers that delay replies by 1 s, and
//! *disjoint* client streams so there are no inter-proxy hits — the
//! worst case for ICP. Run at inherent hit ratios 25 % and 45 %, in
//! modes no-ICP, ICP, and SC-ICP (Section VII experiments 1–2 merge the
//! SC-ICP column into the same table).
//!
//! Paper numbers to compare shape against: ICP multiplies UDP messages
//! 73–90×, adds 8–13 % total packets, 20–24 % user CPU, 7–10 % system
//! CPU, and 8–12 % client latency; SC-ICP cuts the UDP traffic by ~50×
//! and lands within noise of no-ICP.

use sc_bench::{origin_delay_ms, pct, rule, write_results};
use sc_proxy::{BenchmarkConfig, Cluster, ClusterConfig, CpuTimes, ExperimentReport, Mode};
use std::time::Duration;

fn bench_cfg(hit_ratio: f64, seed: u64) -> BenchmarkConfig {
    BenchmarkConfig {
        clients_per_proxy: 30,
        requests_per_client: 200,
        target_hit_ratio: hit_ratio,
        size_pareto: (1.1, 1024, 256 * 1024),
        seed,
    }
}

fn run_mode(mode: Mode, hit_ratio: f64) -> ExperimentReport {
    let cfg = ClusterConfig {
        proxies: 4,
        mode,
        cache_bytes: 75 * 1024 * 1024, // the paper's 75 MB per proxy
        expected_docs: 16_000,
        origin_delay: Duration::from_millis(origin_delay_ms()),
        icp_timeout_ms: 500,
        keepalive_ms: 1_000,
    };
    let cluster = Cluster::start(&cfg).expect("cluster start");
    let cpu0 = CpuTimes::now();
    // Same seed across modes: "we use the same seeds ... to ensure
    // comparable results".
    let (wall, latency) = cluster.run_benchmark(&bench_cfg(hit_ratio, 0xBEEF)).expect("benchmark run");
    let report = ExperimentReport::build(mode, wall, &latency, &cpu0, &cluster);
    cluster.shutdown();
    report
}

fn print_block(reports: &[ExperimentReport]) {
    let header = format!(
        "{:>8} {:>9} {:>12} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "mode", "hit", "latency ms", "user CPU", "sys CPU", "UDP msgs", "TCP packets", "total pkts"
    );
    println!("{header}");
    rule(&header);
    let base = &reports[0];
    for r in reports {
        println!(
            "{:>8} {:>9} {:>12.2} {:>10.2} {:>10.2} {:>10} {:>12} {:>12}",
            r.mode,
            pct(r.totals.hit_ratio()),
            r.latency_ms_mean,
            r.cpu_user,
            r.cpu_system,
            r.totals.udp_messages(),
            r.totals.tcp_packets(),
            r.totals.total_packets(),
        );
    }
    println!("overhead vs no-ICP:");
    for r in &reports[1..] {
        let udp_factor = r.totals.udp_messages() as f64 / base.totals.udp_messages().max(1) as f64;
        println!(
            "{:>8}  UDP x{:<8.1} total pkts {:>8}  latency {:>8}  user CPU {:>8}",
            r.mode,
            udp_factor,
            pct(r.totals.total_packets() as f64 / base.totals.total_packets() as f64 - 1.0),
            pct(r.latency_ms_mean / base.latency_ms_mean.max(1e-9) - 1.0),
            pct(r.cpu_user / base.cpu_user.max(1e-9) - 1.0),
        );
    }
}

fn main() {
    println!("Table II: ICP overhead, 4 proxies, 120 clients x 200 requests, no inter-proxy hits");
    println!(
        "(origin delay {} ms; paper used 1000 ms — set SC_ORIGIN_DELAY_MS to match)",
        origin_delay_ms()
    );
    let mut all = Vec::new();
    for hit_ratio in [0.25, 0.45] {
        println!("\n=== inherent hit ratio {} ===", pct(hit_ratio));
        let mut reports = Vec::new();
        for mode in [Mode::NoIcp, Mode::Icp, Mode::summary_cache_default()] {
            reports.push(run_mode(mode, hit_ratio));
        }
        print_block(&reports);
        all.extend(reports);
    }
    println!();
    println!("paper: ICP UDP x73-90, total packets +8-13%, user CPU +20-24%,");
    println!("paper: latency +8-12%; SC-ICP within noise of no-ICP on all columns.");
    write_results("table2", &all);
}
