//! A live 4-proxy SC-ICP cluster on loopback: spin up the daemons and
//! an origin emulator, replay a shared workload, and watch summary
//! updates turn neighbour caches into remote hits.
//!
//! Run with: `cargo run --release --example proxy_cluster`

use std::time::Duration;
use summary_cache::proxy::{
    BenchmarkConfig, Cluster, ClusterConfig, Mode, ReplayMode,
};
use summary_cache::trace::{GeneratorConfig, TraceGenerator};

fn main() -> std::io::Result<()> {
    // A workload whose clients *share* documents across proxy groups,
    // so cooperation has something to find.
    let trace = TraceGenerator::new(GeneratorConfig {
        name: "cluster-demo".into(),
        requests: 4_000,
        clients: 40,
        documents: 800,
        groups: 4,
        mean_gap_ms: 1.0,
        ..Default::default()
    })
    .generate();

    for mode in [Mode::NoIcp, Mode::Icp, Mode::summary_cache_default()] {
        let cfg = ClusterConfig {
            proxies: 4,
            mode,
            cache_bytes: 16 << 20,
            expected_docs: 2_000,
            origin_delay: Duration::from_millis(20),
            icp_timeout_ms: 300,
            keepalive_ms: 0,
            update_loss: 0.0,
        };
        let cluster = Cluster::start(&cfg)?;
        let (wall, latency) = cluster.run_replay(&trace, 5, ReplayMode::PerClient)?;
        let t = cluster.aggregate();
        println!(
            "{:<7}  hit {:>5.1}%  remote {:>5.1}%  latency {:>6.2} ms  UDP msgs {:>6}  wall {:.2}s",
            mode.label(),
            t.hit_ratio() * 100.0,
            t.remote_hits as f64 / t.http_requests as f64 * 100.0,
            latency.mean() / 1000.0,
            t.udp_messages(),
            wall.as_secs_f64(),
        );
        cluster.shutdown();
    }

    // The Table II worst case, in miniature: disjoint streams, so every
    // ICP query is pure overhead.
    println!("\nworst case (no shared documents):");
    for mode in [Mode::Icp, Mode::summary_cache_default()] {
        let cfg = ClusterConfig {
            proxies: 4,
            mode,
            cache_bytes: 16 << 20,
            expected_docs: 2_000,
            origin_delay: Duration::from_millis(5),
            icp_timeout_ms: 300,
            keepalive_ms: 0,
            update_loss: 0.0,
        };
        let cluster = Cluster::start(&cfg)?;
        cluster
            .run_benchmark(&BenchmarkConfig {
                clients_per_proxy: 5,
                requests_per_client: 50,
                target_hit_ratio: 0.3,
                size_pareto: (1.1, 512, 64 * 1024),
                seed: 7,
            })?;
        let t = cluster.aggregate();
        println!(
            "{:<7}  queries sent {:>6}  updates sent {:>5}  (all pure overhead here)",
            mode.label(),
            t.icp_queries_sent,
            t.updates_sent,
        );
        cluster.shutdown();
    }
    Ok(())
}
