//! Shared machinery for the Table IV / Table V replay experiments.

use crate::{origin_delay_ms, pct, rule, scale};
use sc_proxy::{Cluster, ClusterConfig, CpuTimes, ExperimentReport, Mode, ReplayMode};
use summary_cache_core::UpdatePolicy;
use sc_trace::{profile, Trace};
use std::time::Duration;

/// The replay workload: the *first* chunk of the full UPisa trace,
/// regrouped onto 4 proxies — the paper replays "the first 24856
/// requests from the UPisa trace" on its 4-proxy testbed. Taking a
/// prefix (rather than generating a small trace) keeps the cold-start
/// miss behaviour the paper's numbers reflect.
pub fn replay_trace() -> Trace {
    let p = profile("UPisa").expect("built-in profile");
    let mut t = p.generate(); // the full 120k-request trace
    t.requests.truncate(24_856 / scale().max(1));
    t.groups = 4; // regroup clients onto the 4-proxy testbed
    t
}

/// The SC-ICP mode with the Section VI-B prototype's update trigger
/// ("whenever there are enough changes to fill an IP packet").
pub fn sc_prototype_mode() -> Mode {
    Mode::SummaryCache {
        load_factor: 8,
        hashes: 4,
        policy: UpdatePolicy::packet_fill(),
    }
}

/// Run one cooperation mode of a replay experiment (80 driver tasks:
/// 20 per proxy, as in Section VII).
pub fn run_mode(mode: Mode, trace: &Trace, replay: ReplayMode) -> ExperimentReport {
    let cfg = ClusterConfig {
        proxies: 4,
        mode,
        cache_bytes: 75 * 1024 * 1024,
        expected_docs: 16_000,
        origin_delay: Duration::from_millis(origin_delay_ms()),
        icp_timeout_ms: 500,
        keepalive_ms: 1_000,
        update_loss: 0.0,
    };
    let cluster = Cluster::start(&cfg).expect("cluster start");
    let cpu0 = CpuTimes::now();
    let (wall, latency) = cluster.run_replay(trace, 20, replay).expect("replay run");
    // Counters from the daemons' sc-obs registries, latency from the load driver.
    let report = ExperimentReport::build(mode, wall, &latency, &cpu0, &cluster);
    cluster.shutdown();
    report
}

/// Shared table printer for Tables IV and V.
pub fn print_table(reports: &[ExperimentReport]) {
    let header = format!(
        "{:>8} {:>9} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "mode", "hit", "remote", "latency ms", "user CPU", "sys CPU", "UDP msgs", "false hit", "stale hits"
    );
    println!("{header}");
    rule(&header);
    for r in reports {
        let n = r.totals.http_requests.max(1) as f64;
        println!(
            "{:>8} {:>9} {:>9} {:>12.2} {:>10.2} {:>10.2} {:>10} {:>10} {:>11}",
            r.mode,
            pct(r.totals.hit_ratio()),
            pct(r.totals.remote_hits as f64 / n),
            r.latency_ms_mean,
            r.cpu_user,
            r.cpu_system,
            r.totals.udp_messages(),
            pct(r.totals.false_hits as f64 / n),
            pct(r.totals.remote_stale_hits as f64 / n),
        );
    }
    println!("tail latency (client-side distribution):");
    for r in reports {
        println!(
            "{:>8}  p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms",
            r.mode, r.latency_ms_p50, r.latency_ms_p95, r.latency_ms_p99
        );
    }
    let icp = reports
        .iter()
        .find(|r| r.mode == "ICP")
        .map(|r| r.totals.udp_messages());
    let sc = reports
        .iter()
        .find(|r| r.mode == "SC-ICP")
        .map(|r| r.totals.udp_messages());
    if let (Some(icp), Some(sc)) = (icp, sc) {
        println!(
            "UDP reduction ICP -> SC-ICP: {:.1}x (paper: ~50x)",
            icp as f64 / sc.max(1) as f64
        );
    }
}
