//! Adversarial workload scenarios: the seeded regression suite.
//!
//! Each canned scenario (flash crowd, diurnal drift, peer churn at
//! scale, false-hit storm, two-level hierarchy) runs on the
//! deterministic simnet and pins its good-ruler headline numbers —
//! hit/false-hit/staleness counts, message distribution, virtual tail
//! latency — **bit for bit**. A seed is a complete schedule, so any
//! divergence is a real behavior change, and every failure prints a
//! one-line repro.
//!
//! Environment knobs (the sweep tests only; pinned tests are hermetic):
//!
//! * `SC_SIM_SEED=0x2a` (hex or decimal) — replay exactly one seed;
//! * `SC_SIM_SEEDS=200` — sweep size (default 10; `scripts/ci.sh
//!   --soak` runs 200);
//! * `SC_SIM_PEERS=64` — cluster size for the sweep (default 4).

use std::collections::BTreeSet;
use summary_cache::proxy::simnet::{
    run_scenario, stale_advertised_pairs, ScenarioConfig, ScenarioOutcome, SimConfig, SimReport,
};
use summary_cache::sim::hierarchy::filter_effect;
use summary_cache::trace::scenario::{self, Scenario, ScenarioKind};
use summary_cache::trace::TraceStats;

const DEFAULT_SWEEP_SEEDS: u64 = 10;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// The hermetic config every pinned test runs under: the default
/// fault plan with every knob written out literally, so no `SC_SIM_*`
/// environment override can shift a pinned number. (`proxies` is
/// overwritten by each scenario's node count.)
fn pinned_cfg() -> ScenarioConfig {
    ScenarioConfig {
        sim: SimConfig {
            proxies: 8,
            local_ops: 0,
            horizon_ms: 2_000,
            keepalive_ms: 50,
            cache_docs: 48,
            expected_docs: 64,
            load_factor: 8,
            hashes: 4,
            loss: 0.12,
            duplicate: 0.08,
            delay_us: (200, 40_000),
            crashes: 2,
            partitions: 2,
            settle_ticks: 400,
            fanout_slots: 1,
            initial_seq: 0,
        },
        windows: 8,
        origin_rtt_us: 120_000,
        local_service_us: 200,
    }
}

/// The headline numbers a pinned regression locks down.
#[derive(Debug, PartialEq, Eq)]
struct Headline {
    requests: u64,
    unserved: u64,
    local_hits: u64,
    remote_hits: u64,
    false_hits: u64,
    origin_fetches: u64,
    queries_sent: u64,
    wasted_queries: u64,
    query_timeouts: u64,
    evictions: u64,
    stale_after_settle: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    update_datagrams: u64,
    resyncs: u64,
}

fn headline(out: &ScenarioOutcome) -> Headline {
    let r = &out.report;
    Headline {
        requests: r.requests,
        unserved: r.unserved,
        local_hits: r.local_hits,
        remote_hits: r.remote_hits,
        false_hits: r.false_hits,
        origin_fetches: r.origin_fetches,
        queries_sent: r.queries_sent,
        wasted_queries: r.wasted_queries,
        query_timeouts: r.query_timeouts,
        evictions: r.evictions,
        stale_after_settle: r.stale_advertised_after_settle,
        latency_p50_us: r.latency_p50_us,
        latency_p99_us: r.latency_p99_us,
        update_datagrams: r.datagrams_by_op[0].1 + r.datagrams_by_op[1].1,
        resyncs: out.sim.resyncs_requested,
    }
}

/// Run one pinned scenario and compare against the recorded headline.
fn check_pinned(scenario: &Scenario, seed: u64, cfg: ScenarioConfig, want: Headline) {
    let out = run_scenario(cfg, seed, scenario);
    let r = &out.report;
    assert!(out.sim.converged, "{} did not converge:\n{r:#?}", r.name);
    let got = headline(&out);
    assert_eq!(got, want, "{} headline numbers drifted:\n{r:#?}", r.name);
    // The outcome accounting identity always holds, pinned or not.
    assert_eq!(
        r.local_hits + r.remote_hits + r.origin_fetches + r.unserved,
        r.requests
    );
}

#[test]
fn pinned_flash_crowd() {
    let scenario = scenario::flash_crowd(8, 0xF1A5);
    check_pinned(
        &scenario,
        0xF1A5,
        pinned_cfg(),
        Headline {
            requests: 2100,
            unserved: 58,
            local_hits: 1068,
            remote_hits: 363,
            false_hits: 22,
            origin_fetches: 611,
            queries_sent: 853,
            wasted_queries: 92,
            query_timeouts: 82,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 200,
            latency_p99_us: 196608,
            update_datagrams: 2472,
            resyncs: 329,
        },
    );
}

#[test]
fn pinned_diurnal_drift() {
    let scenario = scenario::diurnal_drift(8, 0xD01F);
    check_pinned(
        &scenario,
        0xD01F,
        pinned_cfg(),
        Headline {
            requests: 2000,
            unserved: 111,
            local_hits: 447,
            remote_hits: 498,
            false_hits: 50,
            origin_fetches: 944,
            queries_sent: 1264,
            wasted_queries: 157,
            query_timeouts: 151,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 118784,
            latency_p99_us: 196608,
            update_datagrams: 2233,
            resyncs: 227,
        },
    );
}

/// Peer churn at scale: rolling restarts at N = 64 riding the PR-8
/// per-peer update lanes, on top of the random fault plan.
#[test]
fn pinned_peer_churn_at_64() {
    let scenario = scenario::peer_churn(64, 0xC0DE);
    let mut cfg = pinned_cfg();
    // Quarter the tick rate: 64 proxies x 2 s of 50 ms heartbeats is
    // all datagram count, no extra coverage.
    cfg.sim.keepalive_ms = 200;
    check_pinned(
        &scenario,
        0xC0DE,
        cfg,
        Headline {
            requests: 1600,
            unserved: 21,
            local_hits: 198,
            remote_hits: 729,
            false_hits: 4,
            origin_fetches: 652,
            queries_sent: 5084,
            wasted_queries: 78,
            query_timeouts: 93,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 86016,
            latency_p99_us: 196608,
            update_datagrams: 53243,
            resyncs: 10405,
        },
    );
}

#[test]
fn pinned_false_hit_storm() {
    let scenario = scenario::false_hit_storm(8, 0x57);
    check_pinned(
        &scenario,
        0x57,
        pinned_cfg(),
        Headline {
            requests: 1548,
            unserved: 75,
            local_hits: 718,
            remote_hits: 266,
            false_hits: 14,
            origin_fetches: 489,
            queries_sent: 749,
            wasted_queries: 103,
            query_timeouts: 85,
            evictions: 42,
            stale_after_settle: 0,
            latency_p50_us: 38912,
            latency_p99_us: 196608,
            update_datagrams: 2481,
            resyncs: 313,
        },
    );
}

/// Two-level hierarchy: the same scenario runs on the simnet (peer
/// tier) *and* through `crates/sim`'s hierarchy model via
/// `Scenario::to_trace()`, pinning the filter-effect rows (how much
/// each sibling-sharing scheme starves the parent).
#[test]
fn pinned_two_level_hierarchy() {
    let scenario = scenario::two_level_hierarchy(8, 0x2113);
    check_pinned(
        &scenario,
        0x2113,
        pinned_cfg(),
        Headline {
            requests: 3000,
            unserved: 253,
            local_hits: 956,
            remote_hits: 595,
            false_hits: 72,
            origin_fetches: 1196,
            queries_sent: 1575,
            wasted_queries: 225,
            query_timeouts: 172,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 86016,
            latency_p99_us: 196608,
            update_datagrams: 2357,
            resyncs: 196,
        },
    );
    // The hierarchy tier: pinned (child, sibling, parent, origin)
    // counts per sharing scheme.
    let trace = scenario.to_trace();
    let cap = TraceStats::compute(&trace).infinite_cache_bytes / 4;
    let rows: Vec<(String, u64, u64, u64, u64)> = filter_effect(&trace, cap, cap)
        .into_iter()
        .map(|(label, r)| {
            (
                label,
                r.child_hits,
                r.sibling_hits,
                r.parent_hits,
                r.origin_fetches,
            )
        })
        .collect();
    let want: Vec<(String, u64, u64, u64, u64)> = vec![
        ("no-sharing".into(), 840, 0, 963, 1197),
        ("bloom".into(), 840, 321, 646, 1193),
        ("exact-directory".into(), 840, 321, 646, 1193),
        ("server-name".into(), 840, 489, 476, 1195),
    ];
    assert_eq!(
        rows, want,
        "filter-effect rows drifted; repro: cargo test --test scenario_properties \
         pinned_two_level_hierarchy -- --nocapture"
    );
}

/// MD5 of the `{:?}` of every canned scenario's full report under
/// [`pinned_cfg`], each followed by its [`run_level`] counts. The
/// headlines above read only part of a report; this pin also covers
/// the windows, every opcode row, p90/max latency and the per-window
/// stale/live pairs. `ScenarioReport` has no float field, so its
/// `{:?}` is deterministic.
const FULL_REPORTS_MD5: &str = "8f10068c65707302db0b17472cf68a09";

/// The run-level counts of a scenario run that its [`SimReport`] keeps:
/// convergence, settle steps, bytes on the wire, drops, resyncs,
/// failures and recoveries.
fn run_level(sim: &SimReport) -> String {
    format!(
        "converged: {}, settle_steps: {:?}, update_bytes_sent: {}, other_bytes_sent: {}, \
         datagrams_dropped: {}, resyncs_requested: {}, failures: {}, recoveries: {}",
        sim.converged,
        sim.settle_steps,
        sim.update_bytes_sent,
        sim.other_bytes_sent,
        sim.datagrams_dropped,
        sim.resyncs_requested,
        sim.failures,
        sim.recoveries,
    )
}

#[test]
fn scenario_reports_are_pinned_in_full() {
    let mut md5 = summary_cache::md5::Md5::new();
    for (name, seed) in [
        ("flash-crowd", 0xF1A5),
        ("diurnal-drift", 0xD01F),
        ("peer-churn", 0xC0DE),
        ("false-hit-storm", 0x57),
        ("two-level-hierarchy", 0x2113),
    ] {
        let s = scenario::by_name(name, 8, seed).expect("canned name");
        let out = run_scenario(pinned_cfg(), seed, &s);
        md5.update(format!("{:?}\n{}\n", out.report, run_level(&out.sim)).as_bytes());
    }
    let digest = summary_cache::md5::to_hex(&md5.finalize());
    assert_eq!(
        digest, FULL_REPORTS_MD5,
        "a canned scenario's report changed; if that is intended, set \
         FULL_REPORTS_MD5 to the new digest and say why in the commit"
    );
}

/// The counting-Bloom staleness probe (closes the loop on the PR-8
/// lost-recovery fix): after a false-hit storm quiesces under a
/// fault-free network, every advertised-but-evicted URL must be
/// cleared from **all** peer replicas — checked both through the
/// report counter and by independently re-walking every (observer,
/// evicted-URL) pair against the final cluster state. Load factor 16
/// keeps Bloom false positives out of the probe.
#[test]
fn storm_quiesces_with_every_stale_advertisement_cleared() {
    let seed = 0xB10B;
    let scenario = scenario::false_hit_storm(8, seed);
    let mut cfg = pinned_cfg();
    cfg.sim.loss = 0.0;
    cfg.sim.duplicate = 0.0;
    cfg.sim.crashes = 0;
    cfg.sim.partitions = 0;
    cfg.sim.delay_us = (200, 2_000);
    cfg.sim.load_factor = 16;
    cfg.sim.cache_docs = 512;
    let out = run_scenario(cfg, seed, &scenario);
    let r = &out.report;
    assert!(out.sim.converged, "quiet storm must settle:\n{r:#?}");
    assert!(r.evictions > 0, "the storm evicted nothing:\n{r:#?}");
    assert!(r.false_hits > 0, "evict-everywhere produced no false hits:\n{r:#?}");
    assert_eq!(
        r.stale_advertised_after_settle, 0,
        "stale advertisements survived settle:\n{r:#?}"
    );
    // Independent recount from the final cluster state.
    let evicted: BTreeSet<String> = scenario
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            ScenarioKind::EvictEverywhere { .. } => e.kind.url_string(),
            _ => None,
        })
        .collect();
    assert!(!evicted.is_empty(), "the storm scenario must script evictions");
    for url in &evicted {
        assert_eq!(
            stale_advertised_pairs(&out.routers, &out.dirs, &out.up, url),
            0,
            "{url} still advertised by a replica after settle"
        );
    }
}

/// One sweep iteration: the scenario must converge under the full
/// fault plan with its accounting identities intact, and the report's
/// staleness counter must agree with an independent recount.
fn check_sweep_seed(name: &str, seed: u64) {
    let mut cfg = ScenarioConfig::default();
    if cfg.sim.proxies >= 16 {
        // At big N the 50 ms heartbeat is pure datagram volume over a
        // 2 s horizon; a 200 ms cadence keeps the sweep affordable
        // while every fault class still fires. Deterministic: depends
        // only on the SC_SIM_PEERS knob.
        cfg.sim.keepalive_ms = 200;
    }
    let nodes = cfg.sim.proxies as u32;
    let scenario = scenario::by_name(name, nodes, seed)
        .unwrap_or_else(|| panic!("unknown scenario {name}"));
    let out = run_scenario(cfg, seed, &scenario);
    let r = &out.report;
    assert!(
        out.sim.converged,
        "{name} did not reconverge under the fault plan; repro: SC_SIM_SEED={seed:#x} \
         SC_SIM_PEERS={} cargo test --test scenario_properties -- --nocapture",
        r.proxies
    );
    assert_eq!(r.requests, scenario.requests(), "{name}: requests lost");
    assert_eq!(
        r.local_hits + r.remote_hits + r.origin_fetches + r.unserved,
        r.requests,
        "{name}: outcomes must partition the requests"
    );
    let by_window: u64 = r.windows.iter().map(|w| w.requests).sum();
    assert_eq!(by_window, r.requests, "{name}: window slices must partition");
    let recount: u64 = scenario
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            ScenarioKind::EvictEverywhere { .. } => e.kind.url_string(),
            _ => None,
        })
        .collect::<BTreeSet<String>>()
        .iter()
        .map(|url| stale_advertised_pairs(&out.routers, &out.dirs, &out.up, url))
        .sum();
    assert_eq!(
        recount, r.stale_advertised_after_settle,
        "{name}: report staleness disagrees with the cluster state"
    );
}

/// The acceptance sweep: false-hit storm and peer churn under the
/// full loss/dup/reorder/crash/partition plan. CI runs this at
/// `SC_SIM_PEERS=64` x 10 seeds; `--soak` raises it to 200.
#[test]
fn scenario_fault_sweep() {
    for name in ["false-hit-storm", "peer-churn"] {
        if let Some(seed) = env_u64("SC_SIM_SEED") {
            check_sweep_seed(name, seed);
            continue;
        }
        let seeds = env_u64("SC_SIM_SEEDS").unwrap_or(DEFAULT_SWEEP_SEEDS);
        for seed in 0..seeds {
            let outcome = std::panic::catch_unwind(|| check_sweep_seed(name, seed));
            if let Err(cause) = outcome {
                eprintln!(
                    "scenario {name} seed {seed:#x} failed; repro: \
                     SC_SIM_SEED={seed:#x} cargo test --test scenario_properties \
                     scenario_fault_sweep -- --nocapture"
                );
                std::panic::resume_unwind(cause);
            }
        }
    }
}

/// Every canned scenario is deterministic end to end: same seed, same
/// journal, same report — and a different seed moves the numbers.
#[test]
fn scenario_reports_are_deterministic_and_seed_sensitive() {
    for name in scenario::scenario_names() {
        let build = |seed: u64| {
            let s = scenario::by_name(name, 4, seed).expect("canned name");
            run_scenario(ScenarioConfig::default(), seed, &s)
        };
        let a = build(11);
        let b = build(11);
        assert_eq!(a.sim.journal, b.sim.journal, "{name}: journal diverged");
        assert_eq!(a.report, b.report, "{name}: report diverged");
        let c = build(12);
        assert_ne!(
            a.sim.journal, c.sim.journal,
            "{name}: seed 12 replayed seed 11's schedule"
        );
    }
}
