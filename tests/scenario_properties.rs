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
    run_scenario, stale_advertised_pairs, ScenarioConfig, ScenarioReport, SimConfig,
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
    evictions: u64,
    stale_after_settle: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    update_datagrams: u64,
    resyncs: u64,
}

fn headline(r: &ScenarioReport) -> Headline {
    Headline {
        requests: r.requests,
        unserved: r.unserved,
        local_hits: r.local_hits,
        remote_hits: r.remote_hits,
        false_hits: r.false_hits,
        origin_fetches: r.origin_fetches,
        queries_sent: r.queries_sent,
        wasted_queries: r.wasted_queries,
        evictions: r.evictions,
        stale_after_settle: r.stale_advertised_after_settle,
        latency_p50_us: r.latency_p50_us,
        latency_p99_us: r.latency_p99_us,
        update_datagrams: r.datagrams_by_op[0].1 + r.datagrams_by_op[1].1,
        resyncs: r.resyncs_requested,
    }
}

/// Run one pinned scenario and compare against the recorded headline.
fn check_pinned(scenario: &Scenario, seed: u64, cfg: ScenarioConfig, want: Headline) {
    let out = run_scenario(cfg, seed, scenario);
    let r = &out.report;
    assert!(r.converged, "{} did not converge:\n{r:#?}", r.name);
    let got = headline(r);
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
            unserved: 57,
            local_hits: 1099,
            remote_hits: 406,
            false_hits: 26,
            origin_fetches: 538,
            queries_sent: 850,
            wasted_queries: 96,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 200,
            latency_p99_us: 147456,
            update_datagrams: 2451,
            resyncs: 330,
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
            unserved: 106,
            local_hits: 488,
            remote_hits: 602,
            false_hits: 65,
            origin_fetches: 804,
            queries_sent: 1230,
            wasted_queries: 161,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 94208,
            latency_p99_us: 163840,
            update_datagrams: 2156,
            resyncs: 232,
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
            unserved: 14,
            local_hits: 203,
            remote_hits: 844,
            false_hits: 7,
            origin_fetches: 539,
            queries_sent: 5184,
            wasted_queries: 127,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 90112,
            latency_p99_us: 126976,
            update_datagrams: 53146,
            resyncs: 10340,
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
            unserved: 73,
            local_hits: 751,
            remote_hits: 316,
            false_hits: 21,
            origin_fetches: 408,
            queries_sent: 720,
            wasted_queries: 90,
            evictions: 42,
            stale_after_settle: 0,
            latency_p50_us: 200,
            latency_p99_us: 147456,
            update_datagrams: 2470,
            resyncs: 319,
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
            unserved: 248,
            local_hits: 983,
            remote_hits: 731,
            false_hits: 89,
            origin_fetches: 1038,
            queries_sent: 1627,
            wasted_queries: 248,
            evictions: 0,
            stale_after_settle: 0,
            latency_p50_us: 81920,
            latency_p99_us: 163840,
            update_datagrams: 2185,
            resyncs: 195,
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
    assert!(r.converged, "quiet storm must settle:\n{r:#?}");
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
        r.converged,
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
