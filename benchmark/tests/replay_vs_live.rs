//! The stage replay pushes the same requests through the same cache
//! geometry as the live pass, so proxy A's local-hit share in the
//! replay must match what live proxy 0 counted; and the traced run
//! reports every per-layer metric `BENCHMARK.json` names.

mod common;

use sc_benchmark::run::{run, Plan};
use sc_benchmark::workload::find;
use std::time::Duration;

#[test]
fn replay_local_hit_share_matches_the_live_pass() {
    let plan = Plan {
        setups: 1,
        open_windows: 2,
        open_window: Duration::from_millis(1_500),
        closed_windows: 1,
        closed_window: Duration::from_millis(300),
        trace: true,
    };
    let outcome = run(find("sc-share").expect("sc-share"), 11, &plan).expect("traced run");
    assert!(outcome.correct(), "{:?}", outcome.checks);

    let (live, served) = outcome.proxy0_local;
    let replayed = outcome.replay_local_a.expect("a traced run replays");
    assert!(served > 200, "proxy 0 served {served} open-loop requests");
    assert!(
        (live - replayed).abs() <= 0.02,
        "live proxy 0 local-hit ratio {live:.4} vs replay proxy A {replayed:.4}"
    );
    assert_eq!(outcome.value("daemon.local_hit_ratio").map(|v| v > 0.0), Some(true));

    let per_layer = common::names("per_layer");
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(reported, per_layer);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    // On this workload every read-side layer does work.
    for name in [
        "replica.candidates_ns",
        "router.query_ns",
        "cache.store_ns",
        "wire.http_parse_ns",
    ] {
        assert!(outcome.value(name).expect(name) > 0.0, "{name} is idle on sc-share");
    }
    assert!(sc_benchmark::out_dir().join("trace-sc-share.json").exists());
}
