//! One run of one workload: set-up, open loop, closed loop, self-checks,
//! and the metrics that come out.

use crate::client::Client;
use crate::drive::{self, Driver, DriverLog, OpenWindow};
use crate::rig::{self, Counters, Rig};
use crate::trace::Tracer;
use crate::workload::{url_into, warmup_requests, Phase, Stream, Workload, DRIVERS, PROXIES};
use crate::{micro, replay};
use sc_cache::DocMeta;
use sc_proxy::CpuTimes;
use sc_trace::sampler::Zipf;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median, and the first one
/// is the rig the phases then measure.
pub const SETUPS: usize = 3;
/// Upstream-fetch probes per target in the traced run.
const FETCH_PROBES: usize = 40;

/// How a run's measuring time is cut into windows.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups to time.
    pub setups: usize,
    /// Open-loop windows.
    pub open_windows: usize,
    /// Length of one open-loop window.
    pub open_window: Duration,
    /// Closed-loop windows.
    pub closed_windows: usize,
    /// Length of one closed-loop window.
    pub closed_window: Duration,
    /// Record spans (odd open-loop windows), run the fetch probes, the
    /// stage replay and the micro probes, and report per-layer metrics.
    pub trace: bool,
}

impl Plan {
    /// The plan for `--seconds seconds`: three fifths open loop in 12
    /// windows (1 s each at 20 s: 300 or more requests, so a window's p95
    /// still has 15 samples beyond it). Timed: the other two fifths closed
    /// loop, in 16 windows. Traced: the open-loop windows alternate
    /// untraced and traced, so cache drift cancels out of the overhead
    /// figure; one fifth closed loop; the rest is left for the probes and
    /// the replay.
    pub fn for_seconds(seconds: f64, trace: bool) -> Plan {
        let part = |share: f64, windows: usize| Duration::from_secs_f64(seconds * share / windows as f64);
        Plan {
            setups: if trace { 1 } else { SETUPS },
            open_windows: 12,
            open_window: part(0.6, 12),
            closed_windows: if trace { 4 } else { 16 },
            closed_window: if trace { part(0.2, 4) } else { part(0.4, 16) },
            trace,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// One self-check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What must hold.
    pub what: String,
    /// Whether it did.
    pub passed: bool,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The end-to-end metrics (timed run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// The self-checks.
    pub checks: Vec<Check>,
    /// Requests scheduled or sent, both loops.
    pub attempted: u64,
    /// I/O errors, non-200s, wrong length or version, scheduled but
    /// never sent.
    pub failed: u64,
    /// Per-window notes for the human reader (invalid windows, stalls).
    pub notes: Vec<String>,
    /// Proxy 0's local-hit ratio over the open loop, and the number of
    /// requests it served there (what the stage replay is compared to).
    pub proxy0_local: (f64, u64),
    /// Traced run: the stage replay's local-hit share for proxy A.
    pub replay_local_a: Option<f64>,
}

impl Outcome {
    /// Every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counter movement between two readings.
struct Delta {
    requests: u64,
    local: u64,
    remote: u64,
    origin: u64,
    udp_sent: u64,
    udp_bytes: u64,
    tcp_bytes: u64,
    queries: u64,
    false_hits: u64,
    stale_hits: u64,
    updates: u64,
    update_bytes: u64,
    gaps: u64,
    resyncs: u64,
    serve_us_sum: u64,
    serve_count: u64,
}

/// `(local hits, requests)` one proxy gained between two readings.
fn delta_of(a: &sc_proxy::StatsSnapshot, b: &sc_proxy::StatsSnapshot) -> (u64, u64) {
    (b.local_hits - a.local_hits, b.http_requests - a.http_requests)
}

fn delta(a: &Counters, b: &Counters) -> Delta {
    let (x, y) = (&a.total, &b.total);
    Delta {
        requests: y.http_requests - x.http_requests,
        local: y.local_hits - x.local_hits,
        remote: y.remote_hits - x.remote_hits,
        origin: b.origin_requests - a.origin_requests,
        udp_sent: y.udp_sent - x.udp_sent,
        udp_bytes: y.udp_bytes_sent - x.udp_bytes_sent,
        tcp_bytes: (y.tcp_bytes_sent - x.tcp_bytes_sent) + (y.tcp_bytes_recv - x.tcp_bytes_recv),
        queries: y.icp_queries_sent - x.icp_queries_sent,
        false_hits: y.false_hits - x.false_hits,
        stale_hits: y.remote_stale_hits - x.remote_stale_hits,
        updates: y.updates_sent - x.updates_sent,
        update_bytes: b.update_bytes - a.update_bytes,
        gaps: y.update_gaps - x.update_gaps,
        resyncs: y.replica_resyncs - x.replica_resyncs,
        serve_us_sum: y.latency_us_sum - x.latency_us_sum,
        serve_count: y.latency_count - x.latency_count,
    }
}

/// A per-window latency statistic aggregated over the valid windows
/// (over all of them when none is valid — the notes then say so).
fn over_valid(windows: &[OpenWindow], stat: impl Fn(&OpenWindow) -> f64) -> f64 {
    let valid: Vec<f64> = windows.iter().filter(|w| w.valid).map(&stat).collect();
    if valid.is_empty() {
        drive::second_best(&windows.iter().map(&stat).collect::<Vec<_>>(), true)
    } else {
        drive::second_best(&valid, true)
    }
}

/// Time fresh-connection GETs of documents the target is known to hold:
/// what one upstream fetch costs a daemon, measured from outside.
/// Median, microseconds.
fn fetch_probe(target: SocketAddr, held: &[(String, DocMeta)], peer_fetch: bool) -> io::Result<f64> {
    let mut times = Vec::new();
    for (url, meta) in held {
        let t0 = Instant::now();
        let reply = Client::connect(target)?.get_with(url, *meta, peer_fetch)?;
        if reply.ok {
            times.push(reply.done.duration_since(t0).as_secs_f64() * 1e6);
        }
    }
    Ok(drive::median(&times))
}

/// Both upstream-fetch probes: proxy 2 as a peer, then the origin.
fn fetch_probes(rig: &Rig, workload: &Workload, zipf: &Arc<Zipf>, seed: u64) -> io::Result<(f64, f64)> {
    // Documents proxy 2 certainly holds: the tail of its own warm-up
    // (nothing has asked it to store anything since).
    let held: Vec<(String, DocMeta)> = warmup_requests(workload, zipf, seed, 2)
        .iter()
        .rev()
        .take(FETCH_PROBES)
        .map(|r| {
            let mut url = String::new();
            url_into(&mut url, r.namespace, r.doc);
            (url, r.meta)
        })
        .collect();
    Ok((
        fetch_probe(rig.cluster.daemons[2].http_addr, &held, true)?,
        fetch_probe(rig.cluster.origin.addr, &held, false)?,
    ))
}

/// What the live phases of one run recorded.
struct Live {
    setup_times: Vec<f64>,
    settled: bool,
    converged: bool,
    drivers: Vec<Driver>,
    open_logs: Vec<DriverLog>,
    closed_logs: Vec<DriverLog>,
    /// Counters before the open loop, after it, after the closed loop,
    /// and after the final quiesce.
    counters: [Counters; 4],
    staleness: f64,
    closed_cpu_s: f64,
    /// `(daemon.peer_fetch_us, origin.fetch_us)`, traced run only.
    probes: (f64, f64),
}

/// Set up, drive both phases, quiesce, and time the remaining set-ups.
fn measure(workload: &Workload, zipf: &Arc<Zipf>, seed: u64, plan: &Plan) -> io::Result<Live> {
    // The first set-up is the rig the phases measure; the others are
    // timed after the phases are over (see below).
    let (rig, first_setup) = rig::set_up(workload, zipf, seed)?;
    let mut setup_times = vec![first_setup];
    let settled = rig.settle().is_some();

    let epoch = Instant::now();
    let mut drivers = (0..DRIVERS as u32)
        .map(|t| {
            Ok(Driver {
                stream: Stream::new(workload, zipf, seed, t, Phase::Measured),
                client: Client::connect(rig.cluster.daemons[t as usize].http_addr)?,
                tracer: Tracer::new(epoch),
            })
        })
        .collect::<io::Result<Vec<_>>>()?;

    let c0 = rig.counters();
    let traced = |w: usize| plan.trace && w % 2 == 1;
    let open_logs = drive::open_loop(&mut drivers, plan.open_windows, plan.open_window, traced)?;
    let c1 = rig.counters();
    let staleness = rig.summary_staleness();

    let cpu0 = CpuTimes::now();
    let closed_logs = drive::closed_loop(&mut drivers, plan.closed_windows, plan.closed_window)?;
    let cpu = CpuTimes::now().since(&cpu0);
    let c2 = rig.counters();

    let probes = if plan.trace {
        fetch_probes(&rig, workload, zipf, seed)?
    } else {
        (0.0, 0.0)
    };

    // Quiesce, then the convergence check.
    let converged = rig.settle().is_some();
    let c3 = rig.counters();
    rig.shutdown();

    // The remaining set-ups, for `setup_s`'s median. They come last on
    // purpose: a set-up opens some 8 000 upstream connections, and the
    // socket and thread churn that leaves behind cost the phases that
    // followed three set-ups 5-20 % of their throughput for several
    // seconds.
    for _ in 1..plan.setups {
        let (extra, secs) = rig::set_up(workload, zipf, seed)?;
        extra.shutdown();
        setup_times.push(secs);
    }

    Ok(Live {
        setup_times,
        settled,
        converged,
        drivers,
        open_logs,
        closed_logs,
        counters: [c0, c1, c2, c3],
        staleness,
        closed_cpu_s: cpu.user + cpu.system,
        probes,
    })
}

fn sum(logs: &[DriverLog], f: fn(&DriverLog) -> u64) -> u64 {
    logs.iter().map(f).sum()
}

/// Per-window values and validity remarks, for the human reader.
fn window_notes(windows: &[OpenWindow], rps: &[f64]) -> Vec<String> {
    let list = |values: Vec<f64>| {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        cells.join(" ")
    };
    let mut notes = vec![
        format!(
            "open-loop windows p50 us: {}",
            list(windows.iter().map(|w| w.p50_us).collect())
        ),
        format!(
            "open-loop windows p95 us: {}",
            list(windows.iter().map(|w| w.p95_us).collect())
        ),
        format!("closed-loop windows req/s: {}", list(rps.to_vec())),
    ];
    for (i, w) in windows.iter().enumerate() {
        if w.requests == 0 {
            notes.push(format!(
                "open-loop window {i} INVALID: no request was due in it; left out"
            ));
        } else if !w.valid {
            notes.push(format!(
                "open-loop window {i} INVALID: generator lag p99 {:.0} us exceeds {} us; left out",
                w.late_p99_us,
                drive::LATE_LIMIT.as_micros()
            ));
        }
        if w.stalls > 0 {
            notes.push(format!(
                "open-loop window {i}: {} request(s) slower than 100 ms",
                w.stalls
            ));
        }
    }
    if !windows.iter().any(|w| w.valid) {
        notes.push("no valid open-loop window: all windows used".into());
    }
    notes
}

/// The self-checks: what must hold for the run's numbers to mean anything.
fn self_checks(workload: &Workload, live: &Live, open: &Delta, closed: &Delta, whole: &Delta) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |what: String, passed: bool| checks.push(Check { what, passed });
    check("summaries converge after warm-up".into(), live.settled);
    let sent = sum(&live.open_logs, |l| l.attempted);
    check(
        format!(
            "open loop: daemons served every request sent ({} of {sent})",
            open.requests
        ),
        open.requests == sent,
    );
    for (label, d) in [("open", open), ("closed", closed)] {
        check(
            format!(
                "{label} loop: local {} + remote {} + origin {} = requests {}",
                d.local, d.remote, d.origin, d.requests
            ),
            d.local + d.remote + d.origin == d.requests,
        );
    }
    let (requests, local) = (open.requests + closed.requests, open.local + closed.local);
    if workload.name == "sc-hot" {
        check(
            format!("sc-hot is 100 % local hits ({local} of {requests})"),
            local == requests,
        );
    }
    if workload.icp {
        let queries = open.queries + closed.queries;
        check(
            format!(
                "ICP sent exactly N-1 queries per local miss ({queries} for {})",
                requests - local
            ),
            queries == u64::from(PROXIES - 1) * (requests - local),
        );
    }
    check(
        format!("no update gaps after warm-up ({})", whole.gaps),
        whole.gaps == 0,
    );
    check(
        format!("no replica resyncs after warm-up ({})", whole.resyncs),
        whole.resyncs == 0,
    );
    check("summaries converge after the run quiesces".into(), live.converged);
    checks
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The timed run's metrics, as `BENCHMARK.json` orders them.
fn end_to_end(live: &Live, open: &Delta, windows: &[OpenWindow], rps: &[f64]) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", drive::median(&live.setup_times)),
        metric("throughput_rps", "1/s", drive::second_best(rps, false)),
        metric("latency_p50_us", "us", over_valid(windows, |w| w.p50_us)),
        metric("latency_p95_us", "us", over_valid(windows, |w| w.p95_us)),
        metric("hit_ratio", "ratio", ratio(open.local + open.remote, open.requests)),
        metric("udp_msgs_per_req", "count", ratio(open.udp_sent, open.requests)),
        metric("udp_bytes_per_req", "B", ratio(open.udp_bytes, open.requests)),
    ]
}

/// Median ICP round trip over the open loop: the histogram is
/// cumulative, so the phase's share is the bucket-wise difference of the
/// readings before and after it.
fn icp_rtt_p50_us(before: &Counters, after: &Counters) -> f64 {
    let counts = after.icp_rtt.counts.iter().enumerate();
    let counts = counts
        .map(|(i, c)| c - before.icp_rtt.counts.get(i).copied().unwrap_or(0))
        .collect();
    sc_obs::HistogramSnapshot { counts, sum: 0 }.percentile(0.5) as f64
}

/// The traced run's metrics, as `BENCHMARK.json` orders them: the live
/// pass's layers, then the stage replay and the micro probes.
fn per_layer(
    live: &Live,
    [open, closed, whole]: [&Delta; 3],
    windows: &[OpenWindow],
    stage: &replay::Stage,
    probe: &micro::Probe,
) -> Vec<Metric> {
    // A replay span and its metric share a name, up to the unit suffix.
    let span_ns = |name: &'static str| metric(name, "ns", stage.ns_per_op(name.trim_end_matches("_ns")));
    let per_req = |name, unit, count| metric(name, unit, ratio(count, open.requests));
    let client = |name, stat: fn(&OpenWindow) -> f64| metric(name, "us", over_valid(windows, stat));
    let worst = |stat: fn(&OpenWindow) -> f64| windows.iter().map(stat).fold(0.0, f64::max);

    // Odd windows recorded spans, even ones did not.
    let traced: Vec<OpenWindow> = windows.iter().copied().skip(1).step_by(2).collect();
    let untraced: Vec<OpenWindow> = windows.iter().copied().step_by(2).collect();
    let (p50_traced, p50_untraced) = (over_valid(&traced, |w| w.p50_us), over_valid(&untraced, |w| w.p50_us));
    let serve_mean_us = ratio(open.serve_us_sum, open.serve_count);
    let service_means: Vec<f64> = windows.iter().map(|w| w.service_mean_us).collect();
    let accounted_us = stage.accounted_ns as f64 / 1e3 / stage.requests.max(1) as f64;
    let share_of = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    vec![
        span_ns("wire.http_parse_ns"),
        span_ns("wire.http_build_ns"),
        metric("md5.digest_ns", "ns", probe.md5_digest_ns),
        span_ns("bloom.urlkey_ns"),
        span_ns("cache.lookup_ns"),
        span_ns("router.request_done_ns"),
        metric("obs.counter_ns", "ns", probe.obs_counter_ns),
        metric("obs.histogram_ns", "ns", probe.obs_histogram_ns),
        span_ns("replica.load_ns"),
        span_ns("replica.candidates_ns"),
        metric(
            "replica.candidates_per_probe",
            "count",
            ratio(stage.candidates, stage.count("replica.candidates")),
        ),
        metric("bloom.contains_ns", "ns", probe.bloom_contains_ns),
        metric(
            "daemon.icp_rtt_p50_us",
            "us",
            icp_rtt_p50_us(&live.counters[0], &live.counters[1]),
        ),
        metric("daemon.peer_fetch_us", "us", live.probes.0),
        metric("daemon.query_hit_share", "ratio", ratio(open.remote, open.queries)),
        per_req("daemon.false_hit_ratio", "ratio", open.false_hits),
        per_req("daemon.stale_hit_ratio", "ratio", open.stale_hits),
        metric("daemon.summary_staleness", "ratio", live.staleness),
        span_ns("wire.icp_query_encode_ns"),
        span_ns("wire.icp_decode_ns"),
        span_ns("router.query_ns"),
        per_req("daemon.queries_per_req", "count", open.queries),
        metric("origin.fetch_us", "us", live.probes.1),
        per_req("origin.fetches_per_req", "count", open.origin),
        per_req("daemon.tcp_bytes_per_req", "B", open.tcp_bytes),
        span_ns("cache.store_ns"),
        metric(
            "cache.evictions_per_store",
            "count",
            ratio(stage.evictions, stage.count("cache.store")),
        ),
        metric("bloom.insert_ns", "ns", probe.bloom_insert_ns),
        metric("bloom.remove_ns", "ns", probe.bloom_remove_ns),
        span_ns("router.stored_ns"),
        span_ns("router.purged_ns"),
        span_ns("router.flush_ns"),
        span_ns("router.tick_ns"),
        metric(
            "router.sends_per_publish",
            "count",
            ratio(stage.update_sends, stage.publishes),
        ),
        span_ns("wire.dirupdate_encode_ns"),
        span_ns("wire.dirupdate_decode_ns"),
        span_ns("router.update_apply_ns"),
        metric("shard.cow_copies", "count", stage.cow_copies as f64),
        per_req("daemon.updates_per_req", "count", open.updates),
        metric("daemon.update_bytes_mean", "B", ratio(open.update_bytes, open.updates)),
        metric("daemon.update_gaps", "count", whole.gaps as f64),
        metric("daemon.resyncs", "count", whole.resyncs as f64),
        metric("obs.journal_ns", "ns", probe.obs_journal_ns),
        metric("daemon.serve_mean_us", "us", serve_mean_us),
        metric(
            "daemon.transport_mean_us",
            "us",
            drive::median(&service_means) - serve_mean_us,
        ),
        metric(
            "daemon.cpu_us_per_req",
            "us",
            share_of(live.closed_cpu_s * 1e6, closed.requests as f64),
        ),
        per_req("daemon.local_hit_ratio", "ratio", open.local),
        per_req("daemon.remote_hit_ratio", "ratio", open.remote),
        client("client.service_p50_us", |w| w.service_p50_us),
        client("client.service_p99_us", |w| w.service_p99_us),
        client("client.latency_p99_us", |w| w.p99_us),
        metric("client.latency_max_us", "us", worst(|w| w.max_us)),
        metric(
            "client.stalls",
            "count",
            windows.iter().map(|w| w.stalls).sum::<usize>() as f64,
        ),
        metric("gen.late_p99_us", "us", worst(|w| w.late_p99_us)),
        metric("gen.sample_ns", "ns", probe.gen_sample_ns),
        metric("replay.accounted_us_per_req", "us", accounted_us),
        metric(
            "replay.unaccounted_share",
            "ratio",
            if serve_mean_us > 0.0 {
                1.0 - accounted_us / serve_mean_us
            } else {
                0.0
            },
        ),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * share_of(p50_traced - p50_untraced, p50_untraced),
        ),
    ]
}

/// Run `workload` once.
pub fn run(workload: &Workload, seed: u64, plan: &Plan) -> io::Result<Outcome> {
    let zipf = workload.zipf();
    let live = measure(workload, &zipf, seed, plan)?;

    let [c0, c1, c2, c3] = &live.counters;
    let (open, closed, whole) = (delta(c0, c1), delta(c1, c2), delta(c0, c3));
    let windows = drive::open_windows(&live.open_logs, plan.open_windows, plan.open_window);
    let rps = drive::closed_windows(&live.closed_logs, plan.closed_windows, plan.closed_window);
    let proxy0 = delta_of(&c0.per_proxy[0], &c1.per_proxy[0]);

    let mut out = Outcome {
        checks: self_checks(workload, &live, &open, &closed, &whole),
        attempted: sum(&live.open_logs, |l| l.attempted + l.unsent) + sum(&live.closed_logs, |l| l.attempted),
        failed: sum(&live.open_logs, |l| l.failed + l.unsent) + sum(&live.closed_logs, |l| l.failed),
        notes: window_notes(&windows, &rps),
        proxy0_local: (ratio(proxy0.0, proxy0.1), proxy0.1),
        ..Outcome::default()
    };
    if !plan.trace {
        out.metrics = end_to_end(&live, &open, &windows, &rps);
        return Ok(out);
    }

    let open_ns = plan.open_windows as u64 * plan.open_window.as_nanos() as u64;
    let stage = replay::run(workload, &zipf, seed, open_ns);
    let probe = micro::run(workload, &zipf, seed);
    out.metrics = per_layer(&live, [&open, &closed, &whole], &windows, &stage, &probe);
    out.replay_local_a = Some(stage.local_share_a);
    out.notes.push(format!(
        "stage replay: {} requests, proxy A local-hit share {:.4} (live proxy 0: {:.4} over {} requests), glue {:.2} us/request",
        stage.requests,
        stage.local_share_a,
        out.proxy0_local.0,
        out.proxy0_local.1,
        stage.glue_ns as f64 / 1e3 / stage.requests.max(1) as f64
    ));

    let path = crate::out_dir().join(format!("trace-{}.json", workload.name));
    let mut recorders: Vec<(&str, &Tracer)> = vec![("replay", &stage.tracer)];
    recorders.extend(
        ["driver0", "driver1"]
            .into_iter()
            .zip(live.drivers.iter().map(|d| &d.tracer)),
    );
    crate::trace::write_json(&path, workload.name, seed, &recorders)?;
    out.notes.push(format!("spans written to {}", path.display()));
    Ok(out)
}
