//! `scache` — the summary-cache command line.
//!
//! Run the pieces of the system as real processes on real sockets:
//!
//! ```text
//! scache origin    --listen 127.0.0.1:8081 --delay-ms 100
//! scache proxy     --id 0 --http 127.0.0.1:3128 --icp 127.0.0.1:3130 \
//!                  --origin 127.0.0.1:8081 --mode sc \
//!                  --peer 1=127.0.0.1:3129/127.0.0.1:3131
//! scache gen-trace --profile UPisa --scale 10 --out upisa.jsonl
//! scache replay    --trace upisa.jsonl --proxy 127.0.0.1:3128 \
//!                  --proxy 127.0.0.1:3129 --tasks 20 --mode per-client
//! scache estimate  --proxies 100 --cache-gb 8 --load-factor 16
//! ```
//!
//! Long-running subcommands (`origin`, `proxy`) run until stdin reaches
//! EOF (Ctrl-D, or closing the pipe that feeds them); proxies print a
//! stats line every 10 s and a final report on exit.

use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::time::Duration;
use summary_cache::core::scalability::{estimate, Deployment};
use summary_cache::core::UpdatePolicy;
use summary_cache::proxy::client::{plan_replay, run_plans, ReplayMode};
use summary_cache::proxy::config::PeerAddr;
use summary_cache::proxy::daemon::Daemon;
use summary_cache::proxy::origin::Origin;
use summary_cache::proxy::stats::ProxyStats;
use summary_cache::proxy::{Mode, ProxyConfig};
use summary_cache::trace::io as trace_io;
use summary_cache::trace::profile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("origin") => cmd_origin(&args[1..]),
        Some("proxy") => cmd_proxy(&args[1..]),
        Some("gen-trace") => cmd_gen_trace(&args[1..]),
        Some("import-squid") => cmd_import_squid(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
scache — summary cache (Fan/Cao/Almeida/Broder, SIGCOMM '98) tooling

subcommands:
  origin    --listen ADDR [--delay-ms N]
            run the origin-server emulator
  proxy     --id N --http ADDR --icp ADDR --origin ADDR
            [--mode no-icp|icp|sc] [--cache-mb N] [--expected-docs N]
            [--threshold FRACTION] [--peer ID=HTTP/ICP]...
            run one proxy daemon (EOF on stdin prints final stats);
            also serves an observability endpoint (/metrics, /json,
            /events) on an ephemeral loopback port, printed at start
  gen-trace --profile NAME [--scale N] --out FILE[.jsonl|.log]
            generate a synthetic workload (DEC|UCB|UPisa|Questnet|NLANR)
  import-squid --log ACCESS_LOG --groups N --out FILE[.jsonl|.log]
            convert a real Squid native access.log into a trace
  replay    --trace FILE --proxy ADDR... [--tasks N]
            [--mode per-client|round-robin]
            replay a trace against running proxies
  estimate  --proxies N [--cache-gb N] [--load-factor N] [--hashes N]
            [--threshold FRACTION]
            Section V-F deployment arithmetic
";

/// Pull `--name value` out of an argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// All values of a repeatable `--name value` flag.
fn flags<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn parse_or_die<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad {what}: {v:?}");
        std::process::exit(2);
    })
}

fn cmd_origin(args: &[String]) -> i32 {
    let listen: SocketAddr = parse_or_die(
        flag(args, "--listen").unwrap_or("127.0.0.1:8081"),
        "--listen address",
    );
    let delay = Duration::from_millis(
        flag(args, "--delay-ms").map_or(100, |v| parse_or_die(v, "--delay-ms")),
    );
    let origin = Origin::spawn_at(listen, delay).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    println!("origin listening on {} (delay {:?})", origin.addr, delay);
    wait_for_stdin_eof();
    println!(
        "served {} requests, {} bytes",
        origin
            .stats
            .requests
            .load(std::sync::atomic::Ordering::Relaxed),
        origin.stats.bytes.load(std::sync::atomic::Ordering::Relaxed)
    );
    origin.shutdown();
    0
}

/// Block until stdin is exhausted — the shutdown signal for the
/// long-running subcommands (works under pipes and terminals alike).
fn wait_for_stdin_eof() {
    use std::io::Read;
    let mut sink = [0u8; 1024];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

fn parse_peer(spec: &str) -> PeerAddr {
    // ID=HTTP/ICP, e.g. 1=127.0.0.1:3129/127.0.0.1:3131
    let bad = || -> ! {
        eprintln!("bad --peer {spec:?}; expected ID=HTTP_ADDR/ICP_ADDR");
        std::process::exit(2);
    };
    let Some((id, rest)) = spec.split_once('=') else { bad() };
    let Some((http, icp)) = rest.split_once('/') else { bad() };
    PeerAddr {
        id: parse_or_die(id, "peer id"),
        http: parse_or_die(http, "peer HTTP address"),
        icp: parse_or_die(icp, "peer ICP address"),
    }
}

fn cmd_proxy(args: &[String]) -> i32 {
    let id: u32 = parse_or_die(flag(args, "--id").unwrap_or("0"), "--id");
    let http: SocketAddr = parse_or_die(
        flag(args, "--http").unwrap_or("127.0.0.1:3128"),
        "--http address",
    );
    let icp: SocketAddr = parse_or_die(
        flag(args, "--icp").unwrap_or("127.0.0.1:3130"),
        "--icp address",
    );
    let origin: SocketAddr = parse_or_die(
        flag(args, "--origin").unwrap_or("127.0.0.1:8081"),
        "--origin address",
    );
    let cache_mb: u64 = flag(args, "--cache-mb").map_or(75, |v| parse_or_die(v, "--cache-mb"));
    let expected_docs: u64 =
        flag(args, "--expected-docs").map_or(16_000, |v| parse_or_die(v, "--expected-docs"));
    let threshold: f64 =
        flag(args, "--threshold").map_or(0.01, |v| parse_or_die(v, "--threshold"));
    let mode = match flag(args, "--mode").unwrap_or("sc") {
        "no-icp" => Mode::NoIcp,
        "icp" => Mode::Icp,
        "sc" => Mode::SummaryCache {
            load_factor: 8,
            hashes: 4,
            policy: UpdatePolicy::Threshold(threshold),
        },
        other => {
            eprintln!("bad --mode {other:?}; expected no-icp|icp|sc");
            return 2;
        }
    };
    let peers: Vec<PeerAddr> = flags(args, "--peer").into_iter().map(parse_peer).collect();

    let cfg = match ProxyConfig::builder()
        .id(id)
        .cache_bytes(cache_mb << 20)
        .expected_docs(expected_docs)
        .mode(mode)
        .peers(peers)
        .origin(origin)
        .icp_timeout_ms(500)
        .keepalive_ms(1_000)
        .build()
    {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("bad proxy configuration: {e}");
            return 2;
        }
    };
    let listener = TcpListener::bind(http).unwrap_or_else(|e| {
        eprintln!("cannot bind HTTP {http}: {e}");
        std::process::exit(1);
    });
    let udp = UdpSocket::bind(icp).unwrap_or_else(|e| {
        eprintln!("cannot bind ICP {icp}: {e}");
        std::process::exit(1);
    });
    let daemon = Daemon::spawn_on(cfg, listener, udp).expect("spawn daemon");
    println!(
        "proxy {} serving HTTP on {} / ICP on {} ({} mode)",
        daemon.id,
        daemon.http_addr,
        daemon.icp_addr,
        flag(args, "--mode").unwrap_or("sc"),
    );
    println!(
        "admin endpoint on http://{} (/metrics, /json, /events)",
        daemon.admin_addr
    );
    // Periodic stats line; the thread dies with the process.
    let stats = daemon.stats.clone();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_secs(10));
        print_stats(&stats);
    });
    wait_for_stdin_eof();
    println!("final:");
    print_stats(&daemon.stats);
    daemon.shutdown();
    0
}

fn print_stats(stats: &ProxyStats) {
    let s = stats.snapshot();
    println!(
        "reqs {:>8}  hit {:>6.2}%  remote {:>6}  udp {:>8}  updates {:>6}/{:<6}  lat {:>7.2} ms",
        s.http_requests,
        s.hit_ratio() * 100.0,
        s.remote_hits,
        s.udp_messages(),
        s.updates_sent,
        s.updates_received,
        s.avg_latency_ms(),
    );
}

fn cmd_gen_trace(args: &[String]) -> i32 {
    let name = flag(args, "--profile").unwrap_or("UPisa");
    let scale: usize = flag(args, "--scale").map_or(1, |v| parse_or_die(v, "--scale"));
    let Some(out) = flag(args, "--out") else {
        eprintln!("--out FILE is required");
        return 2;
    };
    let Some(p) = profile(name) else {
        eprintln!("unknown profile {name:?}; known: DEC UCB UPisa Questnet NLANR");
        return 2;
    };
    let trace = if scale <= 1 { p.generate() } else { p.generate_scaled(scale) };
    let file = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    let result = if out.ends_with(".log") {
        trace_io::save_log(&trace, file)
    } else {
        trace_io::save_jsonl(&trace, file)
    };
    if let Err(e) = result {
        eprintln!("write failed: {e}");
        return 1;
    }
    println!(
        "wrote {}: {} requests, {} groups",
        out,
        trace.len(),
        trace.groups
    );
    0
}

fn cmd_import_squid(args: &[String]) -> i32 {
    let Some(log) = flag(args, "--log") else {
        eprintln!("--log ACCESS_LOG is required");
        return 2;
    };
    let Some(out) = flag(args, "--out") else {
        eprintln!("--out FILE is required");
        return 2;
    };
    let groups: u32 = flag(args, "--groups").map_or(4, |v| parse_or_die(v, "--groups"));
    let file = std::fs::File::open(log).unwrap_or_else(|e| {
        eprintln!("cannot open {log}: {e}");
        std::process::exit(1);
    });
    let name = std::path::Path::new(log)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("squid");
    let (trace, stats) =
        summary_cache::trace::squid::load_squid_log(file, name, groups).unwrap_or_else(|e| {
            eprintln!("cannot parse {log}: {e}");
            std::process::exit(1);
        });
    let outf = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    let result = if out.ends_with(".log") {
        trace_io::save_log(&trace, outf)
    } else {
        trace_io::save_jsonl(&trace, outf)
    };
    if let Err(e) = result {
        eprintln!("write failed: {e}");
        return 1;
    }
    println!(
        "imported {} of {} lines ({} non-GET, {} empty skipped) -> {}",
        stats.imported, stats.lines, stats.skipped_method, stats.skipped_empty, out
    );
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let Some(path) = flag(args, "--trace") else {
        eprintln!("--trace FILE is required");
        return 2;
    };
    let proxies: Vec<SocketAddr> = flags(args, "--proxy")
        .into_iter()
        .map(|v| parse_or_die(v, "--proxy address"))
        .collect();
    if proxies.is_empty() {
        eprintln!("at least one --proxy ADDR is required");
        return 2;
    }
    let tasks: usize = flag(args, "--tasks").map_or(20, |v| parse_or_die(v, "--tasks"));
    let mode = match flag(args, "--mode").unwrap_or("per-client") {
        "per-client" => ReplayMode::PerClient,
        "round-robin" => ReplayMode::RoundRobin,
        other => {
            eprintln!("bad --mode {other:?}");
            return 2;
        }
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut trace = if path.ends_with(".log") {
        trace_io::load_log(file)
    } else {
        trace_io::load_jsonl(file)
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    trace.groups = proxies.len() as u32; // regroup onto however many proxies we got
    println!(
        "replaying {} requests onto {} proxies ({} tasks each)",
        trace.len(),
        proxies.len(),
        tasks
    );
    let (wall, latency) = match run_plans(&proxies, plan_replay(&trace, tasks, mode)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("driver error: {e}");
            return 1;
        }
    };
    println!(
        "done in {:.1}s: {} requests, mean latency {:.2} ms",
        wall.as_secs_f64(),
        latency.samples(),
        latency.mean() / 1000.0
    );
    0
}

fn cmd_estimate(args: &[String]) -> i32 {
    let d = Deployment {
        proxies: flag(args, "--proxies").map_or(100, |v| parse_or_die(v, "--proxies")),
        cache_bytes: flag(args, "--cache-gb").map_or(8u64 << 30, |v| {
            parse_or_die::<u64>(v, "--cache-gb") << 30
        }),
        load_factor: flag(args, "--load-factor").map_or(16, |v| parse_or_die(v, "--load-factor")),
        hashes: flag(args, "--hashes").map_or(10, |v| parse_or_die(v, "--hashes")),
        threshold: flag(args, "--threshold").map_or(0.01, |v| parse_or_die(v, "--threshold")),
    };
    let e = estimate(d);
    println!("deployment: {} proxies, {} GB caches, load factor {}, k = {}, threshold {}",
        d.proxies, d.cache_bytes >> 30, d.load_factor, d.hashes, d.threshold);
    println!("  documents per proxy        {:>12}", e.docs_per_proxy);
    println!("  one summary                {:>9} KiB", e.summary_bytes >> 10);
    println!("  peer summaries per proxy   {:>9} MiB", e.peer_memory_bytes >> 20);
    println!("  own counters               {:>9} MiB", e.counter_bytes >> 20);
    println!("  requests between updates   {:>12}", e.requests_between_updates);
    println!("  update messages / request  {:>12.5}", e.update_messages_per_request);
    println!("  false-hit prob / request   {:>12.5}", e.false_hit_per_request);
    println!("  protocol msgs / request    {:>12.5}", e.overhead_messages_per_request);
    println!("  one update message         {:>9} KiB", e.update_message_bytes >> 10);
    0
}
