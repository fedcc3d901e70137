//! The daemon's admin/observability endpoint: a tiny HTTP server over
//! the proxy's [`sc_obs::Registry`].
//!
//! Three routes, all `GET`:
//!
//! * `/metrics` — Prometheus-style text exposition
//!   ([`sc_obs::Snapshot::render_prometheus`]);
//! * `/json` — the same snapshot as a JSON document (every instrument
//!   with its labels and value/buckets);
//! * `/events` — the most recent entries of the structured event
//!   journal ([`sc_obs::Journal`]), oldest first.
//!
//! The endpoint binds its own ephemeral loopback listener
//! ([`crate::daemon::Daemon::admin_addr`]) and its traffic is *not*
//! accounted into the TCP byte counters the experiment tables report —
//! scraping the proxy must not perturb the measurements.

use crate::net::{read_head, spawn_accept_loop};
use crate::stats::ProxyStats;
use sc_json::{ToJson, Value};
use sc_wire::http;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// How many journal entries `/events` returns at most.
const EVENTS_LIMIT: usize = 256;

/// Start the admin accept loop on `listener`; returns immediately.
/// The loop exits when `shutdown` flips true.
pub fn serve(
    listener: TcpListener,
    stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    spawn_accept_loop(listener, shutdown, move |stream| {
        let _ = serve_connection(stream, &stats);
    })
}

/// Answer one request, then close (`Connection: close` semantics — the
/// scrapers here are curl and the test harness, not a browser).
fn serve_connection(mut stream: TcpStream, stats: &ProxyStats) -> std::io::Result<()> {
    let req = match read_head(&mut stream, &mut Vec::new(), http::parse_request) {
        Ok(Some((req, _))) => req,
        Ok(None) => return Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "bad request\n",
            );
        }
        Err(e) => return Err(e),
    };
    // Targets may arrive absolute (proxy-style) or origin-form; route on
    // the path component either way.
    let path = req
        .target
        .strip_prefix("http://")
        .and_then(|rest| rest.find('/').map(|i| &rest[i..]))
        .unwrap_or(&req.target);
    match path {
        "/metrics" => {
            let body = stats.registry().snapshot().render_prometheus();
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/json" => {
            let body = stats.registry().snapshot().to_json().to_pretty();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/events" => {
            let events: Vec<Value> = stats
                .journal()
                .recent(EVENTS_LIMIT)
                .iter()
                .map(|e| e.to_json())
                .collect();
            let body = Value::Array(events).to_pretty();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "text/plain",
            "try /metrics, /json or /events\n",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = http::build_response(
        status,
        reason,
        &[
            ("Content-Type", content_type),
            ("Content-Length", &body.len().to_string()),
            ("Connection", "close"),
        ],
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Fetch `path` from an admin endpoint and return the response body —
/// shared by the bench binaries and tests (plain blocking I/O).
pub fn fetch(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let req = http::build_request(path, &[("Host", "admin")]);
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    match text.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no header/body separator in admin response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn start(stats: Arc<ProxyStats>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        serve(listener, stats, Arc::new(AtomicBool::new(false))).expect("serve");
        addr
    }

    #[test]
    fn metrics_route_exposes_registered_instruments() {
        let stats = Arc::new(ProxyStats::with_peers(&[7]));
        stats.http_requests.incr();
        stats.local_hits.incr();
        let addr = start(stats);
        let body = fetch(addr, "/metrics").expect("fetch");
        assert!(body.contains("sc_http_requests_total 1"), "{body}");
        assert!(
            body.contains(r#"sc_peer_queries_sent_total{peer="7"} 0"#),
            "{body}"
        );
    }

    #[test]
    fn json_and_events_routes_are_valid_json() {
        let stats = Arc::new(ProxyStats::default());
        stats
            .journal()
            .record(sc_obs::EventKind::RemoteHit, Some(3), "http://x/y");
        let addr = start(stats);
        let json = fetch(addr, "/json").expect("fetch /json");
        let v = Value::parse(&json).expect("parse /json");
        assert!(v.get("instruments").is_some(), "{json}");
        let events = fetch(addr, "/events").expect("fetch /events");
        let ev = Value::parse(&events).expect("parse /events");
        let Value::Array(items) = ev else {
            panic!("events not an array: {events}");
        };
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn unknown_route_is_404() {
        let addr = start(Arc::new(ProxyStats::default()));
        let body = fetch(addr, "/nope").expect("fetch");
        assert!(body.contains("/metrics"), "{body}");
    }
}
