//! The origin-server emulator.
//!
//! Section IV's benchmark servers "delay the replies to emulate Internet
//! latencies" — each forked server process "waits for one second before
//! sending the reply". This emulator does the same on plain threads: it
//! answers any GET with a synthesized body of the size the request asks
//! for (via the `X-Doc-Size` header, as the trace replay of Section VII
//! encodes sizes in requests), echoing `X-Doc-LM` as `Last-Modified`,
//! after a configurable delay.

use crate::net::{read_head, spawn_accept_loop, write_body};
use sc_wire::http;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters the origin keeps (for sanity checks in experiments).
#[derive(Debug, Default)]
pub struct OriginStats {
    /// GETs served.
    pub requests: AtomicU64,
    /// Body bytes written.
    pub bytes: AtomicU64,
}

/// Handle to a running origin emulator.
pub struct Origin {
    /// Bound address.
    pub addr: SocketAddr,
    /// Live counters.
    pub stats: Arc<OriginStats>,
    shutdown: Arc<AtomicBool>,
}

impl Origin {
    /// Spawn an origin on an ephemeral loopback port that delays every
    /// reply by `delay`.
    pub fn spawn(delay: Duration) -> std::io::Result<Origin> {
        Self::spawn_at(SocketAddr::from(([127, 0, 0, 1], 0)), delay)
    }

    /// Spawn an origin on a specific address.
    pub fn spawn_at(bind: SocketAddr, delay: Duration) -> std::io::Result<Origin> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(OriginStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let st = stats.clone();
        spawn_accept_loop(listener, shutdown.clone(), move |stream| {
            let _ = serve_conn(stream, delay, &st);
        })?;
        Ok(Origin {
            addr,
            stats,
            shutdown,
        })
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

impl Drop for Origin {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection; supports sequential keep-alive GETs.
fn serve_conn(mut stream: TcpStream, delay: Duration, stats: &OriginStats) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        let req = match read_head(&mut stream, &mut buf, http::parse_request) {
            Ok(Some((req, _))) => req,
            Ok(None) => return Ok(()), // clean close between requests
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let head = http::build_response(400, "Bad Request", &[("Content-Length", "0")]);
                return stream.write_all(head.as_bytes());
            }
            Err(e) => return Err(e),
        };

        let size: u64 = http::header(&req.headers, "x-doc-size")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1024);
        let lm = http::header(&req.headers, "x-doc-lm").unwrap_or("0");

        // The paper's artificial Internet latency.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats.bytes.fetch_add(size, Ordering::Relaxed);

        let head = http::build_response(
            200,
            "OK",
            &[
                ("Content-Length", &size.to_string()),
                ("X-Doc-LM", lm),
                ("Connection", "keep-alive"),
            ],
        );
        stream.write_all(head.as_bytes())?;
        write_body(&mut stream, size)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ProxyClient, Reply};
    use sc_cache::DocMeta;

    const URL: &str = "http://server-0.trace.invalid/doc/1";

    fn get(addr: SocketAddr, size: u64, last_modified: u64) -> Reply {
        let want = DocMeta {
            size,
            last_modified,
        };
        ProxyClient::connect(addr).unwrap().get(URL, want).unwrap()
    }

    #[test]
    fn serves_requested_size_and_echoes_version() {
        let origin = Origin::spawn(Duration::ZERO).unwrap();
        let reply = get(origin.addr, 5000, 77);
        assert_eq!(reply.status, 200);
        assert_eq!((reply.meta.size, reply.meta.last_modified), (5000, 77));
        assert_eq!(origin.stats.requests.load(Ordering::Relaxed), 1);
        assert_eq!(origin.stats.bytes.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn delay_is_applied() {
        let origin = Origin::spawn(Duration::from_millis(80)).unwrap();
        let t0 = std::time::Instant::now();
        let reply = get(origin.addr, 10, 0);
        assert_eq!((reply.status, reply.meta.size), (200, 10));
        assert!(
            t0.elapsed() >= Duration::from_millis(75),
            "reply arrived too fast: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let origin = Origin::spawn(Duration::ZERO).unwrap();
        let mut client = ProxyClient::connect(origin.addr).unwrap();
        for i in 1..=3u64 {
            let want = DocMeta {
                size: i * 100,
                last_modified: 1,
            };
            assert_eq!(client.get(URL, want).unwrap().meta, want, "iteration {i}");
        }
        assert_eq!(origin.stats.requests.load(Ordering::Relaxed), 3);
    }
}
