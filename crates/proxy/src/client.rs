//! Load drivers: the Wisconsin-style synthetic benchmark (Section IV)
//! and the two trace-replay modes (Section VII, experiments 3 and 4),
//! both run by [`run_plans`] over [`ProxyClient`] connections.

use crate::net::read_head;
use sc_cache::DocMeta;
use sc_obs::{Histogram, HistogramSnapshot};
use sc_trace::sampler::BoundedPareto;
use sc_trace::{group_of_client, Trace};
use sc_util::Rng;
use sc_wire::http;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The synthetic benchmark's knobs (Wisconsin Proxy Benchmark 1.0 shape).
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Client processes per proxy (the paper runs 30).
    pub clients_per_proxy: usize,
    /// Requests each client issues (the paper: 200).
    pub requests_per_client: usize,
    /// Inherent hit ratio of each client's request stream (the paper
    /// runs 25% and 45%).
    pub target_hit_ratio: f64,
    /// Body-size distribution `(alpha, min, max)`; the paper uses the
    /// Pareto with alpha 1.1.
    pub size_pareto: (f64, u64, u64),
    /// Deterministic seed — "we use the same seeds … for the no-ICP and
    /// ICP experiments to ensure comparable results".
    pub seed: u64,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            clients_per_proxy: 30,
            requests_per_client: 200,
            target_hit_ratio: 0.25,
            size_pareto: (1.1, 1024, 256 * 1024),
            seed: 1,
        }
    }
}

/// One keep-alive HTTP connection to a proxy, a peer or the origin:
/// sequential GETs, each returning what was served.
pub struct ProxyClient {
    stream: TcpStream,
    buf: Vec<u8>,
    peer_fetch: bool,
    sent: usize,
    received: usize,
}

/// The outcome of one [`ProxyClient::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Response status.
    pub status: u16,
    /// The served document: `Content-Length` and `X-Doc-LM` (0 when
    /// absent).
    pub meta: DocMeta,
}

impl ProxyClient {
    /// Connect to an HTTP address.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ProxyClient {
            stream,
            buf: Vec::with_capacity(4096),
            peer_fetch: false,
            sent: 0,
            received: 0,
        })
    }

    /// Mark this connection's requests as peer fetches (`X-Peer-Fetch`):
    /// the serving proxy answers from its cache only.
    pub fn set_peer_fetch(&mut self, on: bool) {
        self.peer_fetch = on;
    }

    /// Bytes written and read on this connection so far, counted as they
    /// cross the socket — those of a failed [`get`](Self::get) included.
    pub fn bytes_moved(&self) -> (usize, usize) {
        (self.sent, self.received)
    }

    /// Issue one GET for version `meta` of `url` and fully drain the
    /// response.
    pub fn get(&mut self, url: &str, meta: DocMeta) -> std::io::Result<Reply> {
        let size = meta.size.to_string();
        let lm = meta.last_modified.to_string();
        let headers = [
            ("X-Doc-Size", &*size),
            ("X-Doc-LM", &*lm),
            ("X-Peer-Fetch", "1"),
        ];
        let head = http::build_request(url, &headers[..2 + usize::from(self.peer_fetch)]);
        self.sent += head.len();
        self.stream.write_all(head.as_bytes())?;
        self.buf.clear();
        let resp = read_head(&mut self.stream, &mut self.buf, http::parse_response);
        // Whatever `read_head` read and did not consume is still in `buf`.
        self.received += self.buf.len();
        let Some((resp, head_len)) = resp? else {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        };
        self.received += head_len;
        let len = http::content_length(&resp.headers).unwrap_or(0);
        let mut left = len.saturating_sub(self.buf.len() as u64);
        let mut chunk = [0u8; 16 * 1024];
        while left > 0 {
            let want = left.min(chunk.len() as u64) as usize;
            let n = self.stream.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.received += n;
            left -= n as u64;
        }
        Ok(Reply {
            status: resp.status,
            meta: DocMeta {
                size: len,
                last_modified: http::header(&resp.headers, "x-doc-lm")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
            },
        })
    }
}

/// One driver task's requests, issued in order on one connection.
pub type Plan = Vec<(String, DocMeta)>;

/// Run `plans`: one thread per non-empty plan, task `t` on one
/// connection to `addrs[t % addrs.len()]`. Returns the wall time and the
/// client-side latency distribution (microseconds) the driver measured.
pub fn run_plans(
    addrs: &[SocketAddr],
    plans: Vec<Plan>,
) -> std::io::Result<(Duration, HistogramSnapshot)> {
    let latency = Histogram::new();
    let t0 = Instant::now();
    let handles: Vec<_> = plans
        .into_iter()
        .enumerate()
        .filter(|(_, plan)| !plan.is_empty())
        .map(|(task, plan)| {
            let addr = addrs[task % addrs.len()];
            let latency = latency.clone();
            std::thread::spawn(move || -> std::io::Result<()> {
                let mut client = ProxyClient::connect(addr)?;
                for (url, meta) in plan {
                    let sent = Instant::now();
                    client.get(&url, meta)?;
                    latency.record(sent.elapsed().as_micros() as u64);
                }
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.join()
            .map_err(|_| std::io::Error::other("driver thread panicked"))??;
    }
    Ok((t0.elapsed(), latency.snapshot()))
}

/// One synthetic client's request stream: no overlap with any other
/// client (the Table II worst case — zero inter-proxy hits), Pareto
/// sizes, and re-references at the target inherent hit ratio.
pub struct SyntheticStream {
    rng: Rng,
    sizes: BoundedPareto,
    hit_ratio: f64,
    /// Unique namespace prefix for this client's fresh documents.
    namespace: u64,
    counter: u64,
    history: Vec<(String, DocMeta)>,
}

impl SyntheticStream {
    /// Build the stream for global client number `client_id`.
    pub fn new(cfg: &BenchmarkConfig, client_id: u64) -> Self {
        SyntheticStream {
            rng: Rng::seed_from_u64(cfg.seed ^ (client_id.wrapping_mul(0x9E3779B97F4A7C15))),
            sizes: BoundedPareto::new(cfg.size_pareto.0, cfg.size_pareto.1, cfg.size_pareto.2),
            hit_ratio: cfg.target_hit_ratio,
            namespace: client_id << 32,
            counter: 0,
            history: Vec::new(),
        }
    }

    /// The next request: URL plus expected document version.
    pub fn next_request(&mut self) -> (String, DocMeta) {
        if !self.history.is_empty() && self.rng.gen_bool(self.hit_ratio) {
            // Re-reference, recency-biased over the last 64 documents.
            let window = self.history.len().min(64);
            let idx = self.history.len() - 1 - self.rng.gen_range(0..window);
            return self.history[idx].clone();
        }
        let id = self.namespace + self.counter;
        self.counter += 1;
        let url = format!("http://server-{}.trace.invalid/doc/{}", id >> 8, id);
        let meta = DocMeta {
            size: self.sizes.sample(&mut self.rng),
            last_modified: 1,
        };
        let entry = (url, meta);
        self.history.push(entry.clone());
        entry
    }
}

/// Split the synthetic benchmark into per-task plans for `proxies`
/// proxies: task `t` is client `t / proxies` of proxy `t % proxies`,
/// issuing `requests_per_client` requests from its [`SyntheticStream`].
pub(crate) fn plan_benchmark(bench: &BenchmarkConfig, proxies: usize) -> Vec<Plan> {
    (0..proxies * bench.clients_per_proxy)
        .map(|task| {
            let (proxy, client) = (task % proxies, task / proxies);
            let global_client = (proxy * bench.clients_per_proxy + client) as u64 + 1;
            let mut stream = SyntheticStream::new(bench, global_client);
            (0..bench.requests_per_client)
                .map(|_| stream.next_request())
                .collect()
        })
        .collect()
}

/// Which Section VII replay experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Experiment 3: each driver task emulates a set of real trace
    /// clients; a client's requests all go to its own proxy, in order.
    PerClient,
    /// Experiment 4: requests are dealt round-robin to driver tasks
    /// regardless of origin client — load-balanced, order preserved
    /// per task.
    RoundRobin,
}

/// Split a trace into per-task request lists for the given replay mode.
///
/// Returns `tasks_per_proxy × groups` lists; task `t` connects to proxy
/// `t % groups`.
pub fn plan_replay(trace: &Trace, tasks_per_proxy: usize, mode: ReplayMode) -> Vec<Plan> {
    let groups = trace.groups as usize;
    let total_tasks = groups * tasks_per_proxy;
    let mut plans: Vec<Plan> = vec![Vec::new(); total_tasks];
    let mut rr = 0usize;
    for r in &trace.requests {
        let entry = (
            r.url_string(),
            DocMeta {
                size: r.size,
                last_modified: r.last_modified,
            },
        );
        let task = match mode {
            ReplayMode::PerClient => {
                let proxy = group_of_client(r.client, trace.groups) as usize;
                // Hash the client onto one of the proxy's tasks so a
                // client's requests stay ordered on one connection.
                let slot = (r.client as usize / groups) % tasks_per_proxy;
                slot * groups + proxy
            }
            ReplayMode::RoundRobin => {
                let t = rr;
                rr = (rr + 1) % total_tasks;
                t
            }
        };
        plans[task].push(entry);
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_trace::Request;

    #[test]
    fn failed_get_still_counts_the_bytes_that_moved() {
        // The server announces 100 body bytes, sends 10 and hangs up.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n";
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let request = read_head(&mut s, &mut Vec::new(), http::parse_request).unwrap();
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(&[b'x'; 10]).unwrap();
            request.unwrap().1
        });
        let mut client = ProxyClient::connect(addr).unwrap();
        let err = client.get("http://a.invalid/1", DocMeta { size: 100, last_modified: 1 }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let request_len = server.join().unwrap();
        assert_eq!(client.bytes_moved(), (request_len, head.len() + 10));
    }

    #[test]
    fn synthetic_streams_never_overlap() {
        let cfg = BenchmarkConfig::default();
        let mut a = SyntheticStream::new(&cfg, 1);
        let mut b = SyntheticStream::new(&cfg, 2);
        let urls_a: std::collections::HashSet<String> =
            (0..200).map(|_| a.next_request().0).collect();
        let urls_b: std::collections::HashSet<String> =
            (0..200).map(|_| b.next_request().0).collect();
        assert!(urls_a.is_disjoint(&urls_b));
    }

    #[test]
    fn synthetic_hit_ratio_near_target() {
        let cfg = BenchmarkConfig {
            target_hit_ratio: 0.45,
            ..Default::default()
        };
        let mut s = SyntheticStream::new(&cfg, 7);
        let mut seen = std::collections::HashSet::new();
        let mut rerefs = 0;
        let n = 5_000;
        for _ in 0..n {
            let (url, _) = s.next_request();
            if !seen.insert(url) {
                rerefs += 1;
            }
        }
        let ratio = rerefs as f64 / n as f64;
        assert!((0.40..0.50).contains(&ratio), "inherent hit ratio {ratio}");
    }

    #[test]
    fn synthetic_deterministic_per_seed() {
        let cfg = BenchmarkConfig::default();
        let mut a = SyntheticStream::new(&cfg, 3);
        let mut b = SyntheticStream::new(&cfg, 3);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    fn mini_trace() -> Trace {
        let mut requests = Vec::new();
        for i in 0..100u64 {
            requests.push(Request {
                time_ms: i,
                client: (i % 7) as u32,
                url: i % 13,
                server: 0,
                size: 100,
                last_modified: 0,
            });
        }
        Trace {
            name: "mini".into(),
            groups: 4,
            requests,
        }
    }

    #[test]
    fn per_client_plan_respects_proxy_binding() {
        // Give every client a unique document so plans are attributable:
        // client c only ever requests url c.
        let requests: Vec<Request> = (0..140u64)
            .map(|i| Request {
                time_ms: i,
                client: (i % 7) as u32,
                url: (i % 7) * 1000, // one url per client
                server: 0,
                size: 100 + i, // strictly increasing => order check
                last_modified: 0,
            })
            .collect();
        let trace = Trace {
            name: "attrib".into(),
            groups: 4,
            requests,
        };
        let plans = plan_replay(&trace, 5, ReplayMode::PerClient);
        assert_eq!(plans.len(), 20);
        assert_eq!(plans.iter().map(Vec::len).sum::<usize>(), 140);
        for (t, plan) in plans.iter().enumerate() {
            let proxy = (t % 4) as u32;
            for (url, meta) in plan {
                // Recover the owning client from the URL.
                let (_, url_id) = sc_trace::model::parse_url(url).expect("our url");
                let client = (url_id / 1000) as u32;
                assert_eq!(
                    group_of_client(client, 4),
                    proxy,
                    "request of client {client} landed on task {t} (proxy {proxy})"
                );
                let _ = meta;
            }
            // One client's requests stay in trace order (sizes increase).
            let mut per_client_last: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for (url, meta) in plan {
                let (_, url_id) = sc_trace::model::parse_url(url).unwrap();
                let last = per_client_last.entry(url_id).or_insert(0);
                assert!(meta.size > *last, "client stream reordered");
                *last = meta.size;
            }
        }
        // A client's requests never split across tasks.
        let mut task_of_client: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for (t, plan) in plans.iter().enumerate() {
            for (url, _) in plan {
                let (_, url_id) = sc_trace::model::parse_url(url).unwrap();
                let prev = task_of_client.insert(url_id, t);
                if let Some(p) = prev {
                    assert_eq!(p, t, "client {url_id} split across tasks");
                }
            }
        }
    }

    #[test]
    fn round_robin_plan_balances() {
        let trace = mini_trace();
        let plans = plan_replay(&trace, 5, ReplayMode::RoundRobin);
        assert_eq!(plans.len(), 20);
        assert!(plans.iter().all(|p| p.len() == 5), "100 requests / 20 tasks");
    }
}
