//! The proxy daemon: HTTP front end, document cache, ICP endpoint, and
//! the summary-cache machinery of Section VI-B.
//!
//! Since the sans-I/O refactor, every protocol *decision* lives in
//! [`crate::router`]: the daemon is a thin I/O shell
//! that feeds the [`Router`] real datagrams, real timer ticks, and real
//! cache events, then carries out the sends and journal/metric effects
//! it returns. The deterministic [`crate::simnet`] harness drives the
//! very same router from a virtual clock, so a simulation schedule is a
//! faithful protocol schedule.
//!
//! One daemon = a small thread group sharing an internal state block:
//!
//! * a TCP accept loop (`net::spawn_accept_loop`) serving
//!   clients (and peers fetching remote hits), one thread per
//!   connection;
//! * a UDP **ingest** thread: receives ICP datagrams and queues them on
//!   a bounded channel (back-pressure, never unbounded growth);
//! * a **protocol** thread: drains the ingest queue in batches, locks
//!   the router once per batch, and turns each datagram into routed
//!   events — one lock acquisition amortized over the whole batch. Its
//!   queue wait ends at the next keep-alive deadline, where it delivers
//!   [`Event::Tick`] (SECHO pings, failure sweep, anti-entropy
//!   heartbeat), so every router input but client requests arrives on
//!   this one thread;
//! * an **egress** thread: drains the bounded send queue the protocol
//!   side fills, puts datagrams on the wire, and does the per-kind
//!   byte/journal accounting off the router lock;
//! * an admin TCP endpoint ([`crate::admin`]) exposing the sc-obs
//!   registry every counter below lives in.
//!
//! The document cache is striped by `UrlKey` digest
//! ([`crate::router::stripe_of`]), so cache-lock contention splits
//! [`ProxyConfig::shards`] ways; the router behind its one lock keeps a
//! single directory for the whole cache.
//!
//! The cache stores document *metadata*; bodies are synthesized at the
//! sizes recorded, which preserves every quantity the experiments
//! measure (message counts, byte counts, CPU, latency).
//!
//! Everything here is plain `std`: `std::net` sockets, `std::thread`,
//! `std::sync` — `tests/source_rules.rs` fails if a lock file names a
//! registry crate. This module is one of the socket shells that opt out
//! of the sans-I/O lints in `crates/clippy.toml` (see `lib.rs`).

use crate::client::ProxyClient;
use crate::config::{Mode, PeerAddr, ProxyConfig};
use crate::machine::{Dest, DirectoryView, Effect, Event, Output, SendKind, VirtualTime};
use crate::net::{read_head, spawn_accept_loop, write_body};
use crate::replica::ReplicaCell;
use crate::router::{DirectoryInspect, Router};
use crate::stats::ProxyStats;
use sc_bloom::BitVec;
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_obs::EventKind;
use sc_util::fxhash::FxHashMap;
use sc_util::Rng;
use sc_wire::http;
use sc_wire::icp::IcpMessage;
use crate::scratch::{with_scratch, RequestScratch};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use summary_cache_core::{ProxySummary, SummaryKind, UrlKey};

/// How long the UDP loop blocks per receive before re-checking shutdown.
const UDP_POLL: Duration = Duration::from_millis(50);
/// Bound of the ingest queue (received, not yet processed datagrams).
/// When the protocol thread falls behind, the ingest thread blocks and
/// the kernel socket buffer absorbs (then drops) the excess — ICP is
/// datagram traffic, loss is survivable, unbounded queues are not.
const INGRESS_QUEUE: usize = 1024;
/// Most datagrams the protocol thread folds into one router lock hold.
const INGRESS_BATCH: usize = 64;
/// Bound of the egress queue (decided, not yet transmitted datagrams).
const EGRESS_QUEUE: usize = 1024;

/// Lock a mutex, tolerating poisoning: a panicking connection thread
/// must not wedge the whole daemon, and every structure guarded here is
/// consistent after each individual operation.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running proxy daemon.
pub struct Daemon {
    /// This proxy's id.
    pub id: u32,
    /// Bound HTTP address.
    pub http_addr: SocketAddr,
    /// Bound ICP (UDP) address.
    pub icp_addr: SocketAddr,
    /// Bound admin/observability address ([`crate::admin`]).
    pub admin_addr: SocketAddr,
    /// Live counters.
    pub stats: Arc<ProxyStats>,
    inner: Arc<Inner>,
    shutdown: Arc<AtomicBool>,
}

/// An outstanding ICP query awaiting replies.
struct Pending {
    outstanding: usize,
    hit: Option<u32>,
    done: Option<SyncSender<Option<u32>>>,
    /// When the queries left, for per-peer RTT histograms.
    sent_at: Instant,
}

/// One received datagram queued for the protocol thread.
struct Ingress {
    data: Vec<u8>,
    from: SocketAddr,
}

/// One encoded datagram queued for the egress thread, with everything
/// the per-kind accounting needs. The bytes are shared, not copied: a
/// broadcast enqueues one buffer N times.
struct Egress {
    bytes: Arc<Vec<u8>>,
    addr: SocketAddr,
    /// Destination peer id when known, for per-peer byte counters.
    peer: Option<u32>,
    kind: SendKind,
}

struct Inner {
    cfg: ProxyConfig,
    stats: Arc<ProxyStats>,
    /// The document cache, striped by the router's `UrlKey` space.
    cache: CacheStripes,
    /// The sans-I/O protocol state — all replication/ICP decisions.
    router: Mutex<Router>,
    /// Lock-free read path: the router publishes replica snapshots
    /// here; SC-mode candidate selection reads them without touching
    /// the router lock.
    replicas: Arc<ReplicaCell>,
    /// Wall-clock origin of the router's [`VirtualTime`] axis.
    epoch: Instant,
    /// Fault injection: decides which outgoing update datagrams the
    /// [`ProxyConfig::update_loss`] knob silently drops. The decision
    /// is made at *enqueue* time (under the router lock), so the drop
    /// sequence is a function of the protocol schedule alone.
    loss_rng: Mutex<Rng>,
    /// ICP source address -> peer id, for dispatching replies.
    peer_of_addr: FxHashMap<SocketAddr, u32>,
    peers_by_id: FxHashMap<u32, PeerAddr>,
    pending: Mutex<FxHashMap<u32, Pending>>,
    udp: UdpSocket,
    /// Producer side of the bounded egress queue.
    egress: SyncSender<Egress>,
    next_reqnum: AtomicU32,
}

/// The document cache split into [`ProxyConfig::shards`] stripes by
/// `UrlKey` digest, so requests for URLs on different stripes never
/// contend for a cache lock.
struct CacheStripes {
    stripes: Vec<Mutex<WebCache<String>>>,
}

impl CacheStripes {
    /// `n` stripes splitting `capacity` bytes evenly (each stripe keeps
    /// at least one byte so a tiny capacity still admits metadata).
    fn new(capacity: u64, n: usize) -> CacheStripes {
        let n = n.max(1);
        let per = (capacity / n as u64).max(1);
        CacheStripes {
            stripes: (0..n).map(|_| Mutex::new(WebCache::new(per))).collect(),
        }
    }

    /// The stripe owning the URL whose digest is `key`. Callers digest
    /// the URL once per request and thread the `UrlKey` through every
    /// stripe/summary/probe touch — `stripe` never re-hashes.
    fn stripe(&self, key: &UrlKey) -> &Mutex<WebCache<String>> {
        &self.stripes[crate::router::stripe_of(key, self.stripes.len())]
    }

    /// Documents across all stripes. Stripes are locked one at a time
    /// in index order (never nested), so this cannot invert with any
    /// other acquisition.
    fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).len()).sum()
    }
}

/// The router's query-answering view over the real document cache.
struct CacheView<'a>(&'a CacheStripes);

impl DirectoryView for CacheView<'_> {
    fn contains(&self, url: &str) -> bool {
        // ICP query answering (a *peer's* request, not a proxied client
        // request): the queried URL arrives as text and is digested
        // here, once, to find its stripe.
        let key = UrlKey::new(url.as_bytes());
        lock(self.0.stripe(&key)).contains(url)
    }
}

/// The current position on the router's virtual clock: microseconds of
/// real time since the daemon started.
fn now(inner: &Inner) -> VirtualTime {
    VirtualTime::from_micros(inner.epoch.elapsed().as_micros() as u64)
}

impl Daemon {
    /// Start the daemon on pre-bound sockets. The daemon is ready to
    /// serve (including its admin endpoint) as soon as this returns.
    pub fn spawn_on(
        cfg: ProxyConfig,
        listener: TcpListener,
        udp: UdpSocket,
    ) -> std::io::Result<Daemon> {
        let http_addr = listener.local_addr()?;
        let icp_addr = udp.local_addr()?;
        let peer_ids: Vec<u32> = cfg.peers().iter().map(|p| p.id).collect();
        let stats = Arc::new(ProxyStats::with_peers(&peer_ids));

        let sc = match *cfg.mode() {
            Mode::SummaryCache {
                load_factor,
                hashes,
                policy,
            } => {
                let kind = SummaryKind::Bloom {
                    load_factor,
                    hashes,
                };
                let mut summary = ProxySummary::with_expected_docs(kind, cfg.expected_docs());
                // Generation freshness is the shell's job: the router
                // never touches the wall clock.
                summary.set_generation(fresh_generation(cfg.id()));
                Some((summary, policy))
            }
            _ => None,
        };
        let router = Router::new(
            cfg.id(),
            peer_ids,
            cfg.keepalive_ms(),
            1,
            1,
            sc,
            VirtualTime::ZERO,
        );

        let replicas = router.replica_cell();
        let (egress_tx, egress_rx) = std::sync::mpsc::sync_channel::<Egress>(EGRESS_QUEUE);
        let inner = Arc::new(Inner {
            stats: stats.clone(),
            cache: CacheStripes::new(cfg.cache_bytes(), cfg.shards()),
            router: Mutex::new(router),
            replicas,
            epoch: Instant::now(),
            peer_of_addr: cfg.peers().iter().map(|p| (p.icp, p.id)).collect(),
            peers_by_id: cfg.peers().iter().map(|p| (p.id, *p)).collect(),
            pending: Mutex::new(FxHashMap::default()),
            loss_rng: Mutex::new(Rng::seed_from_u64(
                0x5C_1C_F0_0D ^ ((cfg.id() as u64) << 32),
            )),
            udp,
            egress: egress_tx,
            next_reqnum: AtomicU32::new(1),
            cfg,
        });

        let shutdown = Arc::new(AtomicBool::new(false));

        // Admin/observability endpoint (its traffic is deliberately NOT
        // counted into the TCP byte counters the tables report).
        let admin_listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        let admin_addr = admin_listener.local_addr()?;
        crate::admin::serve(admin_listener, stats.clone(), shutdown.clone())?;

        // TCP accept loop.
        {
            let inner = inner.clone();
            spawn_accept_loop(listener, shutdown.clone(), move |stream| {
                let _ = serve_tcp(&inner, stream);
            })?;
        }

        // Egress: drain the bounded send queue, transmit, account.
        {
            let inner = inner.clone();
            let stop = shutdown.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match egress_rx.recv_timeout(UDP_POLL) {
                        Ok(item) => transmit(&inner, item),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
        }

        // UDP ingest: datagram in -> bounded queue. The protocol thread
        // owns the router; this thread only receives and accounts, so a
        // burst never stalls behind a publish fan-out.
        let (ingress_tx, ingress_rx) = std::sync::mpsc::sync_channel::<Ingress>(INGRESS_QUEUE);
        {
            let inner = inner.clone();
            let stop = shutdown.clone();
            inner.udp.set_read_timeout(Some(UDP_POLL))?;
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 65536];
                while !stop.load(Ordering::Relaxed) {
                    match inner.udp.recv_from(&mut buf) {
                        Ok((n, from)) => {
                            let from_peer = inner.peer_of_addr.get(&from).copied();
                            inner.stats.udp_in_from(from_peer, n);
                            if ingress_tx
                                .send(Ingress {
                                    data: buf[..n].to_vec(),
                                    from,
                                })
                                .is_err()
                            {
                                break; // protocol thread gone: shutting down
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => break,
                    }
                }
            });
        }

        // Protocol: batch the ingest queue through the router (one lock
        // acquisition covers a whole batch of datagrams), and deliver a
        // keep-alive tick whenever one falls due — in every mode, since
        // keep-alives are the paper's no-ICP baseline traffic.
        {
            let inner = inner.clone();
            let stop = shutdown.clone();
            let period = (inner.cfg.keepalive_ms() > 0 && !inner.cfg.peers().is_empty())
                .then(|| Duration::from_millis(inner.cfg.keepalive_ms()));
            std::thread::spawn(move || {
                // Warm protocol-thread scratch: the batch and output
                // buffers hold their high-water capacity across batches.
                let mut batch = Vec::new();
                let mut outputs = Vec::new();
                let mut next_tick = period.map(|p| Instant::now() + p);
                while !stop.load(Ordering::Relaxed) {
                    let wait = next_tick.map_or(UDP_POLL, |due| {
                        due.saturating_duration_since(Instant::now())
                    });
                    match ingress_rx.recv_timeout(wait) {
                        Ok(first) => {
                            batch.push(first);
                            while batch.len() < INGRESS_BATCH {
                                let Ok(d) = ingress_rx.try_recv() else { break };
                                batch.push(d);
                            }
                            handle_batch(&inner, &mut batch, &mut outputs);
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    if let (Some(due), Some(period)) = (next_tick, period) {
                        if Instant::now() >= due {
                            tick(&inner, &mut outputs);
                            next_tick = Some(Instant::now() + period);
                        }
                    }
                }
            });
        }

        Ok(Daemon {
            id: inner.cfg.id(),
            http_addr,
            icp_addr,
            admin_addr,
            stats,
            inner,
            shutdown,
        })
    }

    /// Stop the daemon's loops.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// The daemon's introspection surface is the same trait the router
/// implements: tests and tools speak one vocabulary, whichever layer
/// they hold.
impl DirectoryInspect for Daemon {
    fn replicated_peers(&self) -> Vec<u32> {
        lock(&self.inner.router).replicated_peers()
    }

    fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        lock(&self.inner.router).replica_bits(peer)
    }

    fn published_bits(&self) -> Option<BitVec> {
        lock(&self.inner.router).published_bits()
    }

    /// Documents currently cached, summed across the stripes (the
    /// stripes are the ground truth; the router's ledger count lags by
    /// whatever events are still in flight).
    fn cached_docs(&self) -> u64 {
        self.inner.cache.len() as u64
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Feed one batch of received datagrams through the router under a
/// single lock hold, queuing the decided sends for the egress thread.
/// Replica-snapshot publication is flushed once per batch (still under
/// the lock), so N delta datagrams in the batch share one snapshot
/// merge and at most one copy-on-write per touched filter.
fn handle_batch(inner: &Arc<Inner>, batch: &mut Vec<Ingress>, outputs: &mut Vec<Output>) {
    let mut router = lock(&inner.router);
    for item in batch.drain(..) {
        let from_peer = inner.peer_of_addr.get(&item.from).copied();
        router.handle_into(
            now(inner),
            Event::Datagram {
                from: from_peer,
                data: &item.data,
            },
            &CacheView(&inner.cache),
            outputs,
        );
        apply_outputs(inner, Some(item.from), outputs);
    }
    router.flush_replicas();
    drop(router);
}

/// Deliver one keep-alive [`Event::Tick`] under the router lock: SECHO
/// pings, the failure sweep and (SC mode) the anti-entropy heartbeat.
fn tick(inner: &Inner, outputs: &mut Vec<Output>) {
    let mut router = lock(&inner.router);
    router.handle_into(now(inner), Event::Tick, &CacheView(&inner.cache), outputs);
    apply_outputs(inner, None, outputs);
    router.flush_replicas();
    drop(router);
}

/// Carry out a batch of router outputs: encode the sends once, decide
/// fault-injection drops, and queue the survivors for the egress
/// thread; apply the journal/metric effects inline.
///
/// Callers keep the router lock held across this call whenever the
/// batch may contain update datagrams: sequence allocation and *queue*
/// order must agree, or two concurrent publishes interleave and every
/// receiver sees a phantom gap (the egress queue then preserves that
/// order on the wire). Queuing parks only when the bounded egress
/// queue is full — back-pressure from the socket, by design.
fn apply_outputs(inner: &Inner, sender_addr: Option<SocketAddr>, outputs: &mut Vec<Output>) {
    for output in outputs.drain(..) {
        match output {
            Output::Send(send) => {
                let Ok(bytes) = send.msg.encode(inner.cfg.id()) else {
                    continue; // oversized full bitmap: skip (documented limit)
                };
                let bytes = Arc::new(bytes);
                let targets: Vec<(Option<u32>, SocketAddr)> = match send.to {
                    Dest::Peer(id) => match inner.peers_by_id.get(&id) {
                        Some(p) => vec![(Some(id), p.icp)],
                        None => continue,
                    },
                    Dest::AllPeers => inner
                        .cfg
                        .peers()
                        .iter()
                        .map(|p| (Some(p.id), p.icp))
                        .collect(),
                    Dest::Sender => match sender_addr {
                        Some(addr) => vec![(inner.peer_of_addr.get(&addr).copied(), addr)],
                        None => continue,
                    },
                };
                for (peer, addr) in targets {
                    if send.kind.is_update() && drop_update(inner) {
                        continue; // injected loss: the datagram never leaves
                    }
                    let item = Egress {
                        bytes: bytes.clone(),
                        addr,
                        peer,
                        kind: send.kind,
                    };
                    let _ = inner.egress.send(item);
                }
            }
            Output::Effect(effect) => apply_effect(inner, effect),
        }
    }
}

/// Put one queued datagram on the wire and account it (egress thread).
/// A failed send is not accounted, exactly as when the protocol path
/// transmitted inline.
fn transmit(inner: &Inner, item: Egress) {
    let Egress {
        bytes,
        addr,
        peer,
        kind,
    } = item;
    if inner.udp.send_to(&bytes, addr).is_err() {
        return;
    }
    match kind {
        SendKind::QueryReply | SendKind::Keepalive => {
            inner.stats.udp_out_to(peer, bytes.len());
        }
        SendKind::UpdateDelta => {
            inner.stats.udp_out_to(peer, bytes.len());
            inner.stats.updates_sent.incr();
            inner.stats.update_delta_bytes.record(bytes.len() as u64);
        }
        SendKind::UpdateFull => {
            inner.stats.udp_out_to(peer, bytes.len());
            inner.stats.updates_sent.incr();
            inner.stats.update_full_bytes.record(bytes.len() as u64);
        }
        SendKind::Resync {
            peer: publisher,
            last_generation,
        } => {
            inner.stats.udp_out_to(Some(publisher), bytes.len());
            inner.stats.resync_requests.incr();
            inner.stats.journal().record(
                EventKind::ResyncRequested,
                Some(publisher),
                format!("last seen gen {last_generation}"),
            );
        }
    }
}

/// Apply one router effect to the sc-obs registry (and, for ICP
/// replies, the waiting-request table).
fn apply_effect(inner: &Inner, effect: Effect) {
    match effect {
        Effect::UpdateReceived => inner.stats.updates_received.incr(),
        Effect::QueryServed => inner.stats.icp_queries_served.incr(),
        Effect::ReplicaInstalled {
            peer,
            first_contact,
            generation,
            seq,
            bits,
        } => {
            inner.stats.replica_resyncs.incr();
            inner.stats.journal().record(
                if first_contact {
                    EventKind::PeerSummaryInstalled
                } else {
                    EventKind::ReplicaResynced
                },
                Some(peer),
                format!("gen {generation} seq {seq}, {bits} bits"),
            );
        }
        Effect::UpdateGap {
            peer,
            got_generation,
            got_seq,
            expected_generation,
            expected_seq,
        } => {
            inner.stats.update_gaps.incr();
            inner.stats.journal().record(
                EventKind::UpdateGap,
                Some(peer),
                format!(
                    "got gen {got_generation} seq {got_seq}, expected gen {expected_generation} seq {expected_seq}"
                ),
            );
        }
        Effect::PeerFailed { peer } => {
            inner.stats.peer_failures.incr();
            inner
                .stats
                .journal()
                .record(EventKind::PeerFailed, Some(peer), "summary replica dropped");
        }
        Effect::PeerRecovered { peer } => {
            inner.stats.peer_recoveries.incr();
            inner.stats.journal().record(
                EventKind::PeerRecovered,
                Some(peer),
                "bitmap re-sent, resync requested",
            );
        }
        Effect::Published {
            flips,
            staleness,
            messages,
        } => {
            // Full-versus-delta is now a per-peer-lane decision made at
            // fan-out service time (the §V-D cost rule per lane), so a
            // publish journals the batched flips; full restatements
            // show up as `UpdateFull` sends in the per-peer counters.
            inner.stats.summary_publishes.incr();
            inner.stats.summary_staleness.set(staleness);
            inner.stats.journal().record(
                EventKind::DeltaPublished,
                None,
                format!("staleness {staleness:.4}, {flips} flip(s), {messages} message(s)"),
            );
        }
        Effect::ReplyReceived {
            request_number,
            hit_from,
            replier,
        } => dispatch_reply(inner, request_number, hit_from, replier),
    }
}

/// Serve one TCP connection (keep-alive, sequential requests).
fn serve_tcp(inner: &Inner, mut stream: TcpStream) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        let req = match read_head(&mut stream, &mut buf, http::parse_request) {
            Ok(Some((req, consumed))) => {
                inner.stats.tcp_in(consumed);
                req
            }
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return respond_empty(inner, &mut stream, 400, "Bad Request");
            }
            Err(e) => return Err(e),
        };
        if http::header(&req.headers, "x-peer-fetch").is_some() {
            serve_peer_fetch(inner, &mut stream, &req)?;
        } else {
            serve_client(inner, &mut stream, &req)?;
        }
    }
}

fn respond_empty(
    inner: &Inner,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
) -> std::io::Result<()> {
    let head = http::build_response(status, reason, &[("Content-Length", "0")]);
    inner.stats.tcp_out(head.len());
    stream.write_all(head.as_bytes())
}

/// A neighbour asks for a document we advertised: serve from cache only.
fn serve_peer_fetch(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &http::Request,
) -> std::io::Result<()> {
    // A peer fetch is its own request, keyed once here.
    let key = UrlKey::new(req.target.as_bytes());
    let cached = lock(inner.cache.stripe(&key)).peek(&req.target);
    match cached {
        Some(meta) => reply_doc(inner, stream, meta),
        None => respond_empty(inner, stream, 404, "Not Found"),
    }
}

/// The full client-request path: local cache, then mode-dependent
/// cooperation, then origin; store; reply. Runs on this thread's warm
/// [`RequestScratch`]: a steady-state request reuses the key, the
/// candidate buffer, and the router-output sink instead of allocating.
fn serve_client(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &http::Request,
) -> std::io::Result<()> {
    with_scratch(|scratch| serve_client_on(inner, stream, req, scratch))
}

fn serve_client_on(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &http::Request,
    scratch: &mut RequestScratch,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    inner.stats.http_requests.incr();
    let url = req.target.as_str();
    // THE digest of this request: the URL is hashed exactly once here
    // (into the warm scratch key) and threads through stripe selection,
    // summary probing, and the purge/store directory events — the one
    // sanctioned digest.
    scratch.key.reset(url.as_bytes());
    let want = DocMeta {
        size: http::header(&req.headers, "x-doc-size")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1024),
        last_modified: http::header(&req.headers, "x-doc-lm")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    };

    // 1. Local cache (the stripe owning this URL).
    let lookup = lock(inner.cache.stripe(&scratch.key)).lookup(&req.target, want);
    match lookup {
        Lookup::Hit => {
            inner.stats.local_hits.incr();
            reply_doc(inner, stream, want)?;
            finish_request(inner, t0, scratch);
            return Ok(());
        }
        Lookup::StaleHit => {
            // Purged by lookup(); keep the summary in sync.
            let mut router = lock(&inner.router);
            router.handle_into(
                now(inner),
                Event::Purged { url: &scratch.key },
                &CacheView(&inner.cache),
                &mut scratch.outputs,
            );
            apply_outputs(inner, None, &mut scratch.outputs);
            router.flush_replicas();
        }
        Lookup::Miss => {}
    }

    // 2. Cooperation.
    let fetched = match inner.cfg.mode() {
        Mode::NoIcp => None,
        Mode::Icp => {
            // Query only peers not currently marked failed: a dead peer
            // cannot answer, and every query to it makes an all-miss
            // round wait out the full icp_timeout_ms.
            let live = lock(&inner.router).live_peers();
            query_then_fetch(inner, url, want, &live)
        }
        Mode::SummaryCache { .. } => {
            // Probe every installed peer-summary replica via the
            // lock-free snapshot cell: the request's one UrlKey is
            // tested against each replica's memoized index set, with no
            // router-lock acquisition (and no allocation — the warm
            // candidate buffer is refilled in place) on this path.
            inner
                .replicas
                .load()
                .candidates_key_into(&scratch.key, &mut scratch.candidates);
            let candidates = &scratch.candidates;
            if candidates.is_empty() {
                None
            } else {
                let got = query_then_fetch(inner, url, want, candidates);
                if got.is_none() {
                    // Summary pointed somewhere, nobody had a usable copy.
                    inner.stats.false_hits.incr();
                    for id in candidates {
                        if let Some(p) = inner.stats.peer(*id) {
                            p.false_hits.incr();
                            p.update_staleness();
                        }
                    }
                    inner.stats.journal().record(
                        EventKind::FalseHit,
                        candidates.first().copied(),
                        format!("{} candidate(s) for {url}", candidates.len()),
                    );
                }
                got
            }
        }
    };

    // 3. Origin on a full miss.
    let meta = match fetched {
        Some((peer, meta)) => {
            inner.stats.remote_hits.incr();
            if let Some(p) = inner.stats.peer(peer) {
                p.remote_hits.incr();
            }
            inner
                .stats
                .journal()
                .record(EventKind::RemoteHit, Some(peer), url.to_string());
            meta
        }
        None => match fetch_http(inner, inner.cfg.origin(), url, want, false) {
            Ok(Some(meta)) => meta,
            _ => {
                respond_empty(inner, stream, 504, "Gateway Timeout")?;
                finish_request(inner, t0, scratch);
                return Ok(());
            }
        },
    };

    // 4. Store and maintain the summary.
    store_document(inner, url, meta, scratch);

    // 5. Reply.
    reply_doc(inner, stream, meta)?;
    finish_request(inner, t0, scratch);
    Ok(())
}

fn store_document(inner: &Inner, url: &str, meta: DocMeta, scratch: &mut RequestScratch) {
    // Evictions come out of the same stripe the URL goes into.
    let evicted = lock(inner.cache.stripe(&scratch.key)).store(url.to_string(), meta);
    if let Some(evicted) = evicted {
        // Victims are *other* URLs the request never digested; their
        // keys are computed here (the request's own URL reuses the
        // scratch key). Evictions are the cold tail of a store, so the
        // victim keys are the one allocation the path keeps.
        let victim_keys: Vec<UrlKey> = evicted
            .iter()
            .map(|v| UrlKey::new(v.as_bytes()))
            .collect();
        let mut router = lock(&inner.router);
        router.handle_into(
            now(inner),
            Event::Stored {
                url: &scratch.key,
                evicted: &victim_keys,
            },
            &CacheView(&inner.cache),
            &mut scratch.outputs,
        );
        apply_outputs(inner, None, &mut scratch.outputs);
        router.flush_replicas();
    }
}

fn reply_doc(inner: &Inner, stream: &mut TcpStream, meta: DocMeta) -> std::io::Result<()> {
    let head = http::build_response(
        200,
        "OK",
        &[
            ("Content-Length", &meta.size.to_string()),
            ("X-Doc-LM", &meta.last_modified.to_string()),
        ],
    );
    inner.stats.tcp_out(head.len() + meta.size as usize);
    stream.write_all(head.as_bytes())?;
    write_body(stream, meta.size)
}

/// Post-request bookkeeping: latency and (SC mode) update publishing.
/// The router lock is held across the whole publish fan-out so
/// sequence allocation and egress-queue order agree.
fn finish_request(inner: &Inner, t0: Instant, scratch: &mut RequestScratch) {
    inner.stats.latency(t0.elapsed().as_micros() as u64);
    let mut router = lock(&inner.router);
    router.handle_into(
        now(inner),
        Event::RequestDone,
        &CacheView(&inner.cache),
        &mut scratch.outputs,
    );
    apply_outputs(inner, None, &mut scratch.outputs);
    router.flush_replicas();
    drop(router);
}

/// Should this outgoing update datagram be dropped by fault injection?
fn drop_update(inner: &Inner) -> bool {
    let loss = inner.cfg.update_loss();
    loss > 0.0 && lock(&inner.loss_rng).gen_bool(loss)
}

/// Send ICP queries to `peer_ids`; if one answers HIT, fetch the
/// document from it. Returns the serving peer and the fetched metadata
/// when it matches the requested version (a mismatch is a remote stale
/// hit).
fn query_then_fetch(
    inner: &Inner,
    url: &str,
    want: DocMeta,
    peer_ids: &[u32],
) -> Option<(u32, DocMeta)> {
    if peer_ids.is_empty() {
        return None;
    }
    let reqnum = inner.next_reqnum.fetch_add(1, Ordering::Relaxed);
    let query = IcpMessage::Query {
        request_number: reqnum,
        requester: inner.cfg.id(),
        url: url.to_string(),
    };
    // An oversized URL cannot be queried; treat it as a miss everywhere
    // rather than taking the daemon down.
    let bytes = query.encode(inner.cfg.id()).ok()?;
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    lock(&inner.pending).insert(
        reqnum,
        Pending {
            outstanding: peer_ids.len(),
            hit: None,
            done: Some(tx),
            sent_at: Instant::now(),
        },
    );
    for id in peer_ids {
        let sent = inner
            .peers_by_id
            .get(id)
            .is_some_and(|peer| inner.udp.send_to(&bytes, peer.icp).is_ok());
        if sent {
            inner.stats.udp_out_to(Some(*id), bytes.len());
            inner.stats.icp_queries_sent.incr();
            if let Some(p) = inner.stats.peer(*id) {
                p.queries_sent.incr();
                p.update_staleness();
            }
        } else {
            // A query that never left (unknown peer, failed send) can
            // get no reply: count it as an immediate MISS, so an
            // all-miss round still completes on its last real reply
            // and a round where nothing left completes at once.
            dispatch_reply(inner, reqnum, None, None);
        }
    }
    let winner = rx
        .recv_timeout(Duration::from_millis(inner.cfg.icp_timeout_ms()))
        .ok()
        .flatten();
    lock(&inner.pending).remove(&reqnum);

    let winner = winner?;
    let peer = inner.peers_by_id.get(&winner)?;
    match fetch_http(inner, peer.http, url, want, true) {
        Ok(Some(meta)) if meta == want => {
            if let Some(p) = inner.stats.peer(winner) {
                p.tcp_bytes_fetched.add(meta.size);
            }
            Some((winner, meta))
        }
        Ok(Some(_)) | Ok(None) => {
            // Copy exists but is the wrong version, or vanished between
            // the ICP reply and the fetch.
            inner.stats.remote_stale_hits.incr();
            if let Some(p) = inner.stats.peer(winner) {
                p.stale_hits.incr();
            }
            inner
                .stats
                .journal()
                .record(EventKind::RemoteStaleHit, Some(winner), url.to_string());
            None
        }
        Err(_) => None,
    }
}

/// GET `url` from `addr` (peer or origin) on a fresh connection,
/// counting its bytes into the TCP counters, a failed fetch's included.
/// Returns the served document, or `None` on 404.
fn fetch_http(
    inner: &Inner,
    addr: SocketAddr,
    url: &str,
    want: DocMeta,
    peer: bool,
) -> std::io::Result<Option<DocMeta>> {
    let mut client = ProxyClient::connect(addr)?;
    client.set_peer_fetch(peer);
    let reply = client.get(url, want);
    let (sent, received) = client.bytes_moved();
    inner.stats.tcp_out(sent);
    inner.stats.tcp_in(received);
    let reply = reply?;
    Ok((reply.status != 404).then_some(reply.meta))
}

/// Route an ICP reply to the waiting query, completing it on the first
/// HIT or once every peer has answered. `replier` (when the source
/// address maps to a known peer) gets the round trip recorded into its
/// RTT histogram.
fn dispatch_reply(inner: &Inner, reqnum: u32, hit_from: Option<u32>, replier: Option<u32>) {
    let mut pending = lock(&inner.pending);
    let Some(p) = pending.get_mut(&reqnum) else {
        return; // late reply after timeout
    };
    if let Some(ps) = replier.and_then(|id| inner.stats.peer(id)) {
        ps.icp_rtt_us.record(p.sent_at.elapsed().as_micros() as u64);
    }
    p.outstanding = p.outstanding.saturating_sub(1);
    if let Some(id) = hit_from {
        p.hit = Some(id);
    }
    if p.hit.is_some() || p.outstanding == 0 {
        if let Some(done) = p.done.take() {
            let _ = done.try_send(p.hit);
        }
        pending.remove(&reqnum);
    }
}

/// A generation identifier that is, with overwhelming probability,
/// different from the one any previous incarnation of this daemon
/// used: peers compare it to detect a restart and resync rather than
/// applying deltas to a replica of the old lifetime's bitmap.
fn fresh_generation(id: u32) -> u32 {
    static SALT: AtomicU32 = AtomicU32::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let mixed = nanos ^ ((id as u64) << 40) ^ ((SALT.fetch_add(1, Ordering::Relaxed) as u64) << 52);
    ((mixed ^ (mixed >> 32)) as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // server_of / flips-chunking tests moved to crate::machine with the
    // logic they exercise.

    #[test]
    fn fresh_generations_differ_between_incarnations() {
        let a = fresh_generation(7);
        let b = fresh_generation(7);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        // The salt alone guarantees consecutive calls differ even within
        // one nanosecond tick.
        assert_ne!(a, b);
    }

    #[test]
    fn cache_stripes_partition_and_count() {
        let stripes = CacheStripes::new(1 << 20, 4);
        let urls: Vec<String> = (0..32).map(|i| format!("http://s/{i}")).collect();
        let meta = DocMeta {
            size: 100,
            last_modified: 1,
        };
        for url in &urls {
            let key = UrlKey::new(url.as_bytes());
            lock(stripes.stripe(&key)).store(url.clone(), meta);
        }
        assert_eq!(stripes.len(), urls.len());
        for url in &urls {
            let key = UrlKey::new(url.as_bytes());
            assert!(
                lock(stripes.stripe(&key)).contains(url),
                "{url} on its stripe"
            );
        }
        let used = stripes
            .stripes
            .iter()
            .filter(|s| !lock(s).is_empty())
            .count();
        assert!(used > 1, "32 URLs spread over >1 of 4 stripes");
    }

    /// The daemon half of the hash-once pin: a served client request
    /// costs exactly ONE MD5 digest of its URL — stripe selection, the
    /// replica probe, the store and the directory events all reuse the
    /// entry key. `blocks_hashed` is per-thread, so the connection is
    /// served on this test thread while a client thread drives it; every
    /// URL is shorter than 56 bytes, so one digest is one block.
    #[test]
    fn served_request_digests_its_url_exactly_once() {
        use crate::origin::Origin;

        const REQUESTS: u64 = 40;
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let origin = Origin::spawn(Duration::ZERO).expect("origin");
        // SC mode needs a peer; this one never publishes a summary, so
        // its replica stays empty and no request ever queries it.
        let peer_icp = UdpSocket::bind(loopback).expect("peer socket");
        let peer = PeerAddr {
            id: 2,
            icp: peer_icp.local_addr().expect("peer addr"),
            http: origin.addr,
        };
        let cfg = ProxyConfig::builder()
            .id(1)
            .mode(Mode::summary_cache_default())
            .peers(vec![peer])
            .origin(origin.addr)
            .cache_bytes(8 << 20)
            .keepalive_ms(0)
            .build()
            .expect("config");
        let daemon = Daemon::spawn_on(
            cfg,
            TcpListener::bind(loopback).expect("http"),
            UdpSocket::bind(loopback).expect("icp"),
        )
        .expect("daemon");

        let listener = TcpListener::bind(loopback).expect("listener");
        let addr = listener.local_addr().expect("listener addr");
        let client = std::thread::spawn(move || {
            let mut c = ProxyClient::connect(addr).expect("connect");
            for i in 0..REQUESTS {
                // Ten URLs, four requests each: 10 misses, 30 local hits.
                let url = format!("http://s.invalid/doc/{}", i % 10);
                let meta = DocMeta {
                    size: 128,
                    last_modified: 1,
                };
                assert_eq!(c.get(&url, meta).expect("get").status, 200);
            }
        });

        // The thread's scratch key is built (and digested) on first use.
        with_scratch(|_| ());
        let before = sc_md5::blocks_hashed();
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        serve_tcp(&daemon.inner, stream).expect("serve");
        let blocks = sc_md5::blocks_hashed() - before;
        client.join().expect("client thread");

        let s = daemon.stats.snapshot();
        assert_eq!((s.http_requests, s.local_hits), (REQUESTS, 30), "{s:?}");
        assert_eq!(
            blocks, REQUESTS,
            "one digest per request, none downstream of entry"
        );
    }
}
