//! The proxy daemon: HTTP front end, document cache, ICP endpoint, and
//! the summary-cache machinery of Section VI-B.
//!
//! Every protocol *decision* lives in [`crate::router`], as in the
//! [`crate::simnet`]: the daemon is the I/O shell that feeds the
//! [`Router`] real datagrams, timer ticks and cache events, and carries
//! out the sends and journal/metric effects it returns.
//!
//! One daemon = a small thread group sharing an internal state block:
//!
//! * a TCP accept loop (`net::spawn_accept_loop`) serving
//!   clients (and peers fetching remote hits), one thread per
//!   connection;
//! * a UDP **ingest** thread: receives ICP datagrams and queues them for
//!   the protocol thread;
//! * a **protocol** thread, the router's one owner: it drains one
//!   bounded input queue (datagrams, directory changes and ICP query
//!   rounds from request threads) in batches, flushing the replica
//!   snapshot once per batch, and delivers [`Event::Tick`] when a
//!   keep-alive falls due. It is the only writer to the UDP socket:
//!   the router's sends, in the order decided, and each round's
//!   queries, whose replies it feeds to the round's [`QueryRound`];
//! * an admin TCP endpoint ([`crate::admin`]) exposing the sc-obs
//!   registry every counter below lives in.
//!
//! As on a simnet node, a store or a stale purge queues its event plus
//! one `RequestDone`, and a local hit runs no router code. Request
//! threads read peer replicas and live peers from the [`ReplicaCell`].
//!
//! The document cache is striped by `UrlKey` digest
//! ([`crate::router::stripe_of`]), so cache-lock contention splits
//! [`ProxyConfig::shards`] ways; the router keeps a single directory for
//! the whole cache.
//!
//! Everything here is plain `std`. This module is one of the socket
//! shells that opt out of the sans-I/O lints in `crates/clippy.toml`
//! (see `lib.rs`).

use crate::client::ProxyClient;
use crate::config::{Mode, PeerAddr, ProxyConfig};
use crate::machine::{
    Answer, Dest, DirectoryView, Effect, Event, Output, QueryRound, SendKind, VirtualTime,
};
use crate::net::{read_head, spawn_accept_loop, write_body};
use crate::replica::ReplicaCell;
use crate::router::{DirectoryInspect, Router};
use crate::stats::ProxyStats;
use sc_bloom::BitVec;
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_obs::EventKind;
use sc_util::fxhash::FxHashMap;
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
/// Bound of the protocol thread's input queue. When the protocol thread
/// falls behind, senders block: the ingest thread leaves the excess to
/// the kernel socket buffer (ICP loss is survivable), and a request
/// thread waits, since a lost directory change is a correctness bug.
const INPUT_QUEUE: usize = 1024;
/// Most inputs the protocol thread folds into one replica-snapshot flush.
const INPUT_BATCH: usize = 64;

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

/// One input for the protocol thread. All but `Query` and `Inspect`
/// become the router [`Event`] of the same name.
enum Input {
    /// A received datagram (ingest thread).
    Datagram { data: Vec<u8>, from: SocketAddr },
    /// A request stored its URL, evicting `evicted`. The key is the
    /// request's own, cloned, so nothing is re-digested.
    Stored { key: UrlKey, evicted: Vec<UrlKey> },
    /// A stale hit purged its URL.
    Purged(UrlKey),
    /// A request that sent `Stored` or `Purged` finished.
    RequestDone,
    /// Open an ICP round: send the encoded `query` to `peers`, and send
    /// the HIT sender (or `None`) to `done` when the round ends. Replies
    /// queue behind this input, so the round exists before they arrive.
    Query {
        reqnum: u32,
        query: Vec<u8>,
        peers: Vec<u32>,
        deadline: VirtualTime,
        done: SyncSender<Option<u32>>,
    },
    /// Run a read-only closure against the router.
    Inspect(Box<dyn FnOnce(&Router) + Send>),
}

/// An open ICP round on the protocol thread.
struct Round {
    round: QueryRound,
    done: SyncSender<Option<u32>>,
    /// When the queries left, for per-peer RTT histograms.
    sent_at: VirtualTime,
}

struct Inner {
    cfg: ProxyConfig,
    stats: Arc<ProxyStats>,
    /// The document cache, striped by the router's `UrlKey` space.
    cache: CacheStripes,
    /// Read path: the router publishes its peer replicas and
    /// live-peer set here, and request threads read them.
    replicas: Arc<ReplicaCell>,
    /// Wall-clock origin of the router's [`VirtualTime`] axis.
    epoch: Instant,
    /// ICP source address -> peer id, for dispatching replies.
    peer_of_addr: FxHashMap<SocketAddr, u32>,
    peers_by_id: FxHashMap<u32, PeerAddr>,
    udp: UdpSocket,
    /// Producer side of the protocol thread's bounded input queue.
    input: SyncSender<Input>,
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
        let (input, input_rx) = std::sync::mpsc::sync_channel::<Input>(INPUT_QUEUE);
        let inner = Arc::new(Inner {
            stats: stats.clone(),
            cache: CacheStripes::new(cfg.cache_bytes(), cfg.shards()),
            replicas: router.replica_cell(),
            epoch: Instant::now(),
            peer_of_addr: cfg.peers().iter().map(|p| (p.icp, p.id)).collect(),
            peers_by_id: cfg.peers().iter().map(|p| (p.id, *p)).collect(),
            udp,
            input,
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

        // UDP ingest: datagram in -> input queue. This thread only
        // receives and accounts, so a burst never stalls behind a
        // publish fan-out.
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
                            let data = buf[..n].to_vec();
                            if inner.input.send(Input::Datagram { data, from }).is_err() {
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

        // Protocol: batch the input queue through the router, and
        // deliver a keep-alive tick whenever one falls due — in every
        // mode, since keep-alives are the paper's no-ICP baseline
        // traffic.
        {
            let mut protocol = Protocol {
                inner: inner.clone(),
                router,
                outputs: Vec::new(),
                rounds: FxHashMap::default(),
            };
            let stop = shutdown.clone();
            let period = (inner.cfg.keepalive_ms() > 0 && !inner.cfg.peers().is_empty())
                .then(|| Duration::from_millis(inner.cfg.keepalive_ms()));
            std::thread::spawn(move || {
                let mut next_tick = period.map(|p| Instant::now() + p);
                while !stop.load(Ordering::Relaxed) {
                    let wait = next_tick.map_or(UDP_POLL, |due| {
                        due.saturating_duration_since(Instant::now())
                    });
                    match input_rx.recv_timeout(wait) {
                        Ok(first) => {
                            protocol.handle(first);
                            for input in input_rx.try_iter().take(INPUT_BATCH - 1) {
                                protocol.handle(input);
                            }
                            protocol.router.flush_replicas();
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    if let (Some(due), Some(period)) = (next_tick, period) {
                        if Instant::now() >= due {
                            protocol.route(None, Event::Tick);
                            protocol.router.flush_replicas();
                            next_tick = Some(Instant::now() + period);
                        }
                    }
                    let t = now(&protocol.inner);
                    protocol.rounds.retain(|_, r| !r.round.expired(t));
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

    /// Run `f` on the protocol thread against the router it owns, after
    /// every input queued before it; `None` once the daemon has stopped.
    fn inspect<R: Send + 'static>(
        &self,
        f: impl FnOnce(&Router) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let ask = Input::Inspect(Box::new(move |router| {
            let _ = tx.send(f(router));
        }));
        self.inner.input.send(ask).ok()?;
        rx.recv().ok()
    }
}

/// The daemon's introspection surface is the same trait the router
/// implements: tests and tools speak one vocabulary, whichever layer
/// they hold.
impl DirectoryInspect for Daemon {
    fn replicated_peers(&self) -> Vec<u32> {
        self.inspect(|r| r.replicated_peers()).unwrap_or_default()
    }

    fn replica_bits(&self, peer: u32) -> Option<BitVec> {
        self.inspect(move |r| r.replica_bits(peer)).flatten()
    }

    fn published_bits(&self) -> Option<BitVec> {
        self.inspect(|r| r.published_bits()).flatten()
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

/// What the protocol thread owns. It is the only thread that feeds the
/// router or writes to the UDP socket, so sequence allocation and wire
/// order agree by construction: two publishes cannot interleave into a
/// phantom gap at a receiver.
struct Protocol {
    inner: Arc<Inner>,
    router: Router,
    /// Warm router-output sink, reused across inputs.
    outputs: Vec<Output>,
    /// Open ICP rounds by request number; dropped at their deadline.
    rounds: FxHashMap<u32, Round>,
}

impl Protocol {
    /// Feed one input to the router and carry out what it decides.
    /// Replica publication is left to the caller's per-batch flush, so
    /// N delta datagrams in a batch share one snapshot merge and at
    /// most one copy-on-write per touched filter.
    fn handle(&mut self, input: Input) {
        match input {
            Input::Datagram { data, from } => {
                let peer = self.inner.peer_of_addr.get(&from).copied();
                self.route(Some(from), Event::Datagram { from: peer, data: &data });
            }
            Input::Stored { key, evicted } => self.route(
                None,
                Event::Stored {
                    url: &key,
                    evicted: &evicted,
                },
            ),
            Input::Purged(key) => self.route(None, Event::Purged { url: &key }),
            Input::RequestDone => self.route(None, Event::RequestDone),
            Input::Query { reqnum, query, peers, deadline, done } => {
                let inner = &*self.inner;
                let sent_at = now(inner);
                let mut round = QueryRound::new(&peers, deadline);
                for id in peers {
                    let peer = inner.peers_by_id.get(&id);
                    if peer.is_some_and(|p| send_udp(inner, &query, p.icp)) {
                        inner.stats.udp_out_to(Some(id), query.len());
                        inner.stats.icp_queries_sent.incr();
                        if let Some(p) = inner.stats.peer(id) {
                            p.queries_sent.incr();
                            p.update_staleness();
                        }
                    } else if round.strike(id) == Answer::Ended(None) {
                        // Nothing left: the round is over before it began.
                        let _ = done.try_send(None);
                        return;
                    }
                }
                self.rounds.insert(reqnum, Round { round, done, sent_at });
            }
            Input::Inspect(f) => f(&self.router),
        }
    }

    /// Run one router event and apply its outputs: encode and transmit
    /// each send, and apply the journal/metric effects.
    fn route(&mut self, sender_addr: Option<SocketAddr>, event: Event<'_>) {
        let inner = &*self.inner;
        let dir = &CacheView(&inner.cache);
        let t = now(inner);
        self.router.handle_into(t, event, dir, &mut self.outputs);
        for output in self.outputs.drain(..) {
            let send = match output {
                Output::Send(send) => send,
                Output::Effect(effect) => {
                    apply_effect(&inner.stats, &mut self.rounds, t, effect);
                    continue;
                }
            };
            let Ok(bytes) = send.msg.encode(inner.cfg.id()) else {
                continue; // oversized full bitmap: skip (documented limit)
            };
            let (peer, addr) = match send.to {
                Dest::Peer(id) => match inner.peers_by_id.get(&id) {
                    Some(p) => (Some(id), p.icp),
                    None => continue,
                },
                Dest::Sender => match sender_addr {
                    Some(addr) => (inner.peer_of_addr.get(&addr).copied(), addr),
                    None => continue,
                },
            };
            transmit(inner, &bytes, addr, peer, send.kind);
        }
    }
}

/// Put one router-decided datagram on the wire and account it by kind.
/// A failed send counts only into `sc_udp_send_failed_total`.
fn transmit(inner: &Inner, bytes: &[u8], addr: SocketAddr, peer: Option<u32>, kind: SendKind) {
    if !send_udp(inner, bytes, addr) {
        return;
    }
    let stats = &inner.stats;
    match kind {
        SendKind::QueryReply | SendKind::Keepalive => stats.udp_out_to(peer, bytes.len()),
        SendKind::UpdateDelta | SendKind::UpdateFull => {
            stats.udp_out_to(peer, bytes.len());
            stats.updates_sent.incr();
            let sizes = match kind {
                SendKind::UpdateDelta => &stats.update_delta_bytes,
                _ => &stats.update_full_bytes,
            };
            sizes.record(bytes.len() as u64);
        }
        SendKind::Resync {
            peer: publisher,
            last_generation,
        } => {
            stats.udp_out_to(Some(publisher), bytes.len());
            stats.resync_requests.incr();
            stats.journal().record(
                EventKind::ResyncRequested,
                Some(publisher),
                format!("last seen gen {last_generation}"),
            );
        }
    }
}

/// Send one datagram (a router send or an ICP query); a send the socket
/// refused is counted, not lost silently.
fn send_udp(inner: &Inner, bytes: &[u8], addr: SocketAddr) -> bool {
    let sent = inner.udp.send_to(bytes, addr).is_ok();
    if !sent {
        inner.stats.udp_send_failed.incr();
    }
    sent
}

/// Apply one router effect to the sc-obs registry, or feed an ICP reply
/// to its open round.
fn apply_effect(
    stats: &ProxyStats,
    rounds: &mut FxHashMap<u32, Round>,
    now: VirtualTime,
    effect: Effect,
) {
    match effect {
        Effect::UpdateReceived => stats.updates_received.incr(),
        Effect::QueryServed => stats.icp_queries_served.incr(),
        Effect::ReplicaInstalled {
            peer,
            first_contact,
            generation,
            seq,
            bits,
        } => {
            stats.replica_resyncs.incr();
            stats.journal().record(
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
            stats.update_gaps.incr();
            stats.journal().record(
                EventKind::UpdateGap,
                Some(peer),
                format!(
                    "got gen {got_generation} seq {got_seq}, expected gen {expected_generation} seq {expected_seq}"
                ),
            );
        }
        Effect::PeerFailed { peer } => {
            stats.peer_failures.incr();
            stats.journal().record(EventKind::PeerFailed, Some(peer), "summary replica dropped");
        }
        Effect::PeerRecovered { peer } => {
            stats.peer_recoveries.incr();
            let note = "bitmap re-sent, resync requested";
            stats.journal().record(EventKind::PeerRecovered, Some(peer), note);
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
            stats.summary_publishes.incr();
            stats.summary_staleness.set(staleness);
            stats.journal().record(
                EventKind::DeltaPublished,
                None,
                format!("staleness {staleness:.4}, {flips} flip(s), {messages} message(s)"),
            );
        }
        Effect::ReplyReceived {
            request_number,
            hit_from,
            replier,
        } => {
            let Some((peer, r)) = replier.zip(rounds.get_mut(&request_number)) else {
                return; // an unknown source, or a round already over
            };
            let answer = r.round.reply(peer, hit_from.is_some(), now);
            if answer != Answer::Ignored {
                if let Some(ps) = stats.peer(peer) {
                    ps.icp_rtt_us.record(now.saturating_since(r.sent_at).as_micros() as u64);
                }
            }
            if let Answer::Ended(winner) = answer {
                let _ = r.done.try_send(winner);
                rounds.remove(&request_number);
            }
        }
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
            with_scratch(|scratch| serve_client(inner, &mut stream, &req, scratch))?;
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

    // 1. Local cache (the stripe owning this URL). A hit changes no
    // directory state, so it queues nothing for the router.
    let lookup = lock(inner.cache.stripe(&scratch.key)).lookup(&req.target, want);
    let purged = match lookup {
        Lookup::Hit => {
            inner.stats.local_hits.incr();
            reply_doc(inner, stream, want)?;
            inner.stats.latency(t0.elapsed().as_micros() as u64);
            return Ok(());
        }
        Lookup::StaleHit => {
            // Purged by lookup(); keep the summary in sync.
            let _ = inner.input.send(Input::Purged(scratch.key.clone()));
            true
        }
        Lookup::Miss => false,
    };

    // 2. Cooperation.
    let fetched = match inner.cfg.mode() {
        Mode::NoIcp => None,
        Mode::Icp => {
            // Query only peers not currently marked failed: a dead peer
            // cannot answer, and every query to it makes an all-miss
            // round wait out the full icp_timeout_ms.
            let snapshot = inner.replicas.load();
            query_then_fetch(inner, url, want, snapshot.live_peers())
        }
        Mode::SummaryCache { .. } => {
            // Probe every installed peer-summary replica via the
            // snapshot cell: the request's one UrlKey is
            // tested against each replica's memoized index set, with no
            // allocation (the warm candidate buffer is refilled in
            // place) on this path.
            inner
                .replicas
                .load()
                .candidates_key_into(&scratch.key, &mut scratch.candidates);
            query_then_fetch(inner, url, want, &scratch.candidates)
        }
    };

    // 3. Origin on a full miss.
    let fetched = fetched.or_else(|| fetch_http(inner, inner.cfg.origin(), url, want, false).ok()?);
    let Some(meta) = fetched else {
        if purged {
            let _ = inner.input.send(Input::RequestDone);
        }
        respond_empty(inner, stream, 504, "Gateway Timeout")?;
        inner.stats.latency(t0.elapsed().as_micros() as u64);
        return Ok(());
    };

    // 4. Store and maintain the summary. A request that changed the
    // directory ends with one `RequestDone` (the input the publish policy
    // counts), queued before the reply: a client that saw the reply and
    // then inspects the daemon sees the request's events applied.
    if store_document(inner, url, meta, scratch) || purged {
        let _ = inner.input.send(Input::RequestDone);
    }

    // 5. Reply.
    reply_doc(inner, stream, meta)?;
    inner.stats.latency(t0.elapsed().as_micros() as u64);
    Ok(())
}

/// Cache the fetched document and queue the store (with its evictions)
/// for the router. Returns whether a `Stored` input was queued (an
/// uncacheable document changes nothing).
fn store_document(inner: &Inner, url: &str, meta: DocMeta, scratch: &RequestScratch) -> bool {
    // Evictions come out of the same stripe the URL goes into.
    let evicted = lock(inner.cache.stripe(&scratch.key)).store(url.to_string(), meta);
    let Some(evicted) = evicted else {
        return false;
    };
    // Victims are *other* URLs the request never digested; their keys
    // are computed here (the request's own URL reuses the scratch key).
    let evicted = evicted.iter().map(|v| UrlKey::new(v.as_bytes())).collect();
    let key = scratch.key.clone();
    let _ = inner.input.send(Input::Stored { key, evicted });
    true
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

/// Send ICP queries to `peer_ids`; if one answers HIT, fetch the
/// document from it. Returns the fetched metadata when it matches the
/// requested version, a remote hit (a mismatch is a remote stale hit).
/// In SC mode `peer_ids` are the summary's candidates, and a round with
/// no HIT is counted as a false hit.
fn query_then_fetch(inner: &Inner, url: &str, want: DocMeta, peer_ids: &[u32]) -> Option<DocMeta> {
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
    let query = query.encode(inner.cfg.id()).ok()?;
    // The protocol thread sends the queries and runs the round. Its
    // deadline is stamped before this thread starts waiting, so a reply
    // the round takes always finds this thread still waiting.
    let timeout = Duration::from_millis(inner.cfg.icp_timeout_ms());
    let deadline = VirtualTime::from_micros((inner.epoch.elapsed() + timeout).as_micros() as u64);
    let (done, rx) = std::sync::mpsc::sync_channel(1);
    let peers = peer_ids.to_vec();
    inner.input.send(Input::Query { reqnum, query, peers, deadline, done }).ok()?;
    let stats = &inner.stats;
    let Some(winner) = rx.recv_timeout(timeout).ok().flatten() else {
        if matches!(inner.cfg.mode(), Mode::SummaryCache { .. }) {
            // The summaries pointed here and no candidate answered HIT:
            // the paper's false hit. A HIT whose copy turns out stale is
            // a remote stale hit instead, counted below.
            stats.false_hits.incr();
            for id in peer_ids {
                if let Some(p) = stats.peer(*id) {
                    p.false_hits.incr();
                    p.update_staleness();
                }
            }
            stats.journal().record(
                EventKind::FalseHit,
                peer_ids.first().copied(),
                format!("{} candidate(s) for {url}", peer_ids.len()),
            );
        }
        return None;
    };
    let peer = inner.peers_by_id.get(&winner)?;
    match fetch_http(inner, peer.http, url, want, true) {
        Ok(Some(meta)) if meta == want => {
            stats.remote_hits.incr();
            if let Some(p) = stats.peer(winner) {
                p.tcp_bytes_fetched.add(meta.size);
                p.remote_hits.incr();
            }
            stats.journal().record(EventKind::RemoteHit, Some(winner), url.to_string());
            Some(meta)
        }
        Ok(Some(_)) | Ok(None) => {
            // Copy exists but is the wrong version, or vanished between
            // the ICP reply and the fetch.
            stats.remote_stale_hits.incr();
            if let Some(p) = stats.peer(winner) {
                p.stale_hits.incr();
            }
            stats.journal().record(EventKind::RemoteStaleHit, Some(winner), url.to_string());
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
    use summary_cache_core::UpdatePolicy;

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

    /// An SC-mode daemon under `policy` with no keep-alives, its
    /// origin, and the ICP socket of its one peer. SC mode needs a peer;
    /// this one never publishes a summary, so its replica stays empty
    /// and no request ever queries it.
    fn sc_daemon(policy: UpdatePolicy) -> (Daemon, crate::origin::Origin, UdpSocket) {
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let origin = crate::origin::Origin::spawn(Duration::ZERO).expect("origin");
        let peer_icp = UdpSocket::bind(loopback).expect("peer socket");
        let peer = PeerAddr {
            id: 2,
            icp: peer_icp.local_addr().expect("peer addr"),
            http: origin.addr,
        };
        let cfg = ProxyConfig::builder()
            .id(1)
            .mode(Mode::SummaryCache {
                load_factor: 8,
                hashes: 4,
                policy,
            })
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
        (daemon, origin, peer_icp)
    }

    fn doc() -> DocMeta {
        DocMeta {
            size: 128,
            last_modified: 1,
        }
    }

    /// The daemon half of the hash-once pin: a served client request
    /// costs exactly ONE MD5 digest of its URL — stripe selection, the
    /// replica probe, the store and the directory events all reuse the
    /// entry key. `blocks_hashed` is per-thread, so the connection is
    /// served on this test thread while a client thread drives it; every
    /// URL is shorter than 56 bytes, so one digest is one block.
    #[test]
    fn served_request_digests_its_url_exactly_once() {
        const REQUESTS: u64 = 40;
        let (daemon, _origin, _peer) = sc_daemon(UpdatePolicy::Threshold(0.01));

        let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).expect("listener");
        let addr = listener.local_addr().expect("listener addr");
        let client = std::thread::spawn(move || {
            let mut c = ProxyClient::connect(addr).expect("connect");
            for i in 0..REQUESTS {
                // Ten URLs, four requests each: 10 misses, 30 local hits.
                let url = format!("http://s.invalid/doc/{}", i % 10);
                assert_eq!(c.get(&url, doc()).expect("get").status, 200);
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

    /// A local hit runs no router code and queues nothing: with the
    /// protocol thread parked inside an `Inspect`, hits and misses are
    /// all served, and the misses' stores reach the published summary
    /// once the thread is released.
    #[test]
    fn local_hits_complete_while_the_router_owner_is_busy() {
        let (daemon, _origin, _peer) = sc_daemon(UpdatePolicy::Threshold(0.0));
        let warm: Vec<String> = (0..3).map(|i| format!("http://s.invalid/warm/{i}")).collect();
        let fresh: Vec<String> = (0..3).map(|i| format!("http://s.invalid/new/{i}")).collect();
        let mut c = ProxyClient::connect(daemon.http_addr).expect("connect");
        for url in &warm {
            assert_eq!(c.get(url, doc()).expect("warm-up").status, 200);
        }

        let release = park_protocol_thread(&daemon);
        let served = Arc::new(AtomicU32::new(0));
        let (done_tx, done) = std::sync::mpsc::channel();
        let counter = served.clone();
        std::thread::spawn(move || {
            let urls = (0..200).map(|i| &warm[i % 3]).chain(&fresh);
            for url in urls {
                assert_eq!(c.get(url, doc()).expect("get").status, 200);
                counter.fetch_add(1, Ordering::Relaxed);
            }
            let _ = done_tx.send(fresh);
        });
        let got = done.recv_timeout(Duration::from_secs(10));
        let n = served.load(Ordering::Relaxed);
        let _ = release.send(());
        let fresh = got.unwrap_or_else(|_| panic!("served {n} of 203 requests while parked"));
        let s = daemon.stats.snapshot();
        assert_eq!((s.http_requests, s.local_hits), (206, 200), "{s:?}");

        let kind = SummaryKind::Bloom {
            load_factor: 8,
            hashes: 4,
        };
        let summary = ProxySummary::with_expected_docs(kind, daemon.inner.cfg.expected_docs());
        let (spec, _) = summary.bloom().expect("a Bloom summary");
        let covered = |bits: &BitVec| {
            fresh.iter().all(|url| spec.indices(url.as_bytes()).iter().all(|&i| bits.get(i as usize)))
        };
        assert!(
            sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(5), || {
                daemon.published_bits().is_some_and(|bits| covered(&bits))
            }),
            "the stores queued while parked are published after release"
        );
    }

    /// Park the daemon's protocol thread inside an `Inspect` until the
    /// returned sender sends (or drops); inputs queue up meanwhile.
    fn park_protocol_thread(daemon: &Daemon) -> std::sync::mpsc::Sender<()> {
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let park = Input::Inspect(Box::new(move |_| {
            let _ = parked_tx.send(());
            let _ = released.recv();
        }));
        daemon.inner.input.send(park).expect("input queue");
        parked.recv_timeout(Duration::from_secs(5)).expect("protocol thread parks");
        release
    }

    /// Publish parity with the simnet: `EveryRequests(n)` counts only
    /// requests that changed the directory, so local hits in between
    /// never bring a publish forward.
    #[test]
    fn every_requests_counts_only_requests_that_changed_the_directory() {
        let (daemon, _origin, _peer) = sc_daemon(UpdatePolicy::EveryRequests(2));
        let mut c = ProxyClient::connect(daemon.http_addr).expect("connect");
        let mut get = |url: &str| assert_eq!(c.get(url, doc()).expect("get").status, 200);
        for _ in 0..4 {
            get("http://s.invalid/a"); // one miss, then three local hits
        }
        // An inspection is queued behind every input the served
        // requests queued, so its reply is a barrier.
        let _ = daemon.published_bits();
        assert_eq!(daemon.stats.summary_publishes.get(), 0, "hits do not count");
        get("http://s.invalid/b");
        let _ = daemon.published_bits();
        assert_eq!(daemon.stats.summary_publishes.get(), 1, "the second store publishes");
    }

    /// An ICP-mode daemon with no keep-alives whose peers 2, 3, ... are
    /// sockets the test holds (their HTTP side is the origin), so the
    /// test plays every peer's ICP part by hand.
    fn icp_daemon(
        peers: usize,
        icp_timeout_ms: u64,
    ) -> (Daemon, crate::origin::Origin, Vec<UdpSocket>) {
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let origin = crate::origin::Origin::spawn(Duration::ZERO).expect("origin");
        let sockets: Vec<UdpSocket> =
            (0..peers).map(|_| UdpSocket::bind(loopback).expect("peer socket")).collect();
        let peers = (2..)
            .zip(&sockets)
            .map(|(id, socket)| PeerAddr {
                id,
                icp: socket.local_addr().expect("peer addr"),
                http: origin.addr,
            })
            .collect();
        let cfg = ProxyConfig::builder()
            .id(1)
            .mode(Mode::Icp)
            .peers(peers)
            .origin(origin.addr)
            .icp_timeout_ms(icp_timeout_ms)
            .keepalive_ms(0)
            .build()
            .expect("config");
        let daemon = Daemon::spawn_on(
            cfg,
            TcpListener::bind(loopback).expect("http"),
            UdpSocket::bind(loopback).expect("icp"),
        )
        .expect("daemon");
        (daemon, origin, sockets)
    }

    /// GET `url` from `daemon` on a client thread.
    fn get_in_background(daemon: &Daemon, url: &'static str) -> std::thread::JoinHandle<()> {
        let http = daemon.http_addr;
        std::thread::spawn(move || {
            let mut c = ProxyClient::connect(http).expect("connect");
            assert_eq!(c.get(url, doc()).expect("get").status, 200);
        })
    }

    /// A query the daemon sent to `socket`: where it came from, its
    /// request number and its URL.
    type Query = (SocketAddr, u32, String);

    fn recv_query(socket: &UdpSocket) -> Query {
        socket.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = [0u8; 2048];
        let (n, daemon_icp) = socket.recv_from(&mut buf).expect("a query");
        let IcpMessage::Query { request_number, url, .. } =
            IcpMessage::decode(&buf[..n]).expect("decodes")
        else {
            panic!("expected a query");
        };
        (daemon_icp, request_number, url)
    }

    /// Answer `query` from the peer `id` behind `socket`.
    fn reply(socket: &UdpSocket, id: u32, hit: bool, (to, request_number, url): &Query) {
        let (request_number, url) = (*request_number, url.clone());
        let msg = if hit {
            IcpMessage::Hit { request_number, url }
        } else {
            IcpMessage::Miss { request_number, url }
        };
        socket.send_to(&msg.encode(id).expect("encodes"), to).expect("send");
    }

    /// An ICP round ends when every queried peer has answered, not
    /// after as many datagrams as there were queries: UDP may duplicate
    /// a MISS, and a duplicate must not end the round before a slower
    /// peer's HIT arrives.
    #[test]
    fn a_duplicated_miss_does_not_end_the_round_early() {
        let (daemon, _origin, sockets) = icp_daemon(2, 5_000);
        let client = get_in_background(&daemon, "http://s.invalid/dup");
        let queries: Vec<Query> = sockets.iter().map(recv_query).collect();
        reply(&sockets[0], 2, false, &queries[0]);
        reply(&sockets[0], 2, false, &queries[0]);
        reply(&sockets[1], 3, true, &queries[1]);
        client.join().expect("client thread");
        let s = daemon.stats.snapshot();
        assert_eq!((s.remote_hits, s.icp_queries_sent), (1, 2), "{s:?}");
    }

    /// A reply that arrives after the round's deadline changes nothing:
    /// the request has already gone to the origin, no remote hit is
    /// counted, and the late reply adds no round-trip sample.
    #[test]
    fn a_hit_after_the_deadline_is_ignored() {
        let (daemon, _origin, sockets) = icp_daemon(1, 30);
        let client = get_in_background(&daemon, "http://s.invalid/late");
        let query = recv_query(&sockets[0]);
        // With the protocol thread parked, the round cannot be dropped
        // at its deadline: the late HIT meets the open round itself.
        let release = park_protocol_thread(&daemon);
        client.join().expect("served from the origin after the timeout");
        reply(&sockets[0], 2, true, &query);
        // A query from the same peer is handled after the HIT, so its
        // answer means the HIT has been handled too.
        let url = "http://s.invalid/probe".to_string();
        let probe = IcpMessage::Query { request_number: 99, requester: 2, url };
        sockets[0].send_to(&probe.encode(2).expect("encodes"), query.0).expect("send");
        // The ingest thread queues each datagram before it reads the
        // next, so once the probe is counted the HIT is queued.
        let both_in = || daemon.stats.snapshot().udp_recv == 2;
        assert!(sc_util::poll::wait_until(Duration::from_secs(5), Duration::from_millis(1), both_in));
        let _ = release.send(());
        sockets[0].recv_from(&mut [0u8; 2048]).expect("the probe's answer");
        let s = daemon.stats.snapshot();
        assert_eq!((s.http_requests, s.remote_hits, s.icp_queries_sent), (1, 0, 1), "{s:?}");
        let rtt = &daemon.stats.peer(2).expect("peer 2").icp_rtt_us;
        assert_eq!(rtt.snapshot().samples(), 0, "a late reply is not a round trip");
    }

    /// A datagram the socket refuses is counted, through `send_udp`
    /// (which the query fan-out calls) and through `transmit` (the
    /// router's sends). Port 0 is not a valid destination, so
    /// the kernel refuses the send locally.
    #[test]
    fn refused_udp_sends_are_counted() {
        let (daemon, _origin, _peer) = sc_daemon(UpdatePolicy::Threshold(0.01));
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
        assert!(!send_udp(&daemon.inner, b"x", nowhere));
        transmit(&daemon.inner, b"x", nowhere, Some(2), SendKind::Keepalive);
        let snap = daemon.stats.registry().snapshot();
        assert_eq!(snap.counter_value("sc_udp_send_failed_total"), 2);
        assert_eq!(daemon.stats.snapshot().udp_sent, 0, "a refused send is not a sent one");
    }
}
