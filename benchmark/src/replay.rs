//! The stage replay: the same request streams, pushed single-threaded
//! through the layers' *public* functions in the order
//! `daemon::serve_client_on` calls them, one span per call.
//!
//! Two full proxy states (striped `WebCache`s + a `Router` each) peer
//! with each other: A is fed driver 0's stream, B driver 1's, and the
//! datagrams one decides to send are encoded and handed to the other's
//! router by direct call — no sockets, no threads, no sleeps. What the
//! replay leaves out is therefore exactly what the live daemon adds on
//! top of its layers: syscalls, thread hand-offs, lock waits, and the
//! upstream connects. `replay.unaccounted_share` is that remainder.
//!
//! Tracing *inside* the daemon is a later change; until then this is
//! the per-layer ruler.

use crate::trace::{Busy, SpanId, Tracer, NO_PARENT};
use crate::workload::{url_into, warmup_requests, Phase, Req, Stream, Workload, SHARDS};
use sc_bloom::UrlKey;
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_proxy::machine::{DirectoryView, Effect, Event, Output, SendKind, VirtualTime};
use sc_proxy::replica::ReplicaCell;
use sc_proxy::router::{stripe_of, Router};
use sc_proxy::scratch::RequestScratch;
use sc_proxy::Mode;
use sc_trace::sampler::Zipf;
use sc_wire::http;
use sc_wire::icp::IcpMessage;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use summary_cache_core::{ProxySummary, SummaryKind};

/// Most measured requests the replay pushes through.
pub const MAX_REQUESTS: usize = 20_000;
/// Keep-alive period of the replayed routers, as in the live rig.
const KEEPALIVE_MS: u64 = 1_000;

/// Spans that time work which is not the daemon's (the client building
/// its request, the origin answering) or which repeat a call the next
/// span contains (a stand-alone decode of a datagram the router is
/// about to decode itself). They are in the trace, not in the sum.
fn is_extra(name: &str) -> bool {
    name.starts_with("client.")
        || name.starts_with("origin.")
        || name.ends_with("_decode")
        || name.starts_with("replay.")
}

/// What a datagram in flight between the two proxies is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Reply,
    Update,
    Keepalive,
    Resync,
}

impl Kind {
    fn of(send: SendKind) -> Kind {
        match send {
            SendKind::QueryReply => Kind::Reply,
            SendKind::Keepalive => Kind::Keepalive,
            SendKind::UpdateDelta | SendKind::UpdateFull => Kind::Update,
            SendKind::Resync { .. } => Kind::Resync,
        }
    }

    /// Span names: encoding it, decoding it stand-alone, and the
    /// receiving router handling it.
    fn spans(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kind::Query => ("wire.icp_query_encode", "wire.icp_decode", "router.query"),
            Kind::Reply => ("wire.icp_reply_encode", "wire.icp_decode", "router.reply"),
            Kind::Update => ("wire.dirupdate_encode", "wire.dirupdate_decode", "router.update_apply"),
            Kind::Keepalive => ("wire.secho_encode", "wire.secho_decode", "router.keepalive"),
            Kind::Resync => ("wire.dirreq_encode", "wire.dirreq_decode", "router.dirreq"),
        }
    }
}

struct Datagram {
    to: usize,
    kind: Kind,
    bytes: Vec<u8>,
}

/// One proxy's whole state, as the daemon holds it.
struct Proxy {
    id: u32,
    icp: bool,
    stripes: Vec<WebCache<String>>,
    router: Router,
    cell: Arc<ReplicaCell>,
    scratch: RequestScratch,
    next_reqnum: u32,
    requests: u64,
    local_hits: u64,
}

/// The router's view of the striped cache, as `daemon::CacheView`.
struct View<'a>(&'a [WebCache<String>]);

impl DirectoryView for View<'_> {
    fn contains(&self, url: &str) -> bool {
        let key = UrlKey::new(url.as_bytes());
        self.0[stripe_of(&key, self.0.len())].contains(&url.to_string())
    }
}

impl Proxy {
    fn new(id: u32, peer: u32, workload: &Workload) -> Proxy {
        let sc = match workload.mode() {
            Mode::SummaryCache {
                load_factor,
                hashes,
                policy,
            } => {
                let kind = SummaryKind::Bloom { load_factor, hashes };
                let mut summary = ProxySummary::with_expected_docs(kind, workload.expected_docs);
                summary.set_generation(1 + id);
                Some((summary, policy))
            }
            _ => None,
        };
        let router = Router::new(id, vec![peer], KEEPALIVE_MS, SHARDS, 1, sc, VirtualTime::ZERO);
        Proxy {
            id,
            icp: workload.icp,
            stripes: (0..SHARDS)
                .map(|_| WebCache::new((workload.cache_bytes / SHARDS as u64).max(1)))
                .collect(),
            cell: router.replica_cell(),
            router,
            scratch: RequestScratch::new(),
            next_reqnum: 1,
            requests: 0,
            local_hits: 0,
        }
    }
}

/// Counts the spans cannot carry.
#[derive(Default)]
struct Counts {
    candidates: u64,
    evictions: u64,
    update_sends: u64,
    publishes: u64,
    /// Outcome of the ICP round in progress: `Some(hit_from)` once the
    /// reply has been handled.
    reply: Option<Option<u32>>,
}

/// The recorder: spans are kept only while `on` (the warm-up runs the
/// same code with it off).
struct Rec {
    tracer: Tracer,
    on: bool,
}

impl Rec {
    fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        if self.on {
            self.tracer.span(name, parent, f)
        } else {
            f()
        }
    }

    fn begin(&mut self, name: &'static str) -> SpanId {
        if self.on {
            self.tracer.begin(name, NO_PARENT)
        } else {
            NO_PARENT
        }
    }

    fn end(&mut self, id: SpanId) {
        if self.on {
            self.tracer.end(id);
        }
    }
}

struct Replay {
    proxies: [Proxy; 2],
    rec: Rec,
    counts: Counts,
    queue: VecDeque<Datagram>,
}

impl Replay {
    /// Carry out proxy `x`'s pending router outputs: encode each send
    /// and queue it for the other proxy; note the effects.
    fn apply_outputs(&mut self, x: usize, parent: SpanId) {
        let mut outputs = std::mem::take(&mut self.proxies[x].scratch.outputs);
        let id = self.proxies[x].id;
        for output in &outputs {
            match output {
                Output::Send(send) => {
                    let kind = Kind::of(send.kind);
                    let Ok(bytes) = self.rec.span(kind.spans().0, parent, || send.msg.encode(id)) else {
                        continue;
                    };
                    if kind == Kind::Update {
                        self.counts.update_sends += 1;
                    }
                    // Two proxies: every destination is the other one.
                    self.queue.push_back(Datagram { to: 1 - x, kind, bytes });
                }
                Output::Effect(Effect::Published { .. }) => self.counts.publishes += 1,
                Output::Effect(Effect::ReplyReceived { hit_from, .. }) => self.counts.reply = Some(*hit_from),
                Output::Effect(_) => {}
            }
        }
        // Hand the buffer back so its capacity is reused.
        outputs.clear();
        self.proxies[x].scratch.outputs = outputs;
    }

    /// Deliver every queued datagram (and whatever those provoke), then
    /// publish replica changes once per touched proxy — the protocol
    /// thread's batch.
    fn pump(&mut self, now: VirtualTime, parent: SpanId) {
        let mut touched = [false; 2];
        while let Some(d) = self.queue.pop_front() {
            let (_, decode, handle) = d.kind.spans();
            let _ = self.rec.span(decode, parent, || IcpMessage::decode(&d.bytes));
            let from = Some(self.proxies[1 - d.to].id);
            let p = &mut self.proxies[d.to];
            self.rec.span(handle, parent, || {
                p.router.handle_into(
                    now,
                    Event::Datagram { from, data: &d.bytes },
                    &View(&p.stripes),
                    &mut p.scratch.outputs,
                )
            });
            touched[d.to] = true;
            self.apply_outputs(d.to, parent);
        }
        for (x, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            let p = &mut self.proxies[x];
            self.rec.span("router.flush", parent, || p.router.flush_replicas());
        }
    }

    /// Feed proxy `x`'s router one ledger event, carry out its outputs
    /// and publish replica changes, as every such site in the daemon does.
    fn ledger(&mut self, x: usize, name: &'static str, now: VirtualTime, event: Event<'_>, parent: SpanId) {
        let p = &mut self.proxies[x];
        self.rec.span(name, parent, || {
            p.router
                .handle_into(now, event, &View(&p.stripes), &mut p.scratch.outputs)
        });
        self.apply_outputs(x, parent);
        let p = &mut self.proxies[x];
        self.rec.span("router.flush", parent, || p.router.flush_replicas());
    }

    /// One keep-alive tick of proxy `x`.
    fn tick(&mut self, x: usize, now: VirtualTime) {
        let root = self.rec.begin("replay.tick");
        self.ledger(x, "router.tick", now, Event::Tick, root);
        self.pump(now, root);
        self.rec.end(root);
    }

    /// `daemon::query_then_fetch`: ask `peers` (here: the other proxy,
    /// if listed), and on a HIT fetch the document from it.
    fn query_then_fetch(
        &mut self,
        x: usize,
        url: &str,
        want: DocMeta,
        peers: &[u32],
        now: VirtualTime,
        parent: SpanId,
    ) -> Option<DocMeta> {
        let other = 1 - x;
        if !peers.contains(&self.proxies[other].id) {
            return None;
        }
        let p = &mut self.proxies[x];
        let (id, request_number) = (p.id, p.next_reqnum);
        p.next_reqnum += 1;
        let bytes = self
            .rec
            .span(Kind::Query.spans().0, parent, || {
                IcpMessage::Query {
                    request_number,
                    requester: id,
                    url: url.to_string(),
                }
                .encode(id)
            })
            .ok()?;
        self.queue.push_back(Datagram {
            to: other,
            kind: Kind::Query,
            bytes,
        });
        self.counts.reply = None;
        self.pump(now, parent);
        self.counts.reply.take().flatten()?;

        // The peer fetch, minus the TCP: the peer keys the URL, peeks,
        // and builds the response head; the requester parses it.
        let peer = &mut self.proxies[other];
        let key = self.rec.span("bloom.urlkey", parent, || UrlKey::new(url.as_bytes()));
        let held = self.rec.span("cache.peek", parent, || {
            peer.stripes[stripe_of(&key, SHARDS)].peek(&url.to_string())
        });
        let head = match held {
            Some(meta) => self.rec.span("wire.http_build", parent, || doc_head(meta)),
            None => return None, // evicted between the HIT and the fetch
        };
        let got = self.rec.span("wire.http_parse_response", parent, || parse_head(&head));
        (got == Some(want)).then_some(want)
    }

    /// `daemon::serve_client_on` for one request of proxy `x`.
    fn serve(&mut self, x: usize, req: &Req, url: &str, now: VirtualTime) {
        let root = self.rec.begin("replay.request");
        let head = self
            .rec
            .span("client.build_request", root, || doc_request(url, req.meta));
        let parsed = self
            .rec
            .span("wire.http_parse", root, || http::parse_request(head.as_bytes()));
        let Ok(http::Parse::Done { value: request, .. }) = parsed else {
            self.rec.end(root);
            return;
        };
        let p = &mut self.proxies[x];
        p.requests += 1;
        self.rec
            .span("bloom.urlkey", root, || p.scratch.key.reset(request.target.as_bytes()));
        let want = self.rec.span("wire.http_header", root, || DocMeta {
            size: http::header(&request.headers, "x-doc-size")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1024),
            last_modified: http::header(&request.headers, "x-doc-lm")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        });
        let stripe = stripe_of(&p.scratch.key, SHARDS);
        let lookup = self
            .rec
            .span("cache.lookup", root, || p.stripes[stripe].lookup(&request.target, want));
        match lookup {
            Lookup::Hit => {
                p.local_hits += 1;
                self.finish(x, want, now, root);
                return;
            }
            Lookup::StaleHit => {
                let key = self.proxies[x].scratch.key.clone();
                self.ledger(x, "router.purged", now, Event::Purged { url: &key }, root);
            }
            Lookup::Miss => {}
        }

        // Cooperation.
        let p = &mut self.proxies[x];
        let peers = if p.icp {
            self.rec.span("router.live_peers", root, || p.router.live_peers())
        } else {
            let snap = self.rec.span("replica.load", root, || p.cell.load());
            self.rec.span("replica.candidates", root, || {
                snap.candidates_key_into(&p.scratch.key, &mut p.scratch.candidates)
            });
            self.counts.candidates += p.scratch.candidates.len() as u64;
            p.scratch.candidates.clone()
        };
        let meta = match self.query_then_fetch(x, url, want, &peers, now, root) {
            Some(meta) => meta,
            None => {
                // Origin fetch, minus the TCP: build the request, and
                // parse the head the origin would answer with.
                let _ = self
                    .rec
                    .span("wire.http_build_request", root, || doc_request(url, want));
                let head = self.rec.span("origin.respond", root, || doc_head(want));
                self.rec
                    .span("wire.http_parse_response", root, || parse_head(&head))
                    .unwrap_or(want)
            }
        };

        // Store, and tell the summary.
        let p = &mut self.proxies[x];
        let evicted = self
            .rec
            .span("cache.store", root, || p.stripes[stripe].store(url.to_string(), meta));
        if let Some(evicted) = evicted {
            self.counts.evictions += evicted.len() as u64;
            let victims: Vec<UrlKey> = evicted
                .iter()
                .map(|v| self.rec.span("bloom.urlkey", root, || UrlKey::new(v.as_bytes())))
                .collect();
            let key = self.proxies[x].scratch.key.clone();
            self.ledger(
                x,
                "router.stored",
                now,
                Event::Stored {
                    url: &key,
                    evicted: &victims,
                },
                root,
            );
        }
        self.finish(x, meta, now, root);
    }

    /// `reply_doc` + `finish_request`, then deliver what was sent.
    fn finish(&mut self, x: usize, meta: DocMeta, now: VirtualTime, root: SpanId) {
        let _ = self.rec.span("wire.http_build", root, || doc_head(meta));
        self.ledger(x, "router.request_done", now, Event::RequestDone, root);
        self.pump(now, root);
        self.rec.end(root);
    }
}

/// The request head a client (or `daemon::fetch_http`) sends for a
/// document of version `meta`.
fn doc_request(url: &str, meta: DocMeta) -> String {
    http::build_request(
        url,
        &[
            ("X-Doc-Size", &meta.size.to_string()),
            ("X-Doc-LM", &meta.last_modified.to_string()),
        ],
    )
}

/// The response head `daemon::reply_doc` builds.
fn doc_head(meta: DocMeta) -> String {
    http::build_response(
        200,
        "OK",
        &[
            ("Content-Length", &meta.size.to_string()),
            ("X-Doc-LM", &meta.last_modified.to_string()),
        ],
    )
}

/// What `daemon::fetch_http` reads out of a response head.
fn parse_head(head: &str) -> Option<DocMeta> {
    match http::parse_response(head.as_bytes()) {
        Ok(http::Parse::Done { value, .. }) if value.status == 200 => Some(DocMeta {
            size: http::content_length(&value.headers).unwrap_or(0),
            last_modified: http::header(&value.headers, "x-doc-lm")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }),
        _ => None,
    }
}

/// What the replay measured.
pub struct Stage {
    /// Every span of the measured part.
    pub tracer: Tracer,
    /// Measured requests pushed through (both proxies).
    pub requests: u64,
    /// Summed duration of every span that is the daemon's own work,
    /// clock cost removed.
    pub accounted_ns: u64,
    /// Summed self time of the request and tick roots: replay glue.
    pub glue_ns: u64,
    /// Candidate peers the summary probes returned.
    pub candidates: u64,
    /// Documents evicted by stores.
    pub evictions: u64,
    /// Update datagrams decided on.
    pub update_sends: u64,
    /// Summary publishes.
    pub publishes: u64,
    /// Replica-filter deep copies taken while applying deltas.
    pub cow_copies: u64,
    /// Share of proxy A's measured requests that hit its own cache.
    pub local_share_a: f64,
    busy: BTreeMap<&'static str, Busy>,
    clock_ns: u64,
}

impl Stage {
    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.busy.get(name).map_or(0, |b| b.count)
    }

    /// Mean duration of the spans named `name`, the cost of reading the
    /// clock removed; 0 when the workload never made that call.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        match self.busy.get(name) {
            Some(b) if b.count > 0 => b.ns.saturating_sub(b.count * self.clock_ns) as f64 / b.count as f64,
            _ => 0.0,
        }
    }
}

/// Warm two proxy states as the live set-up does, then replay the
/// requests both drivers' streams schedule inside `open_ns` (at most
/// [`MAX_REQUESTS`]), in due-time order.
pub fn run(workload: &Workload, zipf: &Arc<Zipf>, seed: u64, open_ns: u64) -> Stage {
    let mut r = Replay {
        proxies: [Proxy::new(0, 1, workload), Proxy::new(1, 0, workload)],
        rec: Rec {
            tracer: Tracer::new(Instant::now()),
            on: false,
        },
        counts: Counts::default(),
        queue: VecDeque::new(),
    };
    let mut url = String::new();

    // Warm-up, unrecorded: the two proxies' requests interleaved, then
    // one tick each so the summaries converge as `Rig::settle` waits for.
    let plans = [
        warmup_requests(workload, zipf, seed, 0),
        warmup_requests(workload, zipf, seed, 1),
    ];
    for i in 0..plans[0].len().max(plans[1].len()) {
        for (x, plan) in plans.iter().enumerate() {
            if let Some(req) = plan.get(i) {
                url_into(&mut url, req.namespace, req.doc);
                r.serve(x, req, &url, VirtualTime::ZERO);
            }
        }
    }
    r.tick(0, VirtualTime::ZERO);
    r.tick(1, VirtualTime::ZERO);
    for p in &mut r.proxies {
        p.requests = 0;
        p.local_hits = 0;
    }
    r.counts = Counts::default();

    // The measured requests, merged by due time.
    let mut schedule: Vec<(u64, usize, Req)> = Vec::new();
    for x in 0..2 {
        let mut s = Stream::new(workload, zipf, seed, x as u32, Phase::Measured);
        let mut due = 0;
        loop {
            let req = s.next_req();
            due += req.gap_ns;
            if due >= open_ns {
                break;
            }
            schedule.push((due, x, req));
        }
    }
    schedule.sort_by_key(|(due, x, _)| (*due, *x));
    schedule.truncate(MAX_REQUESTS);

    r.rec.on = true;
    let cow0 = sc_proxy::shard::cow_copies();
    // Proxy B's ticks fall half a period after A's, as two daemons
    // started at different moments would have them.
    let period_ns = KEEPALIVE_MS * 1_000_000;
    let mut next_tick = [period_ns, period_ns + period_ns / 2];
    for (due, x, req) in &schedule {
        for (t, next) in next_tick.iter_mut().enumerate() {
            while *next <= *due {
                r.tick(t, VirtualTime::from_micros(*next / 1_000));
                *next += period_ns;
            }
        }
        url_into(&mut url, req.namespace, req.doc);
        r.serve(*x, req, &url, VirtualTime::from_micros(due / 1_000));
    }
    let cow_copies = sc_proxy::shard::cow_copies() - cow0;

    let clock_ns = crate::trace::clock_cost_ns();
    let busy = r.rec.tracer.busy();
    let accounted_ns = busy
        .iter()
        .filter(|(name, _)| !is_extra(name))
        .map(|(_, b)| b.ns.saturating_sub(b.count * clock_ns))
        .sum();
    let a = &r.proxies[0];
    Stage {
        requests: schedule.len() as u64,
        accounted_ns,
        glue_ns: r.rec.tracer.root_self_ns(),
        candidates: r.counts.candidates,
        evictions: r.counts.evictions,
        update_sends: r.counts.update_sends,
        publishes: r.counts.publishes,
        cow_copies,
        local_share_a: if a.requests == 0 {
            0.0
        } else {
            a.local_hits as f64 / a.requests as f64
        },
        busy,
        clock_ns,
        tracer: r.rec.tracer,
    }
}
