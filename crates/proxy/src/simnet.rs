//! Deterministic simulation of a summary-cache cluster — FoundationDB
//! style: N [`crate::router::Router`]s, one virtual clock, one event
//! priority-queue, and a seeded fault plan. Nothing here touches a
//! socket or the wall clock (`crates/clippy.toml` disallows both),
//! so a seed *is* a schedule: the same seed always produces the same
//! event journal, byte-for-byte.
//!
//! The fault plan touches every datagram, ICP queries and replies
//! included, and injects from two seeded [`sc_util::Rng`] streams (one
//! for query traffic, so requests never shift the update draws):
//!
//! * **loss** — any datagram (keep-alive loss exercises failure
//!   detection; query loss ends a round at its deadline) vanishes with
//!   probability `loss`;
//! * **duplication** — a second copy is delivered with an independent
//!   delay with probability `duplicate`;
//! * **reordering** — every delivery draws a random delay, so datagrams
//!   overtake each other;
//! * **crash + restart** — a proxy goes silent, then comes back with a
//!   fresh generation and an empty cache, forcing peers through the
//!   restart-resync path;
//! * **partition + heal** — the cluster splits in two; cross-partition
//!   datagrams are dropped until the heal.
//!
//! After the fault window, faults stop and the run enters a *settle*
//! phase driven by [`sc_util::poll::converge`]: keep-alive ticks keep
//! firing until every live proxy's replica of every other proxy matches
//! the owner's published filter **bit for bit** (or a step budget runs
//! out, which fails the run).
//!
//! While the simulation runs it checks, on every output batch, the
//! protocol's safety invariants:
//!
//! * a replica is only ever present after a full-bitmap install — never
//!   conjured from a delta alone;
//! * a detected seq gap produces *exactly one* DIRREQ, unless a DIRREQ
//!   to that publisher is still inside [`RESYNC_BACKOFF`], in which case
//!   it produces none;
//! * a query round ends all-miss only once a reply from every queried
//!   peer has been delivered.
//!
//! The same harness doubles as the **scenario driver**: [`run_scenario`]
//! replays a seeded [`sc_trace::scenario::Scenario`] — client requests,
//! scripted crashes, evict-everywhere storms — on top of the random
//! fault plan. A local miss runs a real ICP round: the requester sends
//! `ICP_OP_QUERY` to its summary candidates, their routers answer HIT
//! or MISS, and a [`crate::machine::QueryRound`] decides, as in the
//! daemon. Outcomes count in place into a [`ScenarioReport`], the
//! per-scenario "good ruler" (hit ratio over time windows, summary
//! staleness, false-hit rate, per-opcode message distribution, tail
//! latency in virtual time).

use crate::machine::{
    Answer, Dest, DirectoryView, Effect, Event, Output, QueryRound, SendKind, VirtualTime,
    RESYNC_BACKOFF,
};
use crate::router::{DirectoryInspect, Router};
use sc_bloom::UrlKey;
use sc_obs::Histogram;
use sc_trace::model::render_url;
use sc_trace::scenario::{Scenario, ScenarioKind};
use sc_util::Rng;
use sc_wire::icp::IcpMessage;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use summary_cache_core::{ProxySummary, SummaryKind, UpdatePolicy};

/// Knobs for one simulation run. The defaults describe an aggressive
/// schedule — every fault class enabled — that still converges.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of simulated proxies (ids `0..proxies`).
    pub proxies: usize,
    /// Local cache-insert operations scheduled across the fault window
    /// (each triggers a publish under the threshold-0 policy).
    pub local_ops: usize,
    /// Length of the fault window in virtual milliseconds.
    pub horizon_ms: u64,
    /// Keep-alive / heartbeat period (virtual milliseconds).
    pub keepalive_ms: u64,
    /// Per-proxy document capacity of the model cache; small enough
    /// that inserts cause evictions (exercising summary removals).
    pub cache_docs: usize,
    /// Expected documents for summary sizing (small keeps filters tiny
    /// and runs fast).
    pub expected_docs: u64,
    /// Bloom load factor (bits per document).
    pub load_factor: u32,
    /// Bloom hash count.
    pub hashes: u16,
    /// Probability an in-flight datagram is dropped (fault window only).
    pub loss: f64,
    /// Probability a datagram is delivered twice (fault window only).
    pub duplicate: f64,
    /// Delivery delay range in virtual microseconds; the spread is what
    /// produces reordering. Outside the fault window every delivery
    /// takes `delay_us.0` (FIFO, so settling is fast).
    pub delay_us: (u64, u64),
    /// Number of distinct proxies to crash and restart.
    pub crashes: usize,
    /// Number of partition windows to schedule.
    pub partitions: usize,
    /// Settle budget: keep-alive windows to run after the fault window
    /// before declaring the cluster non-convergent.
    pub settle_ticks: usize,
    /// Fanout stagger slots per router: peers are serviced in
    /// `fanout_slots` groups and ticks fire `fanout_slots` times per
    /// keep-alive period, so each peer keeps its once-per-period
    /// cadence while per-tick bursts shrink. 1 = the historical
    /// lock-step fanout.
    pub fanout_slots: usize,
    /// Seq every router's publish lanes start from (via
    /// [`ProxySummary::set_seq`]). Defaults to 0; set near `u32::MAX`
    /// to drive the sequence-wraparound path under faults.
    pub initial_seq: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            proxies: 4,
            local_ops: 240,
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
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct SimReport {
    /// The seed the run was built from.
    pub seed: u64,
    /// Total events popped off the priority queue (deliveries, ticks,
    /// local ops, crashes, restarts, partition edges).
    pub events_processed: u64,
    /// Did every live (observer, publisher) pair converge bit-for-bit?
    pub converged: bool,
    /// Settle keep-alive windows consumed before convergence (`None`
    /// when the budget ran out).
    pub settle_steps: Option<usize>,
    /// The deterministic event journal (one line per send, delivery,
    /// effect, and fault-plan action, each stamped with virtual time).
    pub journal: Vec<String>,
    /// Seq gaps detected across all proxies.
    pub gaps_seen: u64,
    /// DIRREQs sent across all proxies.
    pub resyncs_requested: u64,
    /// Full-bitmap replica installs across all proxies.
    pub replicas_installed: u64,
    /// Datagrams the fault plan dropped (loss + partition cuts + down
    /// receivers).
    pub datagrams_dropped: u64,
    /// Datagrams the fault plan duplicated.
    pub datagrams_duplicated: u64,
    /// Peer-failure declarations across all proxies.
    pub failures: u64,
    /// Peer-recovery detections across all proxies.
    pub recoveries: u64,
    /// Encoded bytes of DIRUPDATE traffic (deltas + fulls) put on the
    /// wire across all proxies, before any fault-plan drops — the
    /// numerator of the scaleout bench's bytes/proxy/sec curve.
    pub update_bytes_sent: u64,
    /// Encoded bytes of everything else (keep-alives, DIRREQs, query
    /// traffic) across all proxies.
    pub other_bytes_sent: u64,
    /// Update datagrams (deltas + fulls) across all proxies.
    pub update_datagrams_sent: u64,
}

/// Ordered only to sit in the queue: its key `(at, order)` is unique,
/// so two events are never compared.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum SimEvent {
    /// A datagram arrives at `to`.
    Deliver { to: usize, from: usize, bytes: Vec<u8> },
    /// `node`'s keep-alive timer fires (self-rescheduling).
    Tick { node: usize },
    /// A local client stores a fresh document at `node`.
    Insert { node: usize },
    /// `node` crashes (drops off the network, loses all state).
    Crash { node: usize },
    /// `node` restarts with a fresh generation and empty cache.
    Restart { node: usize },
    /// The network splits; `sides[i]` says which half node `i` is in.
    PartitionStart { sides: Vec<bool> },
    /// The partition heals.
    PartitionHeal,
    /// A scenario client of `node` requests `url` (scenario runs only).
    Request { node: usize, url: String },
    /// Query round `reqnum` reaches its deadline (scenario runs only).
    QueryDeadline { reqnum: u32 },
    /// `url` is evicted from every cache that holds it while the
    /// summaries keep advertising it — the false-hit-storm trigger
    /// (scenario runs only).
    PurgeEverywhere { url: String },
    /// End-of-window staleness sample point (scenario runs only).
    WindowMark { idx: usize },
}

/// The model cache directory: which URLs a node currently holds.
struct SetView<'a>(&'a HashSet<String>);

impl DirectoryView for SetView<'_> {
    fn contains(&self, url: &str) -> bool {
        self.0.contains(url)
    }
}

struct Node {
    router: Router,
    /// Insertion-ordered model cache (FIFO eviction at `cache_docs`).
    docs: VecDeque<String>,
    /// Membership view of `docs` for query answering.
    dir: HashSet<String>,
    up: bool,
    incarnation: u32,
}

/// One deterministic simulation. Build with [`Sim::new`], execute with
/// [`Sim::run`].
pub struct Sim {
    cfg: SimConfig,
    rng: Rng,
    /// Draws for queries, replies and peer fetches; the rest use `rng`.
    query_rng: Rng,
    now: u64,
    order: u64,
    /// Earliest first, ties in scheduling order.
    queue: BinaryHeap<Reverse<(u64, u64, SimEvent)>>,
    nodes: Vec<Node>,
    partition: Option<Vec<bool>>,
    faults: bool,
    next_doc: u64,
    /// Mirror of "node i has an installed replica of peer j", maintained
    /// purely from ReplicaInstalled/UpdateGap/PeerFailed effects — the
    /// machine's actual replica presence must never diverge from it
    /// (that divergence would mean a replica appeared without a bitmap).
    installed: Vec<Vec<bool>>,
    /// When node i last sent a DIRREQ to peer j, mirroring the
    /// machine's backoff stamp, for the exactly-one-DIRREQ invariant.
    last_dirreq: Vec<Vec<Option<u64>>>,
    /// The report being counted; [`Sim::run`] fills its convergence
    /// fields once, after settle.
    report: SimReport,
    /// Reusable router-output sink: every event drives the router
    /// through this one warm buffer ([`Sim::drive`]).
    out_scratch: Vec<Output>,
    /// Pooled request keys: [`Sim::store_doc`] re-digests them in place
    /// (`UrlKey::reset`) instead of allocating per stored document.
    key_scratch: Vec<UrlKey>,
    /// Scenario bookkeeping; `None` for plain fault-plan runs.
    scn: Option<ScnState>,
}

/// Per-run scenario state: the report every request outcome, window
/// sample, and opcode count is added to, plus the latency model's
/// knobs and the storm probe set.
struct ScnState {
    /// The report being counted; [`run_scenario`] fills its run-level
    /// fields and latency percentiles once, after settle.
    report: ScenarioReport,
    /// Virtual latency of every served request.
    latency: Histogram,
    /// Width of one report window in virtual microseconds.
    window_us: u64,
    /// Virtual round-trip to the origin server, charged on every miss,
    /// false hit and query timeout.
    origin_rtt_us: u64,
    /// Virtual local service time, charged on every served request.
    local_service_us: u64,
    /// URLs hit by [`SimEvent::PurgeEverywhere`] — the set the
    /// after-settle staleness probe walks.
    tracked_evicted: Vec<String>,
    /// Requests in a query round, by request number (their ordinal).
    rounds: BTreeMap<u32, OpenRound>,
}

/// A scenario request from its arrival (window, virtual µs) to its end.
struct Request {
    node: usize,
    url: String,
    key: UrlKey,
    window: usize,
    at: u64,
}

/// A request whose query round is open.
struct OpenRound {
    req: Request,
    round: QueryRound,
    /// The round's mirror, kept from delivered replies alone: queried
    /// peers not heard from. The wire never refuses a send, so an
    /// all-miss end with a peer left here is a round bug.
    unheard: Vec<u32>,
}

/// Deterministic per-incarnation generation number: what the daemon
/// derives from the wall clock, the simulation derives from identity.
fn generation_for(node: usize, incarnation: u32) -> u32 {
    (node as u32 + 1) * 100_000 + incarnation + 1
}

impl Sim {
    /// Build a simulation: construct the machines and schedule the whole
    /// fault plan (local ops, ticks, crashes, partitions) up front from
    /// `seed`.
    pub fn new(cfg: SimConfig, seed: u64) -> Sim {
        assert!(cfg.proxies >= 2, "a cluster needs at least two proxies");
        assert!(cfg.crashes < cfg.proxies, "leave at least one proxy standing");
        assert!(cfg.keepalive_ms > 0, "the heartbeat drives anti-entropy");
        assert!(cfg.delay_us.0 < cfg.delay_us.1, "delay range must be non-empty");
        let rng = Rng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_D00D);
        let query_rng = Rng::seed_from_u64(seed ^ 0x1C90_E70D_D00D);
        let n = cfg.proxies;
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                router: fresh_router(&cfg, i, 0),
                docs: VecDeque::new(),
                dir: HashSet::new(),
                up: true,
                incarnation: 0,
            })
            .collect();
        let mut sim = Sim {
            rng,
            query_rng,
            now: 0,
            order: 0,
            queue: BinaryHeap::new(),
            nodes,
            partition: None,
            faults: true,
            next_doc: 0,
            installed: vec![vec![false; n]; n],
            last_dirreq: vec![vec![None; n]; n],
            report: SimReport {
                seed,
                ..SimReport::default()
            },
            out_scratch: Vec::new(),
            key_scratch: Vec::new(),
            scn: None,
            cfg,
        };
        let horizon = sim.cfg.horizon_ms * 1_000;
        let ka = sim.cfg.keepalive_ms * 1_000;
        // Staggered self-rescheduling ticks: with fanout slots each
        // tick fires `fanout_slots` times per keep-alive period (and
        // services a different slot of peers), keeping every peer's
        // once-per-period cadence.
        let tick_every = sim.tick_interval();
        for i in 0..n {
            let phase = (i as u64 + 1) * ka / (n as u64 + 1) % tick_every.max(1);
            sim.schedule(phase, SimEvent::Tick { node: i });
        }
        // Local inserts, uniform over the fault window.
        for _ in 0..sim.cfg.local_ops {
            let at = sim.rng.gen_range(0..horizon);
            let node = sim.rng.gen_range(0..n);
            sim.schedule(at, SimEvent::Insert { node });
        }
        // Crash plan: distinct nodes, mid-window, each restarting.
        let mut victims: Vec<usize> = (0..n).collect();
        sim.rng.shuffle(&mut victims);
        for &node in victims.iter().take(sim.cfg.crashes) {
            let crash_at = sim.rng.gen_range(horizon / 4..horizon * 3 / 4);
            let down_for = sim.rng.gen_range(100_000..400_000u64);
            sim.schedule(crash_at, SimEvent::Crash { node });
            sim.schedule(crash_at + down_for, SimEvent::Restart { node });
        }
        // Partition plan: random two-coloring, never trivial.
        for _ in 0..sim.cfg.partitions {
            let start = sim.rng.gen_range(0..horizon * 3 / 4);
            let width = sim.rng.gen_range(200_000..600_000u64);
            let mut sides: Vec<bool> = (0..n).map(|_| sim.rng.gen_bool(0.5)).collect();
            if sides.iter().all(|&s| s == sides[0]) {
                sides[0] = !sides[0];
            }
            sim.schedule(start, SimEvent::PartitionStart { sides });
            sim.schedule(start + width, SimEvent::PartitionHeal);
        }
        sim
    }

    /// Virtual microseconds between Tick events: the keep-alive period
    /// divided by the fanout slot count (clamped to at least one
    /// microsecond).
    fn tick_interval(&self) -> u64 {
        (self.cfg.keepalive_ms * 1_000 / self.cfg.fanout_slots.max(1) as u64).max(1)
    }

    fn schedule(&mut self, at: u64, ev: SimEvent) {
        let order = self.order;
        self.order += 1;
        self.queue.push(Reverse((at, order, ev)));
    }

    /// Run the fault window, then settle; returns the report. Panics
    /// (with the offending virtual time and nodes) if a safety
    /// invariant breaks mid-run.
    pub fn run(&mut self) -> SimReport {
        let horizon = self.cfg.horizon_ms * 1_000;
        self.advance(horizon);
        // Fault window over: heal everything and let the protocol's own
        // machinery (heartbeats, gap detection, DIRREQ resync) converge
        // the replicas.
        self.faults = false;
        self.partition = None;
        let note = format!("{}us -- settle: faults off --", self.now);
        self.report.journal.push(note);
        let ka = self.cfg.keepalive_ms * 1_000;
        let budget = self.cfg.settle_ticks;
        // Settled: every live pair agrees bit for bit, and no scenario
        // request is still in a round.
        let settle_steps = sc_util::poll::converge(
            &mut *self,
            budget,
            |s| {
                let t = s.now + ka;
                s.advance(t);
            },
            |s| {
                let idle = s.scn.as_ref().is_none_or(|scn| scn.rounds.is_empty());
                idle && s.pairs_in_sync().all(|ok| ok)
            },
        );
        self.report.converged = settle_steps.is_some();
        self.report.settle_steps = settle_steps;
        std::mem::take(&mut self.report)
    }

    /// One entry per live (observer, publisher) pair: does the
    /// observer's replica equal the publisher's filter bit for bit?
    fn pairs_in_sync(&self) -> impl Iterator<Item = bool> + '_ {
        let (n, up) = (self.nodes.len(), |i: usize| self.nodes[i].up);
        let pairs = (0..n).flat_map(move |i| (0..n).map(move |j| (i, j)));
        pairs.filter(move |&(i, j)| i != j && up(i) && up(j)).map(|(i, j)| {
            self.nodes[i].router.replica_bits(j as u32) == self.nodes[j].router.published_bits()
        })
    }

    /// Process every queued event with `at <= until`, then move the
    /// clock to `until`.
    fn advance(&mut self, until: u64) {
        while self.queue.peek().is_some_and(|Reverse(e)| e.0 <= until) {
            let Some(Reverse((at, _, ev))) = self.queue.pop() else { break };
            self.now = self.now.max(at);
            self.report.events_processed += 1;
            self.process(ev);
        }
        self.now = self.now.max(until);
    }

    /// Feed one event to `node`'s router through the reusable output
    /// scratch and dispatch the results. Replica changes stay pending
    /// here, as in a daemon batch: the request path flushes them to the
    /// replica cell right before it probes, so the deltas between two
    /// requests share one snapshot.
    fn drive(&mut self, node: usize, sender: Option<usize>, ev: Event<'_>) {
        let mut outputs = std::mem::take(&mut self.out_scratch);
        let n = &mut self.nodes[node];
        n.router.handle_into(
            VirtualTime::from_micros(self.now),
            ev,
            &SetView(&n.dir),
            &mut outputs,
        );
        self.dispatch(node, sender, &mut outputs);
        self.out_scratch = outputs;
    }

    fn process(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Deliver { to, from, bytes } => {
                if !self.nodes[to].up {
                    self.report.datagrams_dropped += 1;
                    return;
                }
                self.report.journal
                    .push(format!("{}us n{to} <- n{from} {}B", self.now, bytes.len()));
                self.drive(
                    to,
                    Some(from),
                    Event::Datagram {
                        from: Some(from as u32),
                        data: &bytes,
                    },
                );
            }
            SimEvent::Tick { node } => {
                let tick_every = self.tick_interval();
                self.schedule(self.now + tick_every, SimEvent::Tick { node });
                if !self.nodes[node].up {
                    return;
                }
                self.drive(node, None, Event::Tick);
            }
            SimEvent::Insert { node } => {
                if !self.nodes[node].up {
                    return;
                }
                let url = format!("http://server-{node}.sim.invalid/doc/{}", self.next_doc);
                self.next_doc += 1;
                self.store_doc(node, url, "insert", None);
            }
            SimEvent::Crash { node } => {
                self.report.journal.push(format!("{}us n{node} CRASH", self.now));
                self.nodes[node].up = false;
                // Its requests in flight die with it: unserved.
                if let Some(scn) = &mut self.scn {
                    let open = scn.rounds.len();
                    scn.rounds.retain(|_, p| p.req.node != node);
                    scn.report.unserved += (open - scn.rounds.len()) as u64;
                }
            }
            SimEvent::Restart { node } => {
                let inc = self.nodes[node].incarnation + 1;
                self.report.journal.push(format!(
                    "{}us n{node} RESTART gen {}",
                    self.now,
                    generation_for(node, inc)
                ));
                let n = &mut self.nodes[node];
                n.up = true;
                n.incarnation = inc;
                n.router = fresh_router(&self.cfg, node, inc);
                n.docs.clear();
                n.dir.clear();
                // All replica/backoff state died with the process.
                for j in 0..self.nodes.len() {
                    self.installed[node][j] = false;
                    self.last_dirreq[node][j] = None;
                }
            }
            SimEvent::PartitionStart { sides } => {
                let a: Vec<usize> = (0..sides.len()).filter(|&i| sides[i]).collect();
                self.report.journal
                    .push(format!("{}us PARTITION {a:?} | rest", self.now));
                self.partition = Some(sides);
            }
            SimEvent::PartitionHeal => {
                self.report.journal.push(format!("{}us HEAL", self.now));
                self.partition = None;
            }
            SimEvent::Request { node, url } => self.serve_request(node, url),
            SimEvent::QueryDeadline { reqnum } => {
                if let Some(p) = self.scn.as_mut().and_then(|scn| scn.rounds.remove(&reqnum)) {
                    self.finish_request(p.req, "timeout");
                }
            }
            SimEvent::PurgeEverywhere { url } => self.purge_everywhere(url),
            SimEvent::WindowMark { idx } => self.sample_window(idx),
        }
    }

    /// Store `url` in `node`'s model cache (FIFO eviction at
    /// `cache_docs`) and drive the router through Stored +
    /// RequestDone, publishing the summary flips. A request hands down
    /// the `key` it probed with, like the daemon's scratch key.
    fn store_doc(&mut self, node: usize, url: String, verb: &str, key: Option<UrlKey>) {
        let cap = self.cfg.cache_docs;
        let n = &mut self.nodes[node];
        n.docs.push_back(url.clone());
        n.dir.insert(url.clone());
        let mut evicted = Vec::new();
        while n.docs.len() > cap {
            if let Some(victim) = n.docs.pop_front() {
                n.dir.remove(&victim);
                evicted.push(victim);
            }
        }
        self.report.journal.push(format!(
            "{}us n{node} {verb} {url} (evicting {})",
            self.now,
            evicted.len()
        ));
        // The simulated client digests each URL once, like the daemon's
        // request path: the request key arrives pre-digested when the
        // request loop already probed with it, and victim keys are
        // re-digested in place over the warm key pool.
        let total = 1 + evicted.len();
        let mut keys = std::mem::take(&mut self.key_scratch);
        while keys.len() < total {
            keys.push(UrlKey::new(b""));
        }
        match key {
            Some(k) => keys[0] = k,
            None => keys[0].reset(url.as_bytes()),
        }
        for (slot, victim) in keys[1..total].iter_mut().zip(&evicted) {
            slot.reset(victim.as_bytes());
        }
        // total >= 1, so the slice always has the stored key up front.
        let Some((key, victim_keys)) = keys[..total].split_first() else {
            return;
        };
        self.drive(
            node,
            None,
            Event::Stored {
                url: key,
                evicted: victim_keys,
            },
        );
        self.key_scratch = keys;
        self.drive(node, None, Event::RequestDone);
    }

    /// Serve one scenario client request at `node`: local directory
    /// hit, else send `ICP_OP_QUERY` on the simulated wire to the peers
    /// whose replicas advertise the URL, with a deadline of the longest
    /// round trip the wire can take (2 × `delay_us.1`), else go to the
    /// origin.
    fn serve_request(&mut self, node: usize, url: String) {
        let Some(scn) = &mut self.scn else { return };
        // Requests after the last window mark fold into the final window.
        let last = scn.report.windows.len() - 1;
        let w = ((self.now / scn.window_us) as usize).min(last);
        let r = &mut scn.report;
        r.requests += 1;
        r.windows[w].requests += 1;
        if !self.nodes[node].up {
            r.unserved += 1;
            self.report.journal
                .push(format!("{}us n{node} req {url} unserved (down)", self.now));
            return;
        }
        if self.nodes[node].dir.contains(&url) {
            let latency = scn.local_service_us;
            r.local_hits += 1;
            r.windows[w].local_hits += 1;
            scn.latency.record(latency);
            self.report.journal
                .push(format!("{}us n{node} req {url} local-hit {latency}us", self.now));
            return;
        }
        // Digest once and probe the replica snapshot the way a daemon
        // request thread does: flush the router's pending replica
        // changes to its cell, then read the cell.
        let key = UrlKey::new(url.as_bytes());
        let mut candidates = Vec::new();
        let router = &mut self.nodes[node].router;
        router.flush_replicas();
        router.replica_cell().load().candidates_key_into(&key, &mut candidates);
        let (reqnum, requester) = (r.requests as u32, node as u32);
        let query = IcpMessage::Query { request_number: reqnum, requester, url: url.clone() };
        let req = Request { node, url, key, window: w, at: self.now };
        match query.encode(requester) {
            Ok(bytes) if !candidates.is_empty() => {
                r.queries_sent += candidates.len() as u64;
                self.report.other_bytes_sent += (bytes.len() * candidates.len()) as u64;
                let (now, len) = (self.now, bytes.len());
                let sent = format!("{now}us n{node} query #{reqnum} -> {candidates:?} {len}B");
                self.report.journal.push(sent);
                let deadline = self.now + 2 * self.cfg.delay_us.1;
                let round = QueryRound::new(&candidates, VirtualTime::from_micros(deadline));
                for &peer in &candidates {
                    self.transmit(node, peer as usize, &bytes, true);
                }
                self.schedule(deadline, SimEvent::QueryDeadline { reqnum });
                if let Some(scn) = &mut self.scn {
                    scn.rounds.insert(reqnum, OpenRound { req, round, unheard: candidates });
                }
            }
            _ => self.finish_request(req, "miss"),
        }
    }

    /// Count a request's end, now: a remote hit, a false hit (all
    /// MISS), a timeout, or a miss (no candidates). Latency is the local
    /// service time, the wait until now, and a peer-fetch or origin
    /// round trip. The fetched document is stored (the paper's §II
    /// sharing model) unless another request stored it first.
    fn finish_request(&mut self, req: Request, outcome: &str) {
        let Some(scn) = &mut self.scn else { return };
        let (r, w) = (&mut scn.report, req.window);
        let mut latency = scn.local_service_us + (self.now - req.at);
        match outcome {
            "remote-hit" => {
                r.remote_hits += 1;
                r.windows[w].remote_hits += 1;
                // One round trip on the virtual wire, drawn like
                // [`Sim::transmit`] draws delays.
                let ((lo, hi), rng) = (self.cfg.delay_us, &mut self.query_rng);
                let mut delay = || if self.faults { rng.gen_range(lo..hi) } else { lo };
                latency += delay() + delay();
            }
            "false-hit" => {
                r.false_hits += 1;
                r.windows[w].false_hits += 1;
            }
            "timeout" => r.query_timeouts += 1,
            _ => {}
        }
        if outcome != "remote-hit" {
            r.origin_fetches += 1;
            latency += scn.origin_rtt_us;
        }
        scn.latency.record(latency);
        let Request { node, url, key, .. } = req;
        self.report.journal
            .push(format!("{}us n{node} req {url} {outcome} {latency}us", self.now));
        if !self.nodes[node].dir.contains(&url) {
            self.store_doc(node, url, "fill", Some(key));
        }
    }

    /// Feed a delivered ICP reply at `node` to its open round, checking
    /// the round against its mirror when it ends all-miss.
    fn answer_round(&mut self, node: usize, reqnum: u32, peer: u32, hit: bool) {
        let Some(scn) = &mut self.scn else { return };
        let Some(p) = scn.rounds.get_mut(&reqnum) else {
            return; // the round is over: a late or duplicate reply
        };
        p.unheard.retain(|&q| q != peer);
        let now = VirtualTime::from_micros(self.now);
        let Answer::Ended(winner) = p.round.reply(peer, hit, now) else { return };
        let Some(p) = scn.rounds.remove(&reqnum) else { return };
        assert!(
            winner.is_some() || p.unheard.is_empty(),
            "invariant violated at {}us: node {node}'s query round #{reqnum} ended all-miss \
             with no reply delivered from {:?}",
            self.now,
            p.unheard,
        );
        self.finish_request(p.req, if winner.is_some() { "remote-hit" } else { "false-hit" });
    }

    /// Evict `url` from every live cache that holds it, in node order.
    /// Each holder's summary keeps advertising the document until its
    /// removal delta lands at the peers — exactly the false-hit window
    /// the storm scenario measures.
    fn purge_everywhere(&mut self, url: String) {
        let key = UrlKey::new(url.as_bytes());
        let mut holders = 0u64;
        self.report.journal.push(format!("{}us purge {url}", self.now));
        for node in 0..self.nodes.len() {
            if !self.nodes[node].up || !self.nodes[node].dir.contains(&url) {
                continue;
            }
            holders += 1;
            let n = &mut self.nodes[node];
            n.dir.remove(&url);
            n.docs.retain(|d| d != &url);
            self.drive(node, None, Event::Purged { url: &key });
            self.drive(node, None, Event::RequestDone);
        }
        if let Some(scn) = &mut self.scn {
            scn.report.evictions += holders;
            if !scn.tracked_evicted.contains(&url) {
                scn.tracked_evicted.push(url);
            }
        }
    }

    /// End-of-window staleness sample: how many live (observer,
    /// publisher) pairs currently disagree with the publisher's filter
    /// bit-for-bit, recorded into window `idx` of the report.
    fn sample_window(&mut self, idx: usize) {
        let sync: Vec<bool> = self.pairs_in_sync().collect();
        let (stale, live) = (sync.iter().filter(|&&ok| !ok).count() as u64, sync.len() as u64);
        let Some(scn) = &mut self.scn else { return };
        let window = &mut scn.report.windows[idx];
        (window.stale_pairs, window.live_pairs) = (stale, live);
        self.report.journal.push(format!(
            "{}us window w{idx}: {stale}/{live} replica pairs stale",
            self.now
        ));
    }

    /// Carry out a batch of machine outputs from `node`, checking the
    /// batch-level invariants first.
    fn dispatch(&mut self, node: usize, sender: Option<usize>, outputs: &mut Vec<Output>) {
        // Invariant: a detected gap yields exactly one DIRREQ, or zero
        // when a DIRREQ to that publisher is still inside the backoff.
        for output in outputs.iter() {
            let Output::Effect(Effect::UpdateGap { peer, .. }) = output else {
                continue;
            };
            let sent = outputs
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        Output::Send(s) if matches!(s.kind, SendKind::Resync { peer: p, .. } if p == *peer)
                    )
                })
                .count();
            let within_backoff = self.last_dirreq[node][*peer as usize]
                .is_some_and(|at| self.now - at < RESYNC_BACKOFF.as_micros() as u64);
            let expected = usize::from(!within_backoff);
            assert!(
                sent == expected,
                "invariant violated at {}us: node {node} detected a gap from peer {peer} \
                 and sent {sent} DIRREQ(s), expected {expected} (backoff {})",
                self.now,
                if within_backoff { "active" } else { "clear" },
            );
        }
        for output in outputs.drain(..) {
            match output {
                Output::Effect(effect) => self.observe_effect(node, effect),
                Output::Send(send) => {
                    let node_id = self.nodes[node].router.id();
                    let Ok(bytes) = send.msg.encode(node_id) else {
                        continue;
                    };
                    if let SendKind::Resync { peer, .. } = send.kind {
                        self.last_dirreq[node][peer as usize] = Some(self.now);
                        self.report.resyncs_requested += 1;
                    }
                    if let Some(scn) = &mut self.scn {
                        scn.report.datagrams_by_op[op_index(&send.kind)].1 += 1;
                        // A MISS answer: a query to a peer without the document.
                        if matches!(send.msg, IcpMessage::Miss { .. }) {
                            scn.report.wasted_queries += 1;
                        }
                    }
                    if send.kind.is_update() {
                        self.report.update_bytes_sent += bytes.len() as u64;
                        self.report.update_datagrams_sent += 1;
                    } else {
                        self.report.other_bytes_sent += bytes.len() as u64;
                    }
                    self.report.journal.push(format!(
                        "{}us n{node} send {:?} -> {:?} {}B",
                        self.now,
                        send.kind,
                        send.to,
                        bytes.len()
                    ));
                    let to = match send.to {
                        Dest::Peer(id) => id as usize,
                        Dest::Sender => match sender {
                            Some(to) => to,
                            None => continue,
                        },
                    };
                    self.transmit(node, to, &bytes, send.kind == SendKind::QueryReply);
                }
            }
        }
        // Invariant: replica presence in the machine must match the
        // bitmap-install accounting — a mismatch means a replica was
        // conjured from a delta (or survived a gap/failure drop).
        for j in 0..self.nodes.len() {
            if j == node {
                continue;
            }
            let present = self.nodes[node].router.replica_installed(j as u32);
            assert!(
                present == self.installed[node][j],
                "invariant violated at {}us: node {node}'s replica of peer {j} is {} \
                 but only bitmap installs may create replicas (tracker says {})",
                self.now,
                if present { "present" } else { "absent" },
                self.installed[node][j],
            );
        }
    }

    fn observe_effect(&mut self, node: usize, effect: Effect) {
        self.report.journal
            .push(format!("{}us n{node} {effect:?}", self.now));
        match effect {
            Effect::ReplicaInstalled { peer, .. } => {
                self.installed[node][peer as usize] = true;
                // A bitmap install clears the machine's backoff stamp.
                self.last_dirreq[node][peer as usize] = None;
                self.report.replicas_installed += 1;
            }
            Effect::UpdateGap { peer, .. } => {
                self.installed[node][peer as usize] = false;
                self.report.gaps_seen += 1;
            }
            Effect::PeerFailed { peer } => {
                self.installed[node][peer as usize] = false;
                // The replica entry (and its backoff stamp) was dropped.
                self.last_dirreq[node][peer as usize] = None;
                self.report.failures += 1;
            }
            Effect::PeerRecovered { .. } => self.report.recoveries += 1,
            Effect::ReplyReceived {
                request_number,
                hit_from,
                replier: Some(peer),
            } => self.answer_round(node, request_number, peer, hit_from.is_some()),
            _ => {}
        }
    }

    /// Put a datagram on the virtual wire, subject to the fault plan.
    /// Query traffic (`query`) draws from `query_rng`, the rest from
    /// `rng`.
    fn transmit(&mut self, from: usize, to: usize, bytes: &[u8], query: bool) {
        let ((lo, hi), faults) = (self.cfg.delay_us, self.faults);
        if faults && self.partition.as_ref().is_some_and(|sides| sides[from] != sides[to]) {
            self.report.datagrams_dropped += 1;
            return;
        }
        let rng = if query { &mut self.query_rng } else { &mut self.rng };
        if faults && rng.gen_bool(self.cfg.loss) {
            self.report.datagrams_dropped += 1;
            return;
        }
        let delay = if faults { rng.gen_range(lo..hi) } else { lo };
        let again = (faults && rng.gen_bool(self.cfg.duplicate)).then(|| rng.gen_range(lo..hi));
        for delay in std::iter::once(delay).chain(again) {
            let bytes = bytes.to_vec();
            self.schedule(self.now + delay, SimEvent::Deliver { to, from, bytes });
        }
        self.report.datagrams_duplicated += u64::from(again.is_some());
    }
}

fn fresh_router(cfg: &SimConfig, node: usize, incarnation: u32) -> Router {
    let kind = SummaryKind::Bloom {
        load_factor: cfg.load_factor,
        hashes: cfg.hashes,
    };
    let mut summary = ProxySummary::with_expected_docs(kind, cfg.expected_docs);
    summary.set_generation(generation_for(node, incarnation));
    summary.set_seq(cfg.initial_seq);
    let peers: Vec<u32> = (0..cfg.proxies as u32)
        .filter(|&p| p != node as u32)
        .collect();
    Router::new(
        node as u32,
        peers,
        cfg.keepalive_ms,
        1,
        cfg.fanout_slots,
        Some((summary, UpdatePolicy::Threshold(0.0))),
        VirtualTime::ZERO,
    )
}

/// The row a [`SendKind`] is counted under in
/// [`ScenarioReport::datagrams_by_op`] ([`SCENARIO_OPS`] order).
fn op_index(kind: &SendKind) -> usize {
    match kind {
        SendKind::UpdateDelta => 0,
        SendKind::UpdateFull => 1,
        SendKind::Keepalive => 2,
        SendKind::QueryReply => 3,
        SendKind::Resync { .. } => 4,
    }
}

/// Fixed opcode order of [`ScenarioReport::datagrams_by_op`] — pinned
/// so regression tests can index rows positionally.
pub const SCENARIO_OPS: [&str; 5] = [
    "update-delta",
    "update-full",
    "keepalive",
    "query-reply",
    "dirreq",
];

/// Knobs for one scenario run: the underlying fault-plan config plus
/// the good-ruler report's window count and virtual latency model.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The fault-plan / cluster knobs. `proxies` is overwritten by the
    /// scenario's node count; `local_ops` defaults to 0 here because
    /// the scenario, not the fault plan, defines the workload.
    pub sim: SimConfig,
    /// Report windows over the scenario horizon (hit ratio and
    /// staleness are sampled per window).
    pub windows: usize,
    /// Virtual round-trip to the origin server (microseconds), charged
    /// on every miss, false hit and query timeout.
    pub origin_rtt_us: u64,
    /// Virtual local service time (microseconds), charged on every
    /// served request.
    pub local_service_us: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            sim: SimConfig {
                local_ops: 0,
                ..SimConfig::default()
            },
            windows: 8,
            origin_rtt_us: 120_000,
            local_service_us: 200,
        }
    }
}

/// Count (observer, evicted-url) advertisement pairs where a live
/// observer's installed replica of a live peer still advertises `url`
/// even though that peer no longer caches it — the residue a
/// false-hit storm leaves until the removal deltas propagate. Bloom
/// false positives can inflate this; run quiescence probes at a
/// generous load factor (16 keeps the pinned tests FP-free). Each
/// observer is probed the way a daemon request reads it: its router is
/// flushed and its replica snapshot probed.
pub fn stale_advertised_pairs(
    routers: &mut [Router],
    dirs: &[HashSet<String>],
    up: &[bool],
    url: &str,
) -> u64 {
    let key = UrlKey::new(url.as_bytes());
    let mut candidates = Vec::new();
    let mut stale = 0;
    for (i, r) in routers.iter_mut().enumerate() {
        if !up[i] {
            continue;
        }
        r.flush_replicas();
        r.replica_cell().load().candidates_key_into(&key, &mut candidates);
        for &peer in &candidates {
            let j = peer as usize;
            if up[j] && !dirs[j].contains(url) {
                stale += 1;
            }
        }
    }
    stale
}

/// Per-window slice of the good-ruler report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window index (0-based over the scenario horizon).
    pub idx: usize,
    /// Requests issued inside the window (including unserved ones).
    pub requests: u64,
    /// Local-cache hits inside the window.
    pub local_hits: u64,
    /// Remote (peer) hits inside the window.
    pub remote_hits: u64,
    /// False hits (every advertising replica lied) inside the window.
    pub false_hits: u64,
    /// Live replica pairs diverging from the publisher at window end.
    pub stale_pairs: u64,
    /// Live replica pairs sampled at window end.
    pub live_pairs: u64,
}

/// The per-scenario "good ruler" report: every dimension the ICN ruler
/// paper says a cache-network evaluation must publish — hit ratio over
/// time windows, summary staleness, false-hit rate, per-opcode message
/// distribution, and virtual-time tail latency — counted in place
/// while the scenario runs. Run-level counts (convergence, bytes,
/// drops, resyncs, failures) stay in the [`SimReport`] next to it in
/// the [`ScenarioOutcome`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (e.g. `flash-crowd`).
    pub name: String,
    /// Cluster size.
    pub proxies: usize,
    /// Total scenario requests issued.
    pub requests: u64,
    /// Requests that arrived while their proxy was down, or whose proxy
    /// crashed while their query round was open.
    pub unserved: u64,
    /// Requests answered from the local cache.
    pub local_hits: u64,
    /// Requests answered from a peer cache.
    pub remote_hits: u64,
    /// Requests where every advertising replica lied (paper §II).
    pub false_hits: u64,
    /// Requests that went to the origin (misses + false hits).
    pub origin_fetches: u64,
    /// ICP queries sent to advertising peers.
    pub queries_sent: u64,
    /// Queries answered MISS: the peer did not hold the document (a
    /// duplicated query is answered, and counted, twice).
    pub wasted_queries: u64,
    /// Query rounds that ended at their deadline with no HIT; each
    /// request then went to the origin.
    pub query_timeouts: u64,
    /// Cache entries removed by evict-everywhere storms.
    pub evictions: u64,
    /// Advertisement pairs still claiming a storm-evicted URL after
    /// settle (0 = the counting-Bloom deltas fully cleared).
    pub stale_advertised_after_settle: u64,
    /// Virtual request latency percentiles (bucket floors, µs).
    pub latency_p50_us: u64,
    /// 90th percentile virtual latency (µs).
    pub latency_p90_us: u64,
    /// 99th percentile virtual latency (µs).
    pub latency_p99_us: u64,
    /// Maximum-bucket virtual latency (µs).
    pub latency_max_us: u64,
    /// Datagram counts per opcode, in [`SCENARIO_OPS`] order.
    pub datagrams_by_op: Vec<(String, u64)>,
    /// Per-window hit/staleness slices.
    pub windows: Vec<WindowStats>,
}

impl ScenarioReport {
    /// Served-hit ratio: (local + remote) over all requests.
    pub fn hit_ratio(&self) -> f64 {
        (self.local_hits + self.remote_hits) as f64 / self.requests.max(1) as f64
    }

    /// False hits over all requests (the paper reports this per total
    /// requests, Table V).
    pub fn false_hit_ratio(&self) -> f64 {
        self.false_hits as f64 / self.requests.max(1) as f64
    }
}

/// Everything a scenario run hands back: the good-ruler report, the
/// underlying fault-plan report (journal, convergence, byte counts),
/// and the final cluster state for post-run probes.
pub struct ScenarioOutcome {
    /// The good-ruler report.
    pub report: ScenarioReport,
    /// The underlying fault-plan report.
    pub sim: SimReport,
    /// Each node's router, for replica probes.
    pub routers: Vec<Router>,
    /// Each node's final cache directory.
    pub dirs: Vec<HashSet<String>>,
    /// Each node's final liveness.
    pub up: Vec<bool>,
}

/// Run `scenario` against a simulated cluster: schedule its events on
/// top of the seeded fault plan, count every request into the
/// good-ruler report, settle, probe every storm-evicted URL for stale
/// advertisements, and complete the report with the latency
/// percentiles.
pub fn run_scenario(cfg: ScenarioConfig, seed: u64, scenario: &Scenario) -> ScenarioOutcome {
    assert!(cfg.windows > 0, "a report needs at least one window");
    let mut sim_cfg = cfg.sim;
    sim_cfg.proxies = scenario.nodes as usize;
    sim_cfg.crashes = sim_cfg.crashes.min(sim_cfg.proxies - 1);
    sim_cfg.horizon_ms = sim_cfg.horizon_ms.max(scenario.horizon_us.div_ceil(1_000));
    let mut sim = Sim::new(sim_cfg, seed);
    for ev in &scenario.events {
        let se = match &ev.kind {
            ScenarioKind::Request { node, url, server } => SimEvent::Request {
                node: *node as usize,
                url: render_url(*server, *url),
            },
            ScenarioKind::Crash { node } => SimEvent::Crash {
                node: *node as usize,
            },
            ScenarioKind::Restart { node } => SimEvent::Restart {
                node: *node as usize,
            },
            ScenarioKind::EvictEverywhere { url, server } => SimEvent::PurgeEverywhere {
                url: render_url(*server, *url),
            },
        };
        sim.schedule(ev.at_us, se);
    }
    let window_us = (scenario.horizon_us / cfg.windows as u64).max(1);
    for idx in 0..cfg.windows {
        let at = ((idx as u64 + 1) * window_us).min(scenario.horizon_us);
        sim.schedule(at, SimEvent::WindowMark { idx });
    }
    let report = ScenarioReport {
        name: scenario.name.clone(),
        proxies: sim.cfg.proxies,
        datagrams_by_op: SCENARIO_OPS.iter().map(|op| (op.to_string(), 0)).collect(),
        windows: (0..cfg.windows)
            .map(|idx| WindowStats {
                idx,
                ..WindowStats::default()
            })
            .collect(),
        ..ScenarioReport::default()
    };
    sim.scn = Some(ScnState {
        report,
        latency: Histogram::new(),
        window_us,
        origin_rtt_us: cfg.origin_rtt_us,
        local_service_us: cfg.local_service_us,
        tracked_evicted: Vec::new(),
        rounds: BTreeMap::new(),
    });
    let sim_report = sim.run();
    let Some(scn) = sim.scn.take() else {
        unreachable!("the scenario state was installed above");
    };
    let up: Vec<bool> = sim.nodes.iter().map(|n| n.up).collect();
    let nodes = std::mem::take(&mut sim.nodes);
    let (mut routers, dirs): (Vec<Router>, Vec<HashSet<String>>) =
        nodes.into_iter().map(|n| (n.router, n.dir)).unzip();
    let stale = scn
        .tracked_evicted
        .iter()
        .map(|url| stale_advertised_pairs(&mut routers, &dirs, &up, url))
        .sum();
    let hist = scn.latency.snapshot();
    let report = ScenarioReport {
        stale_advertised_after_settle: stale,
        latency_p50_us: hist.percentile(0.50),
        latency_p90_us: hist.percentile(0.90),
        latency_p99_us: hist.percentile(0.99),
        latency_max_us: hist.percentile(1.0),
        ..scn.report
    };
    ScenarioOutcome {
        report,
        sim: sim_report,
        routers,
        dirs,
        up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_cluster_converges_trivially() {
        let cfg = SimConfig {
            local_ops: 12,
            horizon_ms: 500,
            loss: 0.0,
            duplicate: 0.0,
            crashes: 0,
            partitions: 0,
            delay_us: (200, 2_000),
            ..SimConfig::default()
        };
        let report = Sim::new(cfg, 42).run();
        assert!(report.converged, "no faults, no excuses: {report:?}");
        assert!(report.replicas_installed > 0);
    }

    #[test]
    fn default_plan_processes_thousands_of_events_and_converges() {
        let report = Sim::new(SimConfig::default(), 7).run();
        assert!(report.converged, "seed 7 must converge: {report:?}");
        assert!(
            report.events_processed >= 1_000,
            "schedule too small: {} events",
            report.events_processed
        );
        assert!(report.datagrams_dropped > 0, "loss plan was exercised");
        assert!(report.datagrams_duplicated > 0, "duplication plan was exercised");
        assert!(report.gaps_seen > 0, "loss produced detectable gaps");
        assert!(report.resyncs_requested > 0, "gaps produced DIRREQs");
    }

    /// The big-N acceptance run: 64 proxies under the full fault plan
    /// (loss, duplication, reorder, crash+restart, partitions) must
    /// reconverge bit-for-bit, with the one-DIRREQ-per-gap invariant
    /// asserted continuously inside `dispatch`. CI's smoke sweeps more
    /// seeds via `SC_SIM_PEERS=64` on the seeded soak.
    #[test]
    fn sixty_four_proxies_reconverge_under_the_full_fault_plan() {
        let cfg = SimConfig {
            proxies: 64,
            local_ops: 400,
            horizon_ms: 600,
            crashes: 3,
            partitions: 2,
            ..SimConfig::default()
        };
        let report = Sim::new(cfg, 0xB16).run();
        assert!(report.converged, "64-proxy cluster must reconverge: {report:?}");
        assert!(report.failures > 0, "crash plan was exercised");
        assert!(report.gaps_seen > 0, "fault plan produced gaps");
        assert!(report.update_bytes_sent > 0, "update traffic accounted");
        assert!(report.update_datagrams_sent > 0);
        assert!(report.other_bytes_sent > 0, "keep-alive traffic accounted");
    }

    /// Publish-seq wraparound: lanes start just below `u32::MAX` and
    /// cross it mid-run while datagrams are being dropped. The modular
    /// duplicate/gap comparisons must keep ordering straight across
    /// the boundary — a naive `seq < expected` would read every
    /// post-wrap update as ancient and silently freeze the replicas.
    #[test]
    fn seq_wraparound_under_loss_reconverges() {
        let cfg = SimConfig {
            initial_seq: u32::MAX - 8,
            local_ops: 240,
            horizon_ms: 800,
            crashes: 0,
            partitions: 1,
            ..SimConfig::default()
        };
        let report = Sim::new(cfg, 0x11A4).run();
        assert!(
            report.converged,
            "wraparound crossing must reconverge: {report:?}"
        );
        assert!(report.datagrams_dropped > 0, "loss exercised the boundary");
        assert!(report.gaps_seen > 0, "dropped updates detected across the wrap");
    }

    /// A quiet (fault-free) scenario config: the scenario's own events
    /// are the only perturbation, and load factor 16 keeps the pinned
    /// staleness probes free of Bloom false positives.
    fn quiet_scn_cfg() -> ScenarioConfig {
        ScenarioConfig {
            sim: SimConfig {
                loss: 0.0,
                duplicate: 0.0,
                crashes: 0,
                partitions: 0,
                delay_us: (200, 2_000),
                local_ops: 0,
                load_factor: 16,
                cache_docs: 512,
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let scenario = sc_trace::scenario::flash_crowd(4, 0xF1A5);
        let a = run_scenario(quiet_scn_cfg(), 0xF1A5, &scenario);
        let b = run_scenario(quiet_scn_cfg(), 0xF1A5, &scenario);
        assert_eq!(a.sim.journal, b.sim.journal, "journals must be bit-identical");
        assert_eq!(a.report, b.report, "reports must be bit-identical");
        assert!(a.report.requests > 0);
    }

    /// Scenario requests query on the simulated wire: with no loss
    /// every query is answered exactly once and no round times out.
    #[test]
    fn queries_and_replies_travel_the_simulated_wire() {
        let scenario = sc_trace::scenario::diurnal_drift(4, 77);
        let r = run_scenario(quiet_scn_cfg(), 77, &scenario).report;
        assert!(r.queries_sent > 0, "no query went out:\n{r:#?}");
        assert_eq!(r.datagrams_by_op[3].1, r.queries_sent, "one reply per query:\n{r:#?}");
        assert_eq!(r.query_timeouts, 0, "{r:#?}");
    }

    #[test]
    fn false_hit_storm_produces_false_hits_then_quiesces_clean() {
        let scenario = sc_trace::scenario::false_hit_storm(4, 3);
        let out = run_scenario(quiet_scn_cfg(), 3, &scenario);
        let r = &out.report;
        assert!(out.sim.converged, "quiet storm must settle:\n{r:#?}");
        assert!(r.evictions > 0, "the storm evicted nothing:\n{r:#?}");
        assert!(r.false_hits > 0, "evict-everywhere must produce false hits:\n{r:#?}");
        assert_eq!(
            r.stale_advertised_after_settle, 0,
            "stale advertisements survived settle:\n{r:#?}"
        );
    }

    #[test]
    fn windows_account_for_every_request() {
        let scenario = sc_trace::scenario::diurnal_drift(4, 77);
        let out = run_scenario(quiet_scn_cfg(), 77, &scenario);
        let r = &out.report;
        assert_eq!(r.requests, scenario.requests(), "every scheduled request counted");
        let by_window: u64 = r.windows.iter().map(|w| w.requests).sum();
        assert_eq!(by_window, r.requests, "window slices must partition the run");
        let local: u64 = r.windows.iter().map(|w| w.local_hits).sum();
        assert_eq!(local, r.local_hits);
        let remote: u64 = r.windows.iter().map(|w| w.remote_hits).sum();
        assert_eq!(remote, r.remote_hits);
        let false_hits: u64 = r.windows.iter().map(|w| w.false_hits).sum();
        assert_eq!(false_hits, r.false_hits);
        // Accounting identity: every served request resolves exactly once.
        assert_eq!(
            r.local_hits + r.remote_hits + r.origin_fetches + r.unserved,
            r.requests,
            "request outcomes must partition:\n{r:#?}"
        );
        assert!(r.latency_max_us >= r.latency_p50_us);
    }

    /// Staggered fan-out is behavior-preserving: any slot count
    /// converges, and in a fault-free run the subdivided tick cadence
    /// must not produce spurious failure declarations (each peer is
    /// still pinged and serviced once per keep-alive period).
    #[test]
    fn fanout_slots_converge_without_spurious_failures() {
        for slots in [1usize, 2, 4] {
            let cfg = SimConfig {
                proxies: 8,
                fanout_slots: slots,
                local_ops: 60,
                horizon_ms: 600,
                loss: 0.0,
                duplicate: 0.0,
                crashes: 0,
                partitions: 0,
                delay_us: (200, 2_000),
                ..SimConfig::default()
            };
            let report = Sim::new(cfg, 99).run();
            assert!(report.converged, "slots={slots} must converge: {report:?}");
            assert_eq!(
                report.failures, 0,
                "slots={slots}: stagger broke failure-detection timing"
            );
        }
    }
}
