//! Adversarial and production-shaped workload **scenarios**.
//!
//! The paper's evaluation (and the stationary generators in
//! [`crate::generator`]) replays fixed-popularity traces; the sharing
//! protocol's weak spots — false hits, summary staleness, resync storms
//! — only show up under *non-stationary* load. A [`Scenario`] is a
//! composable, seeded, time-indexed workload program: a schedule of
//! [`ScenarioEvent`]s (client requests plus control actions like
//! rolling restarts and global evictions) that a driver replays against
//! a cluster. Two drivers exist:
//!
//! * the deterministic simnet (`sc-proxy`'s `simnet::run_scenario`)
//!   replays the schedule against N routed proxies under a seeded
//!   fault plan and renders the "good ruler" report;
//! * the trace-level hierarchy simulator (`sc-sim`'s `hierarchy`)
//!   consumes [`Scenario::to_trace`] to reproduce the filter effect in
//!   a two-level cache tree.
//!
//! **Composition and determinism.** A scenario is assembled from
//! [`Phase`]s. Each phase draws from its *own* rng, seeded from
//! `(scenario seed, phase index)`, so adding, removing or reordering a
//! phase never perturbs another phase's draws — the flash-crowd burst
//! lands on the same documents whether or not a churn phase rides
//! along. The final schedule is stably sorted by timestamp, so equal
//! stamps keep phase-insertion order. Same `(constructor, nodes, seed)`
//! → byte-identical schedule, always. Generators are clock- and
//! socket-free (`crates/clippy.toml` disallows clocks and sockets): virtual
//! time is data here, never `Instant`.

use crate::model::{render_url, Request, Trace, UrlId};
use crate::sampler::Zipf;
use sc_util::Rng;

/// Virtual-time stamp in microseconds from scenario start (the simnet
/// clock domain).
pub type Micros = u64;

/// One scheduled scenario action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEvent {
    /// When the action fires, in virtual microseconds from run start.
    pub at_us: Micros,
    /// What happens.
    pub kind: ScenarioKind,
}

/// The actions a scenario can schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A client of proxy `node` requests document `url` on `server`.
    Request {
        /// The proxy whose client issues the request.
        node: u32,
        /// Document identity.
        url: UrlId,
        /// Server-name component of the URL.
        server: u32,
    },
    /// Proxy `node` crashes: drops off the network and loses all state
    /// (it will come back with a fresh generation and an empty cache).
    Crash {
        /// The victim.
        node: u32,
    },
    /// Proxy `node` restarts after a [`ScenarioKind::Crash`].
    Restart {
        /// The returning proxy.
        node: u32,
    },
    /// Document `url` is evicted from every cache that holds it —
    /// while every summary keeps advertising it until the removal
    /// deltas propagate. This is the false-hit-storm trigger.
    EvictEverywhere {
        /// Document identity.
        url: UrlId,
        /// Server-name component of the URL.
        server: u32,
    },
}

impl ScenarioKind {
    /// The canonical URL string for request/eviction events (`None`
    /// for control events that carry no document).
    pub fn url_string(&self) -> Option<String> {
        match *self {
            ScenarioKind::Request { url, server, .. }
            | ScenarioKind::EvictEverywhere { url, server } => Some(render_url(server, url)),
            _ => None,
        }
    }
}

/// A composable, seeded, time-indexed workload program. Build one with
/// [`ScenarioBuilder`] or take a canned one from [`by_name`] /
/// the five constructors ([`flash_crowd`], [`diurnal_drift`],
/// [`peer_churn`], [`false_hit_storm`], [`two_level_hierarchy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (report headers and JSON rows).
    pub name: String,
    /// Number of proxies the schedule addresses (nodes `0..nodes`).
    pub nodes: u32,
    /// Schedule horizon: every event fires strictly before this stamp
    /// (the driver's fault window must cover it).
    pub horizon_us: Micros,
    /// The schedule, stably sorted by `at_us`.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Number of client requests in the schedule.
    pub fn requests(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ScenarioKind::Request { .. }))
            .count() as u64
    }

    /// Render the request stream as a [`Trace`] for the trace-driven
    /// simulators (control events are dropped; hierarchies and the
    /// Section III schemes model neither crashes nor global
    /// evictions). Client ids equal node ids, so
    /// [`crate::group_of_client`] maps each request back onto its
    /// scenario node; sizes are a deterministic function of the
    /// document id; `last_modified` is fixed (scenarios measure
    /// sharing dynamics, not consistency).
    pub fn to_trace(&self) -> Trace {
        let requests = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ScenarioKind::Request { node, url, server } => Some(Request {
                    time_ms: e.at_us / 1_000,
                    client: node,
                    url,
                    server,
                    size: doc_size(url),
                    last_modified: 0,
                }),
                _ => None,
            })
            .collect();
        Trace {
            name: self.name.clone(),
            groups: self.nodes,
            requests,
        }
    }
}

/// Deterministic synthetic body size for document `url`: 1 KiB floor
/// plus a hash-spread tail up to ≈ 64 KiB, so capacity planning in
/// trace-level runs sees heterogeneous (but reproducible) sizes.
pub fn doc_size(url: UrlId) -> u64 {
    1024 + (mix64(url) % (63 * 1024))
}

/// SplitMix64 finalizer — the same bit mixer the router uses for
/// fanout slots; here it decorrelates per-phase rng seeds and document
/// sizes from raw ids.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A workload component. Phases append events to the shared schedule;
/// each receives an rng seeded from `(scenario seed, phase index)` so
/// composition is stable (see the module docs).
pub trait Phase {
    /// Emit this component's events. `nodes` is the scenario's node
    /// count; timestamps must stay below the scenario horizon.
    fn emit(&self, rng: &mut Rng, nodes: u32, out: &mut Vec<ScenarioEvent>);
}

/// Assembles a [`Scenario`] from [`Phase`]s.
#[derive(Debug)]
pub struct ScenarioBuilder {
    name: String,
    nodes: u32,
    horizon_us: Micros,
    seed: u64,
    phase_idx: u64,
    events: Vec<ScenarioEvent>,
}

impl ScenarioBuilder {
    /// Start a scenario of `nodes` proxies spanning `horizon_us` of
    /// virtual time, with all phase rngs derived from `seed`.
    ///
    /// # Panics
    /// On a degenerate shape (`nodes == 0` or a zero horizon).
    pub fn new(name: &str, nodes: u32, horizon_us: Micros, seed: u64) -> ScenarioBuilder {
        assert!(nodes > 0, "a scenario needs at least one node");
        assert!(horizon_us > 0, "a scenario needs a horizon");
        ScenarioBuilder {
            name: name.to_string(),
            nodes,
            horizon_us,
            seed,
            phase_idx: 0,
            events: Vec::new(),
        }
    }

    /// Run `phase` with its own derived rng and absorb its events.
    pub fn phase(mut self, phase: &dyn Phase) -> ScenarioBuilder {
        let mut rng = Rng::seed_from_u64(self.seed ^ mix64(self.phase_idx + 1));
        self.phase_idx += 1;
        phase.emit(&mut rng, self.nodes, &mut self.events);
        self
    }

    /// Stably sort the schedule and seal it.
    ///
    /// # Panics
    /// If any event addresses a node `>= nodes` or fires at/after the
    /// horizon.
    pub fn build(mut self) -> Scenario {
        for e in &self.events {
            assert!(
                e.at_us < self.horizon_us,
                "event at {}us is outside the {}us horizon",
                e.at_us,
                self.horizon_us
            );
            let node = match e.kind {
                ScenarioKind::Request { node, .. }
                | ScenarioKind::Crash { node }
                | ScenarioKind::Restart { node } => Some(node),
                ScenarioKind::EvictEverywhere { .. } => None,
            };
            if let Some(node) = node {
                assert!(node < self.nodes, "event addresses node {node} of {}", self.nodes);
            }
        }
        // Stable: equal stamps keep phase-insertion order, which is
        // part of the determinism contract.
        self.events.sort_by_key(|e| e.at_us);
        Scenario {
            name: self.name,
            nodes: self.nodes,
            horizon_us: self.horizon_us,
            events: self.events,
        }
    }
}

// ---------------------------------------------------------------------
// Reusable phases.
// ---------------------------------------------------------------------

/// Zipf-popularity request stream over a document window, optionally
/// with **rank drift** (the diurnal model: every `period_us` the rank
/// permutation churns by `swaps` transpositions through
/// [`Zipf::churn`]).
#[derive(Debug, Clone)]
pub struct ZipfLoad {
    /// First request at/after this stamp.
    pub start_us: Micros,
    /// Requests stop strictly before this stamp.
    pub end_us: Micros,
    /// Requests to emit.
    pub requests: usize,
    /// Document universe: ids `doc_base .. doc_base + docs`.
    pub docs: usize,
    /// Offset of the universe (phases use disjoint bases to model
    /// disjoint content).
    pub doc_base: UrlId,
    /// Zipf exponent of document popularity.
    pub alpha: f64,
    /// URLs per server name (the paper's ≈10:1 clustering).
    pub urls_per_server: u32,
    /// Rank churn: `Some((period_us, swaps))` re-permutes the rank map
    /// every period; `None` keeps popularity stationary.
    pub drift: Option<(Micros, usize)>,
}

impl Phase for ZipfLoad {
    fn emit(&self, rng: &mut Rng, nodes: u32, out: &mut Vec<ScenarioEvent>) {
        assert!(self.start_us < self.end_us, "empty load window");
        assert!(self.docs > 0 && self.urls_per_server > 0);
        let mut stamps: Vec<Micros> = (0..self.requests)
            .map(|_| rng.gen_range(self.start_us..self.end_us))
            .collect();
        stamps.sort_unstable();
        let mut zipf = Zipf::new(self.docs, self.alpha);
        let mut next_churn = self.drift.map(|(period, _)| self.start_us + period);
        for at_us in stamps {
            if let (Some((period, swaps)), Some(due)) = (self.drift, next_churn) {
                if at_us >= due {
                    // Catch up churn periods the stamp skipped over, so
                    // drift speed is wall-clock, not request-rate.
                    let mut due = due;
                    while at_us >= due {
                        zipf.churn(rng, swaps);
                        due += period;
                    }
                    next_churn = Some(due);
                }
            }
            let doc = zipf.sample_item(rng) as UrlId;
            let node = rng.gen_range(0..nodes);
            out.push(ScenarioEvent {
                at_us,
                kind: request_for(node, self.doc_base, doc, self.urls_per_server),
            });
        }
    }
}

/// A sudden hot-object surge: a burst of requests concentrated on a
/// small, previously-cold document set, from every node at once.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Surge onset.
    pub at_us: Micros,
    /// Surge length.
    pub duration_us: Micros,
    /// Requests in the surge.
    pub requests: usize,
    /// How many documents go hot.
    pub hot_docs: usize,
    /// Id base of the hot set (disjoint from background bases).
    pub doc_base: UrlId,
    /// URLs per server name.
    pub urls_per_server: u32,
}

impl Phase for FlashCrowd {
    fn emit(&self, rng: &mut Rng, nodes: u32, out: &mut Vec<ScenarioEvent>) {
        assert!(self.hot_docs > 0 && self.duration_us > 0);
        // Hot objects follow a steep law — everyone wants *the* story,
        // a few want the sidebar links.
        let zipf = Zipf::new(self.hot_docs, 1.2);
        for _ in 0..self.requests {
            let at_us = self.at_us + rng.gen_range(0..self.duration_us);
            let doc = zipf.sample_item(rng) as UrlId;
            let node = rng.gen_range(0..nodes);
            out.push(ScenarioEvent {
                at_us,
                kind: request_for(node, self.doc_base, doc, self.urls_per_server),
            });
        }
    }
}

/// Rolling restarts: nodes `0..victims` crash one after another,
/// `every_us` apart, each returning `down_us` later with a fresh
/// generation and an empty cache (the PR-8 recovery-resync path, at
/// scenario scale).
#[derive(Debug, Clone)]
pub struct RollingRestarts {
    /// First crash stamp.
    pub start_us: Micros,
    /// Gap between consecutive crashes.
    pub every_us: Micros,
    /// Downtime of each victim.
    pub down_us: Micros,
    /// How many nodes to roll (`0..victims`, wrapping is a bug —
    /// keep it ≤ the scenario's node count).
    pub victims: u32,
}

impl Phase for RollingRestarts {
    fn emit(&self, _rng: &mut Rng, nodes: u32, out: &mut Vec<ScenarioEvent>) {
        assert!(self.victims <= nodes, "more victims than nodes");
        assert!(self.victims < nodes, "leave at least one node standing");
        for i in 0..self.victims {
            let crash_at = self.start_us + i as u64 * self.every_us;
            out.push(ScenarioEvent {
                at_us: crash_at,
                kind: ScenarioKind::Crash { node: i },
            });
            out.push(ScenarioEvent {
                at_us: crash_at + self.down_us,
                kind: ScenarioKind::Restart { node: i },
            });
        }
    }
}

/// Requests that pull a document set into **every** node's cache (each
/// node fetches each document once), staggered a millisecond apart so
/// summary updates interleave naturally. Preparation for
/// [`EvictStorm`].
#[derive(Debug, Clone)]
pub struct SeedEverywhere {
    /// First request stamp.
    pub at_us: Micros,
    /// The document set: ids `doc_base .. doc_base + docs`.
    pub docs: usize,
    /// Id base of the set.
    pub doc_base: UrlId,
    /// URLs per server name.
    pub urls_per_server: u32,
}

impl Phase for SeedEverywhere {
    fn emit(&self, _rng: &mut Rng, nodes: u32, out: &mut Vec<ScenarioEvent>) {
        let mut at_us = self.at_us;
        for doc in 0..self.docs as UrlId {
            for node in 0..nodes {
                out.push(ScenarioEvent {
                    at_us,
                    kind: request_for(node, self.doc_base, doc, self.urls_per_server),
                });
                at_us += 1_000;
            }
        }
    }
}

/// The false-hit-storm trigger: every document in the set is evicted
/// from every cache at once, while every summary replica keeps
/// advertising it until the removal deltas (or a resync) propagate.
#[derive(Debug, Clone)]
pub struct EvictStorm {
    /// Eviction stamp.
    pub at_us: Micros,
    /// The document set: ids `doc_base .. doc_base + docs`.
    pub docs: usize,
    /// Id base of the set.
    pub doc_base: UrlId,
    /// URLs per server name.
    pub urls_per_server: u32,
}

impl Phase for EvictStorm {
    fn emit(&self, _rng: &mut Rng, _nodes: u32, out: &mut Vec<ScenarioEvent>) {
        for doc in 0..self.docs as UrlId {
            let url = self.doc_base + doc;
            out.push(ScenarioEvent {
                at_us: self.at_us,
                kind: ScenarioKind::EvictEverywhere {
                    url,
                    server: server_for(self.doc_base, doc, self.urls_per_server),
                },
            });
        }
    }
}

fn request_for(node: u32, doc_base: UrlId, doc: UrlId, urls_per_server: u32) -> ScenarioKind {
    ScenarioKind::Request {
        node,
        url: doc_base + doc,
        server: server_for(doc_base, doc, urls_per_server),
    }
}

/// Server id for document `doc_base + doc`: consecutive ids share a
/// server, and the base is folded in so disjoint document spaces land
/// on disjoint servers.
fn server_for(doc_base: UrlId, doc: UrlId, urls_per_server: u32) -> u32 {
    ((doc_base / urls_per_server as u64) + doc / urls_per_server as u64) as u32
}

// ---------------------------------------------------------------------
// The five canned scenarios.
// ---------------------------------------------------------------------

/// Virtual horizon shared by the canned scenarios: 2 s, matching the
/// simnet's default fault window.
pub const CANNED_HORIZON_US: Micros = 2_000_000;

/// **Flash crowd**: a steady Zipf background, then at 800 ms a
/// previously-cold 8-document set takes a surge of concentrated
/// requests for 600 ms. Measures how fast the cluster absorbs a hot
/// set (hit ratio dips then recovers; remote-hit share spikes while
/// exactly one copy exists).
pub fn flash_crowd(nodes: u32, seed: u64) -> Scenario {
    ScenarioBuilder::new("flash-crowd", nodes, CANNED_HORIZON_US, seed)
        .phase(&ZipfLoad {
            start_us: 0,
            end_us: CANNED_HORIZON_US,
            requests: 1_200,
            docs: 400,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: None,
        })
        .phase(&FlashCrowd {
            at_us: 800_000,
            duration_us: 600_000,
            requests: 900,
            hot_docs: 8,
            doc_base: 1_000_000,
            urls_per_server: 4,
        })
        .build()
}

/// **Diurnal drift**: one Zipf stream whose rank permutation churns
/// every 250 ms (an eighth of the document space swaps popularity each
/// period) — the "morning news, evening sports" popularity rotation.
/// Measures how staleness and false hits track rank churn.
pub fn diurnal_drift(nodes: u32, seed: u64) -> Scenario {
    ScenarioBuilder::new("diurnal-drift", nodes, CANNED_HORIZON_US, seed)
        .phase(&ZipfLoad {
            start_us: 0,
            end_us: CANNED_HORIZON_US,
            requests: 2_000,
            docs: 480,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: Some((250_000, 60)),
        })
        .build()
}

/// **Peer churn at scale**: a steady stream while a quarter of the
/// mesh rolls through crash+restart, 60 ms down each, 80 ms apart —
/// rolling restarts over the PR-8 update lanes. Measures recovery
/// resyncs and whether convergence survives overlapping churn.
pub fn peer_churn(nodes: u32, seed: u64) -> Scenario {
    let victims = (nodes / 4).max(1).min(nodes - 1);
    ScenarioBuilder::new("peer-churn", nodes, CANNED_HORIZON_US, seed)
        .phase(&ZipfLoad {
            start_us: 0,
            end_us: CANNED_HORIZON_US,
            requests: 1_600,
            docs: 400,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: None,
        })
        .phase(&RollingRestarts {
            start_us: 200_000,
            every_us: 80_000,
            down_us: 60_000,
            victims,
        })
        .build()
}

/// **False-hit storm**: a 6-document set is pulled into *every* cache,
/// then at 900 ms evicted from *every* cache at once — while each
/// node's summary replicas still advertise all of it everywhere. A
/// probe stream keeps requesting the set; until removal deltas (or
/// resyncs) propagate, every probe that trusts a summary takes a false
/// hit. Measures the staleness window and that quiescence clears every
/// advertised-but-evicted URL (the PR-8 lost-recovery loop).
pub fn false_hit_storm(nodes: u32, seed: u64) -> Scenario {
    const STORM_BASE: UrlId = 2_000_000;
    const STORM_DOCS: usize = 6;
    ScenarioBuilder::new("false-hit-storm", nodes, CANNED_HORIZON_US, seed)
        // Background keeps caches churning (and lanes busy).
        .phase(&ZipfLoad {
            start_us: 0,
            end_us: CANNED_HORIZON_US,
            requests: 900,
            docs: 320,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: None,
        })
        .phase(&SeedEverywhere {
            at_us: 100_000,
            docs: STORM_DOCS,
            doc_base: STORM_BASE,
            urls_per_server: 3,
        })
        .phase(&EvictStorm {
            at_us: 900_000,
            docs: STORM_DOCS,
            doc_base: STORM_BASE,
            urls_per_server: 3,
        })
        // The probe stream: near-uniform requests across the storm set
        // after the eviction.
        .phase(&ZipfLoad {
            start_us: 950_000,
            end_us: CANNED_HORIZON_US,
            requests: 600,
            docs: STORM_DOCS,
            doc_base: STORM_BASE,
            alpha: 0.2,
            urls_per_server: 3,
            drift: None,
        })
        .build()
}

/// **Two-level hierarchy** workload: drift plus a flash crowd, meant
/// for [`Scenario::to_trace`] and the `sc-sim` hierarchy simulator —
/// the child tier absorbs the recency the paper's filter effect says
/// never reaches the parent. `nodes` is the child (group) count.
pub fn two_level_hierarchy(nodes: u32, seed: u64) -> Scenario {
    ScenarioBuilder::new("two-level-hierarchy", nodes, CANNED_HORIZON_US, seed)
        .phase(&ZipfLoad {
            start_us: 0,
            end_us: CANNED_HORIZON_US,
            requests: 2_400,
            docs: 600,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: Some((500_000, 75)),
        })
        .phase(&FlashCrowd {
            at_us: 1_200_000,
            duration_us: 400_000,
            requests: 600,
            hot_docs: 6,
            doc_base: 3_000_000,
            urls_per_server: 3,
        })
        .build()
}

/// Names of the five canned scenarios, in presentation order.
pub fn scenario_names() -> [&'static str; 5] {
    [
        "flash-crowd",
        "diurnal-drift",
        "peer-churn",
        "false-hit-storm",
        "two-level-hierarchy",
    ]
}

/// Look a canned scenario up by its [`scenario_names`] entry.
pub fn by_name(name: &str, nodes: u32, seed: u64) -> Option<Scenario> {
    Some(match name {
        "flash-crowd" => flash_crowd(nodes, seed),
        "diurnal-drift" => diurnal_drift(nodes, seed),
        "peer-churn" => peer_churn(nodes, seed),
        "false-hit-storm" => false_hit_storm(nodes, seed),
        "two-level-hierarchy" => two_level_hierarchy(nodes, seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        for name in scenario_names() {
            let a = by_name(name, 8, 7).unwrap();
            let b = by_name(name, 8, 7).unwrap();
            assert_eq!(a, b, "{name}: same seed, same schedule");
            let c = by_name(name, 8, 8).unwrap();
            assert_ne!(a, c, "{name}: different seed moved the schedule");
        }
    }

    #[test]
    fn schedules_are_sorted_and_inside_the_horizon() {
        for name in scenario_names() {
            let s = by_name(name, 8, 3).unwrap();
            assert!(s.events.windows(2).all(|w| w[0].at_us <= w[1].at_us), "{name} sorted");
            assert!(s.events.iter().all(|e| e.at_us < s.horizon_us), "{name} in horizon");
            assert!(s.requests() > 0, "{name} carries requests");
        }
    }

    #[test]
    fn composition_is_stable_adding_a_phase_never_moves_existing_draws() {
        let background = ZipfLoad {
            start_us: 0,
            end_us: 1_000_000,
            requests: 200,
            docs: 100,
            doc_base: 0,
            alpha: 0.8,
            urls_per_server: 12,
            drift: None,
        };
        let alone = ScenarioBuilder::new("solo", 4, 1_000_000, 9)
            .phase(&background)
            .build();
        let with_crowd = ScenarioBuilder::new("duo", 4, 1_000_000, 9)
            .phase(&background)
            .phase(&FlashCrowd {
                at_us: 500_000,
                duration_us: 100_000,
                requests: 50,
                hot_docs: 4,
                doc_base: 1_000_000,
                urls_per_server: 4,
            })
            .build();
        // Every background event survives unchanged in the composite.
        let crowd_free: Vec<&ScenarioEvent> = with_crowd
            .events
            .iter()
            .filter(|e| matches!(e.kind, ScenarioKind::Request { url, .. } if url < 1_000_000))
            .collect();
        assert_eq!(crowd_free.len(), alone.events.len());
        for (a, b) in alone.events.iter().zip(crowd_free) {
            assert_eq!(a, b, "background draw moved when the crowd phase was added");
        }
    }

    #[test]
    fn drift_actually_churns_the_popular_set() {
        let s = diurnal_drift(4, 5);
        // Compare the top documents of the first and last quarters.
        let quarter = s.horizon_us / 4;
        let top_of = |lo: Micros, hi: Micros| -> Vec<UrlId> {
            let mut counts = std::collections::HashMap::new();
            for e in &s.events {
                if let ScenarioKind::Request { url, .. } = e.kind {
                    if e.at_us >= lo && e.at_us < hi {
                        *counts.entry(url).or_insert(0u32) += 1;
                    }
                }
            }
            let mut v: Vec<(UrlId, u32)> = counts.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v.into_iter().take(10).map(|(u, _)| u).collect()
        };
        let early = top_of(0, quarter);
        let late = top_of(3 * quarter, s.horizon_us);
        assert_ne!(early, late, "rank churn must move the head of the law");
    }

    #[test]
    fn storm_evicts_exactly_the_seeded_set() {
        let s = false_hit_storm(4, 1);
        let seeded: std::collections::BTreeSet<UrlId> = s
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ScenarioKind::Request { url, .. } if url >= 2_000_000 => Some(url),
                _ => None,
            })
            .collect();
        let evicted: std::collections::BTreeSet<UrlId> = s
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ScenarioKind::EvictEverywhere { url, .. } => Some(url),
                _ => None,
            })
            .collect();
        assert_eq!(evicted.len(), 6);
        assert!(evicted.is_subset(&seeded), "storm only evicts what it seeded");
    }

    #[test]
    fn churn_rolls_distinct_nodes_and_always_restarts() {
        let s = peer_churn(64, 2);
        let mut crashed = Vec::new();
        let mut restarted = Vec::new();
        for e in &s.events {
            match e.kind {
                ScenarioKind::Crash { node } => crashed.push(node),
                ScenarioKind::Restart { node } => restarted.push(node),
                _ => {}
            }
        }
        assert_eq!(crashed.len(), 16, "a quarter of 64 rolls");
        assert_eq!(crashed, restarted, "every crash has its restart, in order");
        let distinct: std::collections::BTreeSet<u32> = crashed.iter().copied().collect();
        assert_eq!(distinct.len(), crashed.len(), "rolling, not repeating");
    }

    #[test]
    fn to_trace_keeps_request_order_and_node_mapping() {
        let s = two_level_hierarchy(4, 11);
        let t = s.to_trace();
        assert_eq!(t.groups, 4);
        assert_eq!(t.len() as u64, s.requests());
        assert!(t.requests.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
        for r in &t.requests {
            assert_eq!(crate::group_of_client(r.client, 4), r.client % 4);
            assert_eq!(r.size, doc_size(r.url), "size is a pure function of the id");
        }
    }

    #[test]
    fn builder_rejects_events_outside_the_horizon() {
        struct Late;
        impl Phase for Late {
            fn emit(&self, _r: &mut Rng, _n: u32, out: &mut Vec<ScenarioEvent>) {
                out.push(ScenarioEvent {
                    at_us: 5_000_000,
                    kind: ScenarioKind::Crash { node: 0 },
                });
            }
        }
        let b = ScenarioBuilder::new("late", 2, 1_000_000, 0).phase(&Late);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.build())).is_err());
    }
}
