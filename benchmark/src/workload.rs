//! The four workloads and the seeded request streams that drive them.
//!
//! A workload is a URL universe (Zipf-ranked), a document-size law, a
//! cache budget and a cooperation mode. Everything a daemon sees is a
//! generated request; the seed never reaches the program. A document's
//! size and version are pure functions of `(seed, namespace, doc)`, so
//! every proxy — and the origin, which echoes what the request asks
//! for — agrees on its `DocMeta` without shared state.

use sc_cache::DocMeta;
use sc_proxy::Mode;
use sc_trace::sampler::{BoundedPareto, Zipf};
use sc_util::Rng;
use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::sync::Arc;

/// Proxies in the cluster. Two are driven; two are warmed peers.
pub const PROXIES: u32 = 4;
/// Driver threads, one keep-alive connection each, thread `t` → proxy
/// `t`. Fixed whatever the machine's core count is, so the load a
/// commit sees does not depend on where it runs.
pub const DRIVERS: usize = 2;
/// Shard lanes per daemon. The daemon's default is the machine's core
/// count; the benchmark pins it so two machines run the same program.
pub const SHARDS: usize = 2;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// How document sizes are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeLaw {
    /// Every document has this many bytes.
    Fixed(u64),
    /// Bounded Pareto `(alpha, min, max)` — the paper's §IV law.
    Pareto(f64, u64, u64),
}

/// How the caches are filled before the measured phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmup {
    /// Every document of the universe into every proxy.
    Preload,
    /// This many Zipf-sampled requests per proxy.
    Sampled(usize),
}

/// One workload's full parameter set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Classic ICP instead of summary-cache ICP.
    pub icp: bool,
    /// Documents per namespace.
    pub docs: usize,
    /// One namespace per proxy (no document is ever shared) instead of
    /// one namespace for the whole cluster.
    pub disjoint: bool,
    /// Zipf exponent of document popularity.
    pub zipf_alpha: f64,
    /// Document sizes.
    pub size: SizeLaw,
    /// Cache bytes per proxy.
    pub cache_bytes: u64,
    /// Expected cached documents per proxy (sizes the Bloom summary).
    pub expected_docs: u64,
    /// Cache fill before measuring.
    pub warmup: Warmup,
    /// Open-loop request rate, requests per second over both drivers.
    pub open_rate: f64,
}

/// The workloads, in the order `list` prints them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sc-hot",
        icp: false,
        docs: 2_000,
        disjoint: false,
        zipf_alpha: 0.8,
        size: SizeLaw::Fixed(128),
        cache_bytes: 4 << 20,
        expected_docs: 2_000,
        warmup: Warmup::Preload,
        open_rate: 4_000.0,
    },
    Workload {
        name: "sc-share",
        icp: false,
        docs: 60_000,
        disjoint: false,
        zipf_alpha: 0.7,
        size: SizeLaw::Pareto(1.1, 1024, 64 * 1024),
        cache_bytes: 16 << 20,
        expected_docs: (16 << 20) / 4096,
        warmup: Warmup::Sampled(3_000),
        open_rate: 300.0,
    },
    Workload {
        name: "icp-share",
        icp: true,
        docs: 60_000,
        disjoint: false,
        zipf_alpha: 0.7,
        size: SizeLaw::Pareto(1.1, 1024, 64 * 1024),
        cache_bytes: 16 << 20,
        expected_docs: (16 << 20) / 4096,
        warmup: Warmup::Sampled(3_000),
        open_rate: 300.0,
    },
    Workload {
        name: "sc-churn",
        icp: false,
        docs: 50_000,
        disjoint: true,
        zipf_alpha: 0.7,
        size: SizeLaw::Fixed(128),
        cache_bytes: 2_000 * 128,
        expected_docs: 2_000,
        warmup: Warmup::Sampled(3_000),
        open_rate: 400.0,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The cooperation mode every proxy runs in.
    pub fn mode(&self) -> Mode {
        if self.icp {
            Mode::Icp
        } else {
            Mode::summary_cache_default()
        }
    }

    /// The namespace proxy `proxy`'s clients draw from.
    pub fn namespace(&self, proxy: u32) -> u32 {
        if self.disjoint {
            proxy
        } else {
            0
        }
    }

    /// Size and version of document `doc` in `namespace`.
    pub fn meta(&self, seed: u64, namespace: u32, doc: u32) -> DocMeta {
        let h = mix(seed ^ mix((u64::from(namespace) << 32) | u64::from(doc)));
        let size = match self.size {
            SizeLaw::Fixed(n) => n,
            SizeLaw::Pareto(alpha, min, max) => BoundedPareto::new(alpha, min, max).sample(&mut Rng::seed_from_u64(h)),
        };
        DocMeta {
            size,
            last_modified: 1 + h % 1_000_000,
        }
    }

    /// The popularity law, shared by every stream of a run.
    pub fn zipf(&self) -> Arc<Zipf> {
        Arc::new(Zipf::new(self.docs, self.zipf_alpha))
    }
}

/// splitmix64's finalizer: decorrelates the per-document and per-stream
/// sub-seeds derived from one run seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Write the URL of `doc` in `namespace` into `out` (cleared first).
pub fn url_into(out: &mut String, namespace: u32, doc: u32) {
    out.clear();
    let _ = write!(
        out,
        "http://server-{}.bench.invalid/ns{}/doc/{}",
        doc >> 6,
        namespace,
        doc
    );
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Namespace of the document.
    pub namespace: u32,
    /// Document id within the namespace (its Zipf rank).
    pub doc: u32,
    /// The version the client expects.
    pub meta: DocMeta,
    /// Poisson gap to the previous request of this stream, nanoseconds.
    /// The open loop schedules by it; the closed loop ignores it.
    pub gap_ns: u64,
}

/// Which of a proxy's two streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The throw-away requests that fill the cache.
    Warmup,
    /// The measured requests (open loop, then closed loop, one stream).
    Measured,
}

/// The request stream of one proxy's clients: an endless, seeded
/// sequence of Zipf-ranked documents with exponential gaps.
pub struct Stream {
    workload: Workload,
    seed: u64,
    namespace: u32,
    zipf: Arc<Zipf>,
    rng: Rng,
    mean_gap_ns: f64,
}

impl Stream {
    /// The stream for `proxy`'s clients in `phase`.
    pub fn new(workload: &Workload, zipf: &Arc<Zipf>, seed: u64, proxy: u32, phase: Phase) -> Stream {
        let lane = u64::from(proxy) * 2 + u64::from(phase == Phase::Measured);
        Stream {
            workload: *workload,
            seed,
            namespace: workload.namespace(proxy),
            zipf: Arc::clone(zipf),
            rng: Rng::seed_from_u64(mix(seed ^ mix(0x5CBE_0000 + lane))),
            mean_gap_ns: 1e9 * DRIVERS as f64 / workload.open_rate,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let doc = self.zipf.sample(&mut self.rng) as u32;
        // Inverse-CDF exponential; 1 - u is in (0, 1], so ln is finite.
        let gap = -(1.0 - self.rng.gen_f64()).ln() * self.mean_gap_ns;
        Req {
            namespace: self.namespace,
            doc,
            meta: self.workload.meta(self.seed, self.namespace, doc),
            gap_ns: gap as u64,
        }
    }
}

/// The warm-up requests of `proxy`, in issue order.
pub fn warmup_requests(workload: &Workload, zipf: &Arc<Zipf>, seed: u64, proxy: u32) -> Vec<Req> {
    match workload.warmup {
        Warmup::Preload => {
            // Each proxy starts a quarter of the way round from the
            // previous one, so the four do not all miss on the same
            // document at the same instant.
            let n = workload.docs as u32;
            let namespace = workload.namespace(proxy);
            (0..n)
                .map(|i| {
                    let doc = (i + proxy * n / PROXIES) % n;
                    Req {
                        namespace,
                        doc,
                        meta: workload.meta(seed, namespace, doc),
                        gap_ns: 0,
                    }
                })
                .collect()
        }
        Warmup::Sampled(n) => {
            let mut s = Stream::new(workload, zipf, seed, proxy, Phase::Warmup);
            (0..n).map(|_| s.next_req()).collect()
        }
    }
}

/// A hash over the first `n` measured requests of every driver's
/// stream: URL, size, version and due time. Equal seeds give equal
/// hashes; the determinism test pins that.
pub fn stream_hash(workload: &Workload, seed: u64, n: usize) -> u64 {
    let zipf = workload.zipf();
    let mut h = sc_util::fxhash::FxHasher::default();
    let mut url = String::new();
    for t in 0..DRIVERS as u32 {
        let mut s = Stream::new(workload, &zipf, seed, t, Phase::Measured);
        let mut due = 0u64;
        for _ in 0..n {
            let r = s.next_req();
            due += r.gap_ns;
            url_into(&mut url, r.namespace, r.doc);
            h.write(url.as_bytes());
            h.write_u64(r.meta.size);
            h.write_u64(r.meta.last_modified);
            h.write_u64(due);
        }
    }
    h.finish()
}
