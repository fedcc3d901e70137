//! Pins the `crates/` surface the standalone `benchmark/` package
//! compiles against. That package has its own workspace and is not built
//! by `cargo test`, so a rename or deletion of anything it uses would
//! otherwise go unnoticed until the benchmark runs.
//!
//! The list mirrors `benchmark/src`: every crate path it imports, and
//! every function or method it calls, named here through `use` lines and
//! fn-item coercions inside a function that is never called. Keep the
//! two in step — when `benchmark/src` starts using a new path, add it.

use sc_bloom::{BitVec, BloomFilter, CountingBloomFilter, FilterConfig, Flip, UrlKey};
use sc_cache::{DocMeta, Lookup, WebCache};
use sc_json::Value;
use sc_obs::{Counter, EventKind, Histogram, HistogramSnapshot, Journal};
use sc_proxy::config::PeerAddr;
use sc_proxy::daemon::Daemon;
use sc_proxy::machine::{DirectoryView, Effect, Event, Output, SendKind, VirtualTime};
use sc_proxy::origin::Origin;
use sc_proxy::replica::{ReplicaCell, ReplicaSnapshot};
use sc_proxy::router::{stripe_of, DirectoryInspect, Router};
use sc_proxy::scratch::RequestScratch;
use sc_proxy::{Cluster, CpuTimes, Mode, ProxyConfig, StatsSnapshot};
use sc_trace::sampler::{BoundedPareto, Zipf};
use sc_util::fxhash::FxHasher;
use sc_util::Rng;
use sc_wire::http;
use sc_wire::icp::IcpMessage;
use std::net::{TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Duration;
use summary_cache_core::{ProxySummary, SummaryKind, UpdatePolicy};

type Sc = Option<(ProxySummary, UpdatePolicy)>;

/// Never called: it only has to type-check.
fn benchmark_surface() {
    // sc-bloom and sc-md5 (benchmark/src/micro.rs, replay.rs)
    let _: fn(&[u8]) -> UrlKey = UrlKey::new;
    let _: fn(&mut UrlKey, &[u8]) = UrlKey::reset;
    let _: fn(usize, u32, u16) -> FilterConfig = FilterConfig::with_load_factor;
    let _: fn(FilterConfig) -> BloomFilter = BloomFilter::new;
    let _: fn(&mut BloomFilter, &UrlKey) = BloomFilter::insert_key;
    let _: fn(&BloomFilter, &UrlKey) -> bool = BloomFilter::contains_key;
    let _: fn(FilterConfig) -> CountingBloomFilter = CountingBloomFilter::new;
    let _: fn(&mut CountingBloomFilter, &UrlKey, &mut Vec<Flip>) =
        CountingBloomFilter::insert_key_into;
    let _: fn(&mut CountingBloomFilter, &UrlKey, &mut Vec<Flip>) =
        CountingBloomFilter::remove_key_into;
    let _: fn(&[u8]) -> sc_md5::Digest = sc_md5::md5;

    // sc-proxy's protocol core, driven directly by the stage replay
    let _: fn(u32, Vec<u32>, u64, usize, usize, Sc, VirtualTime) -> Router = Router::new;
    let _: fn(&mut Router, VirtualTime, Event<'_>, &dyn DirectoryView, &mut Vec<Output>) =
        Router::handle_into;
    let _: fn(&mut Router) = Router::flush_replicas;
    let _: fn(&Router) -> Arc<ReplicaCell> = Router::replica_cell;
    let _: fn(&Router) -> Vec<u32> = Router::live_peers;
    let _: fn(&UrlKey, usize) -> usize = stripe_of;
    let _: fn(&ReplicaCell) -> Arc<ReplicaSnapshot> = ReplicaCell::load;
    let _: fn(&ReplicaSnapshot, &UrlKey, &mut Vec<u32>) = ReplicaSnapshot::candidates_key_into;
    let _: fn(&Daemon, u32) -> Option<BitVec> = <Daemon as DirectoryInspect>::replica_bits;
    let _: fn(&Daemon) -> Option<BitVec> = <Daemon as DirectoryInspect>::published_bits;
    let _: fn(&IcpMessage, u32) -> Result<Vec<u8>, sc_wire::icp::IcpError> = IcpMessage::encode;
    let _: fn() -> u64 = sc_proxy::shard::cow_copies;
    let scratch = RequestScratch::new();
    let (_, _, _): (UrlKey, Vec<u32>, Vec<Output>) =
        (scratch.key, scratch.candidates, scratch.outputs);
    let _ = (Effect::UpdateReceived, SendKind::Keepalive, Mode::NoIcp);
    let _: fn(SummaryKind, u64) -> ProxySummary = ProxySummary::with_expected_docs;
    let _: fn(&mut ProxySummary, u32) = ProxySummary::set_generation;

    // the live rig (benchmark/src/rig.rs, run.rs)
    let _: fn(ProxyConfig, TcpListener, UdpSocket) -> std::io::Result<Daemon> = Daemon::spawn_on;
    let _: fn(Duration) -> std::io::Result<Origin> = Origin::spawn;
    let _ = ProxyConfig::builder;
    let _ = |daemons: Vec<Daemon>, origin: Origin| Cluster { daemons, origin };
    let _ = |id, icp, http| PeerAddr { id, icp, http };
    let _: fn(&sc_obs::Snapshot) -> StatsSnapshot = StatsSnapshot::from_obs;
    let _: fn() -> CpuTimes = CpuTimes::now;
    let _: fn(&CpuTimes, &CpuTimes) -> CpuTimes = CpuTimes::since;
    let _: fn(u64) -> WebCache<String> = WebCache::new;
    let _: fn(&mut WebCache<String>, &String, DocMeta) -> Lookup = WebCache::lookup;
    let _: fn(&mut WebCache<String>, String, DocMeta) -> Option<Vec<String>> = WebCache::store;
    let _ = (
        http::parse_request,
        http::parse_response,
        http::build_request,
        http::build_response,
    );
    let _ = (http::header, http::content_length);

    // workloads and measurement (workload.rs, micro.rs, run.rs, lib.rs)
    let _: fn(usize, f64) -> Zipf = Zipf::new;
    let _: fn(f64, u64, u64) -> BoundedPareto = BoundedPareto::new;
    let _: fn() -> Counter = Counter::new;
    let _: fn() -> Histogram = Histogram::new;
    let _: fn(usize) -> Journal = Journal::new;
    let _ = EventKind::QuerySent;
    let _: fn(&HistogramSnapshot, f64) -> u64 = HistogramSnapshot::percentile;
    let _: fn(&HistogramSnapshot, &HistogramSnapshot) -> HistogramSnapshot =
        HistogramSnapshot::merged;
    let _ = || sc_util::poll::wait_until(Duration::ZERO, Duration::ZERO, || true);
    let _ = (Rng::seed_from_u64, FxHasher::default, Value::Null);
}

#[test]
fn benchmark_surface_type_checks() {
    let _ = benchmark_surface as fn();
}
