//! Proxy deployment configuration.

use std::net::SocketAddr;
use summary_cache_core::{SummaryKind, UpdatePolicy};

/// Cooperation mode — the three columns of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// No inter-proxy traffic at all.
    NoIcp,
    /// Classic ICP: query every neighbour on every local miss, wait for
    /// the first HIT (or all MISSes / timeout).
    Icp,
    /// Summary-cache enhanced ICP (the paper's SC-ICP): probe local
    /// replicas of peer Bloom summaries, query only candidates, publish
    /// `ICP_OP_DIRUPDATE` deltas under `policy`.
    SummaryCache {
        /// Bloom bits per expected cached document.
        load_factor: u32,
        /// Number of hash functions.
        hashes: u16,
        /// When to publish directory updates.
        policy: UpdatePolicy,
    },
}

impl Mode {
    /// The paper's recommended SC-ICP configuration.
    pub fn summary_cache_default() -> Mode {
        Mode::SummaryCache {
            load_factor: 8,
            hashes: 4,
            policy: UpdatePolicy::Threshold(0.01),
        }
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::NoIcp => "no-ICP",
            Mode::Icp => "ICP",
            Mode::SummaryCache { .. } => "SC-ICP",
        }
    }

    /// The summary kind used by SC-ICP (None otherwise).
    pub fn summary_kind(&self) -> Option<SummaryKind> {
        match *self {
            Mode::SummaryCache {
                load_factor,
                hashes,
                ..
            } => Some(SummaryKind::Bloom {
                load_factor,
                hashes,
            }),
            _ => None,
        }
    }
}

/// A peer proxy's addresses as known to one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerAddr {
    /// Stable peer id (index in the cluster).
    pub id: u32,
    /// Where the peer listens for ICP datagrams.
    pub icp: SocketAddr,
    /// Where the peer serves HTTP (for remote-hit fetches).
    pub http: SocketAddr,
}

/// Full configuration of one proxy daemon.
///
/// Construct via [`ProxyConfig::builder`]; validation happens once at
/// [`ProxyConfigBuilder::build`], so a daemon never starts on nonsense
/// (zero cache, SC mode with nobody to share with, duplicate peer ids).
/// Fields are read through accessors.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    id: u32,
    cache_bytes: u64,
    expected_docs: u64,
    mode: Mode,
    peers: Vec<PeerAddr>,
    origin: SocketAddr,
    icp_timeout_ms: u64,
    keepalive_ms: u64,
    update_loss: f64,
    shards: usize,
}

impl ProxyConfig {
    /// Start building a configuration (see [`ProxyConfigBuilder`]).
    pub fn builder() -> ProxyConfigBuilder {
        ProxyConfigBuilder::default()
    }

    /// This proxy's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Cache capacity in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Expected cached-document count (sizes the Bloom filter).
    pub fn expected_docs(&self) -> u64 {
        self.expected_docs
    }

    /// Cooperation mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The other proxies.
    pub fn peers(&self) -> &[PeerAddr] {
        &self.peers
    }

    /// The origin-server emulator every miss ultimately goes to.
    pub fn origin(&self) -> SocketAddr {
        self.origin
    }

    /// How long to wait for ICP replies before treating the query as a
    /// miss everywhere (Squid uses 2 s; experiments use less).
    pub fn icp_timeout_ms(&self) -> u64 {
        self.icp_timeout_ms
    }

    /// Keep-alive (SECHO) interval in milliseconds; 0 disables. Present
    /// in every mode — the paper's no-ICP baseline's only inter-proxy
    /// traffic is keep-alive messages.
    pub fn keepalive_ms(&self) -> u64 {
        self.keepalive_ms
    }

    /// Fault injection: fraction of outgoing directory-update datagrams
    /// (DIRUPDATE / DIRFULL) to silently drop, emulating WAN packet
    /// loss. 0 (the default) disables injection.
    pub fn update_loss(&self) -> f64 {
        self.update_loss
    }

    /// Document-cache stripes: the cache splits into this many
    /// independently locked parts by `UrlKey` digest, so request
    /// threads contend only per stripe (never 0; defaults to the
    /// machine's available parallelism). The protocol state is one
    /// directory either way.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Why a [`ProxyConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `cache_bytes` was 0 — the daemon could cache nothing.
    ZeroCacheBytes,
    /// No origin address was provided.
    MissingOrigin,
    /// Summary-cache mode with an empty peer list: there is nobody to
    /// publish summaries to or probe.
    NoPeersInScMode,
    /// Two peers share this id.
    DuplicatePeerId(u32),
    /// A peer was given this daemon's own id.
    PeerIsSelf(u32),
    /// A query mode (ICP / SC-ICP) with a zero reply timeout would
    /// treat every query as an instant miss everywhere.
    ZeroIcpTimeout,
    /// `update_loss` outside `[0, 1)` (1 would drop every update).
    BadUpdateLoss(f64),
    /// `shards(0)` — the document cache needs at least one stripe.
    ZeroShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCacheBytes => write!(f, "cache_bytes must be > 0"),
            ConfigError::MissingOrigin => write!(f, "origin address is required"),
            ConfigError::NoPeersInScMode => {
                write!(f, "summary-cache mode requires at least one peer")
            }
            ConfigError::DuplicatePeerId(id) => write!(f, "duplicate peer id {id}"),
            ConfigError::PeerIsSelf(id) => write!(f, "peer id {id} is this proxy's own id"),
            ConfigError::ZeroIcpTimeout => {
                write!(f, "ICP / SC-ICP mode requires icp_timeout_ms > 0")
            }
            ConfigError::BadUpdateLoss(p) => {
                write!(f, "update_loss {p} outside [0, 1)")
            }
            ConfigError::ZeroShards => write!(f, "shards must be > 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ProxyConfig`]. Unset fields default to the cluster
/// test rig's conventions: id 0, 75 MB cache, no-ICP mode, no peers,
/// 500 ms ICP timeout, 1 s keep-alive; `expected_docs` derives from
/// `cache_bytes` via the paper's 8 KB mean-document assumption when not
/// set explicitly. The origin address is mandatory.
#[derive(Debug, Clone, Default)]
pub struct ProxyConfigBuilder {
    id: u32,
    cache_bytes: Option<u64>,
    expected_docs: Option<u64>,
    mode: Option<Mode>,
    peers: Vec<PeerAddr>,
    origin: Option<SocketAddr>,
    icp_timeout_ms: Option<u64>,
    keepalive_ms: Option<u64>,
    update_loss: Option<f64>,
    shards: Option<usize>,
}

impl ProxyConfigBuilder {
    /// Set this proxy's id.
    pub fn id(mut self, id: u32) -> Self {
        self.id = id;
        self
    }

    /// Set the cache capacity in bytes.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Override the expected cached-document count (defaults to
    /// `cache_bytes` / 8 KB).
    pub fn expected_docs(mut self, docs: u64) -> Self {
        self.expected_docs = Some(docs);
        self
    }

    /// Set the cooperation mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Replace the peer list.
    pub fn peers(mut self, peers: Vec<PeerAddr>) -> Self {
        self.peers = peers;
        self
    }

    /// Append one peer.
    pub fn peer(mut self, peer: PeerAddr) -> Self {
        self.peers.push(peer);
        self
    }

    /// Set the origin-server address (required).
    pub fn origin(mut self, origin: SocketAddr) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Set the ICP reply timeout.
    pub fn icp_timeout_ms(mut self, ms: u64) -> Self {
        self.icp_timeout_ms = Some(ms);
        self
    }

    /// Set the keep-alive interval (0 disables).
    pub fn keepalive_ms(mut self, ms: u64) -> Self {
        self.keepalive_ms = Some(ms);
        self
    }

    /// Set the injected update-datagram loss fraction (see
    /// [`ProxyConfig::update_loss`]).
    pub fn update_loss(mut self, fraction: f64) -> Self {
        self.update_loss = Some(fraction);
        self
    }

    /// Set the document-cache stripe count (see
    /// [`ProxyConfig::shards`]). 0 is rejected at [`build`]; unset
    /// defaults to `std::thread::available_parallelism`.
    ///
    /// [`build`]: ProxyConfigBuilder::build
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ProxyConfig, ConfigError> {
        let cache_bytes = self.cache_bytes.unwrap_or(75 * 1024 * 1024);
        if cache_bytes == 0 {
            return Err(ConfigError::ZeroCacheBytes);
        }
        let origin = self.origin.ok_or(ConfigError::MissingOrigin)?;
        let mode = self.mode.unwrap_or(Mode::NoIcp);
        let mut seen = std::collections::HashSet::new();
        for p in &self.peers {
            if p.id == self.id {
                return Err(ConfigError::PeerIsSelf(p.id));
            }
            if !seen.insert(p.id) {
                return Err(ConfigError::DuplicatePeerId(p.id));
            }
        }
        if matches!(mode, Mode::SummaryCache { .. }) && self.peers.is_empty() {
            return Err(ConfigError::NoPeersInScMode);
        }
        let icp_timeout_ms = self.icp_timeout_ms.unwrap_or(500);
        if icp_timeout_ms == 0 && !matches!(mode, Mode::NoIcp) {
            return Err(ConfigError::ZeroIcpTimeout);
        }
        let update_loss = self.update_loss.unwrap_or(0.0);
        if !(0.0..1.0).contains(&update_loss) {
            return Err(ConfigError::BadUpdateLoss(update_loss));
        }
        let shards = match self.shards {
            Some(0) => return Err(ConfigError::ZeroShards),
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(ProxyConfig {
            id: self.id,
            cache_bytes,
            expected_docs: self
                .expected_docs
                .unwrap_or_else(|| summary_cache_core::expected_docs(cache_bytes)),
            mode,
            peers: self.peers,
            origin,
            icp_timeout_ms,
            keepalive_ms: self.keepalive_ms.unwrap_or(1000),
            update_loss,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::NoIcp.label(), "no-ICP");
        assert_eq!(Mode::Icp.label(), "ICP");
        assert_eq!(Mode::summary_cache_default().label(), "SC-ICP");
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    fn peer(id: u32) -> PeerAddr {
        PeerAddr {
            id,
            icp: addr(4000 + id as u16),
            http: addr(5000 + id as u16),
        }
    }

    #[test]
    fn builder_fills_defaults_and_derives_docs() {
        let cfg = ProxyConfig::builder()
            .origin(addr(9000))
            .cache_bytes(8 << 20)
            .build()
            .expect("valid");
        assert_eq!(cfg.id(), 0);
        assert_eq!(cfg.cache_bytes(), 8 << 20);
        assert_eq!(cfg.expected_docs(), 1024, "8 MB / 8 KB docs");
        assert_eq!(*cfg.mode(), Mode::NoIcp);
        assert_eq!(cfg.icp_timeout_ms(), 500);
        assert_eq!(cfg.keepalive_ms(), 1000);
        assert_eq!(cfg.update_loss(), 0.0);
        assert!(cfg.peers().is_empty());
    }

    #[test]
    fn builder_rejects_nonsense() {
        let b = || ProxyConfig::builder().origin(addr(9000));
        assert_eq!(
            b().cache_bytes(0).build().unwrap_err(),
            ConfigError::ZeroCacheBytes
        );
        assert_eq!(
            ProxyConfig::builder().build().unwrap_err(),
            ConfigError::MissingOrigin
        );
        assert_eq!(
            b().mode(Mode::summary_cache_default()).build().unwrap_err(),
            ConfigError::NoPeersInScMode
        );
        assert_eq!(
            b().peer(peer(1)).peer(peer(1)).build().unwrap_err(),
            ConfigError::DuplicatePeerId(1)
        );
        assert_eq!(
            b().id(3).peer(peer(3)).build().unwrap_err(),
            ConfigError::PeerIsSelf(3)
        );
        assert_eq!(
            b().mode(Mode::Icp).icp_timeout_ms(0).build().unwrap_err(),
            ConfigError::ZeroIcpTimeout
        );
        // A zero timeout is fine when nothing ever queries.
        assert!(b().icp_timeout_ms(0).build().is_ok());
        assert_eq!(
            b().update_loss(1.0).build().unwrap_err(),
            ConfigError::BadUpdateLoss(1.0)
        );
        assert_eq!(
            b().update_loss(-0.1).build().unwrap_err(),
            ConfigError::BadUpdateLoss(-0.1)
        );
        assert!(b().update_loss(0.05).build().is_ok());
        assert_eq!(b().shards(0).build().unwrap_err(), ConfigError::ZeroShards);
        assert_eq!(b().shards(4).build().expect("valid").shards(), 4);
        assert!(b().build().expect("valid").shards() >= 1, "default is available parallelism");
        let err = ConfigError::DuplicatePeerId(7).to_string();
        assert!(err.contains("7"), "{err}");
    }

    #[test]
    fn summary_kind_only_for_sc() {
        assert!(Mode::NoIcp.summary_kind().is_none());
        assert!(Mode::Icp.summary_kind().is_none());
        assert_eq!(
            Mode::summary_cache_default().summary_kind(),
            Some(SummaryKind::Bloom {
                load_factor: 8,
                hashes: 4
            })
        );
    }
}
