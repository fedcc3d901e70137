//! The three summary representations of Section V-B/V-D and the
//! published snapshots peers probe.

use sc_bloom::{BitVec, HashSpec, UrlKey};
use sc_md5::Digest;
use std::collections::HashSet;

/// Which representation a proxy summarizes its directory with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryKind {
    /// The cache directory itself, one 16-byte MD5 signature per URL.
    ExactDirectory,
    /// Only the server-name component of cached URLs.
    ServerName,
    /// A Bloom filter (the paper evaluates load factors 8, 16, 32 with
    /// 4 hashes).
    Bloom {
        /// Bits per expected cached document.
        load_factor: u32,
        /// Number of hash functions.
        hashes: u16,
    },
}

impl SummaryKind {
    /// The paper's recommended configuration: "a load factor between 8
    /// and 16 works well … four or more hash functions" (Section V-E).
    pub fn recommended() -> Self {
        SummaryKind::Bloom {
            load_factor: 8,
            hashes: 4,
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            SummaryKind::ExactDirectory => "exact-directory".into(),
            SummaryKind::ServerName => "server-name".into(),
            SummaryKind::Bloom { load_factor, hashes } => {
                format!("bloom-lf{load_factor}-k{hashes}")
            }
        }
    }
}

/// A published (peer-visible) summary: the paper's "summary of the cache
/// directory" a proxy ships to its neighbours, probed read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummarySnapshot {
    /// Set of MD5 signatures of cached URLs.
    Exact(HashSet<Digest>),
    /// Set of MD5 signatures of server names with ≥1 cached document.
    Server(HashSet<Digest>),
    /// Bloom filter bit array plus its self-describing hash spec.
    Bloom {
        /// Hash family (travels in every update header).
        spec: HashSpec,
        /// The filter bits.
        bits: BitVec,
    },
}

impl SummarySnapshot {
    /// Probe: might `url` (with server component `server`) be cached at
    /// the publishing proxy? `false` is definite under a fresh snapshot;
    /// with update delay both errors are possible and tolerated. Exact
    /// and server snapshots compare the digest computed at key
    /// construction, and Bloom snapshots reuse the key's memoized index
    /// set — no MD5 work per probe.
    pub fn probe_key(&self, url: &UrlKey, server: &UrlKey) -> bool {
        match self {
            SummarySnapshot::Exact(set) => set.contains(url.digest()),
            SummarySnapshot::Server(set) => set.contains(server.digest()),
            SummarySnapshot::Bloom { spec, bits } => {
                url.with_indices(spec, |idx| idx.iter().all(|&i| bits.get(i as usize)))
            }
        }
    }

    /// Bytes of memory a peer devotes to holding this snapshot — the
    /// Table III quantity.
    pub fn memory_bytes(&self) -> usize {
        match self {
            SummarySnapshot::Exact(set) => set.len() * 16,
            SummarySnapshot::Server(set) => set.len() * 16,
            SummarySnapshot::Bloom { bits, .. } => bits.byte_len(),
        }
    }

    /// An empty snapshot of the given kind (what peers assume before the
    /// first update arrives).
    pub fn empty(kind: SummaryKind, expected_docs: u64) -> Self {
        match kind {
            SummaryKind::ExactDirectory => SummarySnapshot::Exact(HashSet::new()),
            SummaryKind::ServerName => SummarySnapshot::Server(HashSet::new()),
            SummaryKind::Bloom { load_factor, hashes } => {
                let bits = bloom_bits(expected_docs, load_factor);
                SummarySnapshot::Bloom {
                    spec: HashSpec::paper_default(hashes, bits)
                        .expect("valid bloom parameters"),
                    bits: BitVec::new(bits as usize),
                }
            }
        }
    }
}

/// Bloom filter size in bits for `expected_docs` documents at
/// `load_factor` bits per document.
pub fn bloom_bits(expected_docs: u64, load_factor: u32) -> u32 {
    (expected_docs * load_factor as u64)
        .max(64)
        .min(u32::MAX as u64 - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_md5::md5;

    fn hit(snap: &SummarySnapshot, url: &[u8], server: &[u8]) -> bool {
        snap.probe_key(&UrlKey::new(url), &UrlKey::new(server))
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            SummaryKind::ExactDirectory,
            SummaryKind::ServerName,
            SummaryKind::Bloom { load_factor: 8, hashes: 4 },
            SummaryKind::Bloom { load_factor: 16, hashes: 4 },
        ];
        let labels: HashSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn exact_probe_matches_url_only() {
        let mut set = HashSet::new();
        set.insert(md5(b"http://a/x"));
        let snap = SummarySnapshot::Exact(set);
        assert!(hit(&snap, b"http://a/x", b"a"));
        assert!(!hit(&snap, b"http://a/y", b"a"));
    }

    #[test]
    fn server_probe_matches_any_url_of_server() {
        let mut set = HashSet::new();
        set.insert(md5(b"a"));
        let snap = SummarySnapshot::Server(set);
        assert!(hit(&snap, b"http://a/x", b"a"));
        assert!(hit(&snap, b"http://a/other", b"a"), "server-level false hit by design");
        assert!(!hit(&snap, b"http://b/x", b"b"));
    }

    #[test]
    fn empty_snapshots_answer_no() {
        for kind in [
            SummaryKind::ExactDirectory,
            SummaryKind::ServerName,
            SummaryKind::recommended(),
        ] {
            let snap = SummarySnapshot::empty(kind, 1000);
            assert!(!hit(&snap, b"http://a/x", b"a"), "{:?}", kind);
            if matches!(kind, SummaryKind::Bloom { .. }) {
                assert_eq!(snap.memory_bytes(), 1000, "8 bits/doc = 1 byte/doc");
            } else {
                assert_eq!(snap.memory_bytes(), 0);
            }
        }
    }

    #[test]
    fn bloom_bits_has_floor() {
        assert_eq!(bloom_bits(1, 8), 64);
        assert_eq!(bloom_bits(1000, 16), 16_000);
    }
}
