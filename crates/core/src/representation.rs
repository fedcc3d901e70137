//! The three summary representations of Section V-B/V-D.

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
    use std::collections::HashSet;

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
    fn bloom_bits_has_floor() {
        assert_eq!(bloom_bits(1, 8), 64);
        assert_eq!(bloom_bits(1000, 16), 16_000);
    }
}
