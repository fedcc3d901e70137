//! The plain (bit-vector) Bloom filter.

use crate::bits::BitVec;
use crate::hashing::{HashSpec, HashSpecError};
use crate::key::UrlKey;

/// Sizing and hashing parameters for a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Bit-array size `m`.
    pub bits: u32,
    /// Number of hash functions `k`.
    pub hashes: u16,
    /// Digest bits per hash function; the paper uses 32.
    pub function_bits: u16,
}

impl FilterConfig {
    /// Size a filter as the paper does: `load_factor` bits per expected
    /// key ("a bit array 8/16/32 times the average number of documents",
    /// Section V-D), with `hashes` hash functions of 32 bits each.
    pub fn with_load_factor(expected_keys: usize, load_factor: u32, hashes: u16) -> Self {
        let bits = (expected_keys as u64 * load_factor as u64).max(1);
        FilterConfig {
            bits: bits.min(u32::MAX as u64) as u32,
            hashes,
            function_bits: 32,
        }
    }

    /// The derived [`HashSpec`] this configuration announces on the wire.
    pub fn hash_spec(&self) -> Result<HashSpec, HashSpecError> {
        HashSpec::new(self.hashes, self.function_bits, self.bits)
    }
}

/// A classic Bloom filter: no deletions, no false negatives, tunable
/// false positives.
///
/// In the protocol this is the *remote* view of a peer's directory; the
/// peer itself maintains a [`crate::CountingBloomFilter`] so it can delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    spec: HashSpec,
    bits: BitVec,
    /// Number of keys inserted (an upper bound on distinct keys).
    inserted: u64,
}

impl BloomFilter {
    /// An empty filter.
    ///
    /// # Panics
    /// If `config` is degenerate (zero hashes, zero bits, bad width);
    /// configs from [`FilterConfig::with_load_factor`] are always valid.
    pub fn new(config: FilterConfig) -> Self {
        let spec = config
            .hash_spec()
            .expect("FilterConfig with invalid hash parameters");
        BloomFilter {
            spec,
            bits: BitVec::new(config.bits as usize),
            inserted: 0,
        }
    }

    /// Build a remote view from a received full bitmap and its wire spec.
    pub fn from_parts(spec: HashSpec, bits: BitVec) -> Self {
        assert_eq!(
            spec.table_bits() as usize,
            bits.len(),
            "spec and bitmap disagree on table size"
        );
        BloomFilter {
            spec,
            bits,
            inserted: 0,
        }
    }

    /// The wire-visible hash parameters.
    pub fn spec(&self) -> HashSpec {
        self.spec
    }

    /// Insert a pre-hashed key; duplicate inserts are harmless.
    pub fn insert_key(&mut self, key: &UrlKey) {
        let spec = self.spec;
        key.with_indices(&spec, |idx| {
            for &i in idx {
                self.bits.set(i as usize, true);
            }
        });
        self.inserted += 1;
    }

    /// Membership query against a pre-hashed key: `false` is definite,
    /// `true` means "probably". When the key already memoized this
    /// filter's spec (the hash-once probe pipeline), this performs zero
    /// MD5 work.
    pub fn contains_key(&self, key: &UrlKey) -> bool {
        key.with_indices(&self.spec, |idx| {
            idx.iter().all(|&i| self.bits.get(i as usize))
        })
    }

    /// Apply one absolute bit assignment (from a `DIRUPDATE` record).
    /// Returns whether the bit actually changed.
    pub fn apply_flip(&mut self, index: u32, value: bool) -> bool {
        self.bits.set(index as usize, value)
    }

    /// Discard all keys.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.inserted = 0;
    }

    /// The underlying bit array.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Fraction of bits set; the observed false-positive probability is
    /// `fill_ratio() ^ k`.
    pub fn fill_ratio(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Predicted false-positive probability from the current fill.
    pub fn false_positive_rate(&self) -> f64 {
        self.fill_ratio().powi(self.spec.k() as i32)
    }

    /// Memory footprint of the bit array in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_util::Rng;

    fn url(i: u32) -> UrlKey {
        UrlKey::new(format!("http://server{}.example.com/doc/{}.html", i % 97, i).as_bytes())
    }

    #[test]
    fn no_false_negatives_exhaustive() {
        let mut f = BloomFilter::new(FilterConfig::with_load_factor(2000, 8, 4));
        for i in 0..2000 {
            f.insert_key(&url(i));
        }
        for i in 0..2000 {
            assert!(f.contains_key(&url(i)), "false negative for key {i}");
        }
    }

    /// Paper Fig. 4 worked example: load factor ~10, k=4 ⇒ ~1.2 % false
    /// positives. Allow generous slack for sampling noise.
    #[test]
    fn false_positive_rate_near_theory() {
        let n = 10_000;
        let mut f = BloomFilter::new(FilterConfig::with_load_factor(n, 10, 4));
        for i in 0..n as u32 {
            f.insert_key(&url(i));
        }
        let probes = 50_000u32;
        let fp = (0..probes)
            .filter(|&i| f.contains_key(&url(1_000_000 + i)))
            .count();
        let rate = fp as f64 / probes as f64;
        assert!(
            (0.004..0.03).contains(&rate),
            "observed FP rate {rate} far from the ~1.2% theory"
        );
        // The filter's own prediction should agree with observation.
        let predicted = f.false_positive_rate();
        assert!((rate - predicted).abs() < 0.01, "{rate} vs predicted {predicted}");
    }

    #[test]
    fn clear_empties() {
        let mut f = BloomFilter::new(FilterConfig::with_load_factor(10, 8, 4));
        let x = UrlKey::new(b"x");
        f.insert_key(&x);
        f.clear();
        assert!(!f.contains_key(&x));
        assert_eq!(f.bits().count_ones(), 0);
    }

    #[test]
    fn remote_view_roundtrip() {
        let mut local = BloomFilter::new(FilterConfig::with_load_factor(100, 16, 4));
        for i in 0..100 {
            local.insert_key(&url(i));
        }
        let remote = BloomFilter::from_parts(local.spec(), local.bits().clone());
        for i in 0..100 {
            assert!(remote.contains_key(&url(i)));
        }
    }

    #[test]
    fn flips_track_inserts() {
        let cfg = FilterConfig::with_load_factor(50, 16, 4);
        let mut a = BloomFilter::new(cfg);
        let mut b = BloomFilter::new(cfg);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..50 {
            let key = url(rng.gen_range(0..1_000_000));
            let before = a.bits().clone();
            a.insert_key(&key);
            for i in before.diff_indices(a.bits()) {
                assert!(b.apply_flip(i as u32, true));
            }
        }
        assert_eq!(a.bits(), b.bits());
    }

    #[test]
    #[should_panic(expected = "disagree on table size")]
    fn from_parts_checks_size() {
        let spec = HashSpec::paper_default(4, 64).unwrap();
        BloomFilter::from_parts(spec, BitVec::new(63));
    }
}
