//! Hash-once probe keys.
//!
//! The paper's argument (Section V, Table II) is that probing a peer's
//! summary must be nearly free next to an ICP round-trip. A naive query
//! path recomputes `MD5(url)` and re-derives the Bloom indices for every
//! peer probed — `2 × k × peers` hash derivations per request. A
//! [`UrlKey`] hashes the key **once** at request admission and memoizes
//! the derived index set per [`HashSpec`], so probing N peers that share
//! a filter configuration (the common case: the spec travels in every
//! `DIRUPDATE` and clusters configure it uniformly) costs one MD5 total.

use crate::hashing::HashSpec;
use sc_md5::{md5, Digest};
use std::cell::RefCell;

/// A key (URL or server name) hashed once, with per-spec memoized
/// Bloom indices.
///
/// Construction computes `MD5(key)` eagerly — exact-directory and
/// server-name summaries probe by digest alone, so they never rehash.
/// Bloom index sets are derived lazily the first time a given
/// [`HashSpec`] probes the key and reused for every later probe against
/// the same spec (overflow digests for `k·w > 128` bits of demand are
/// derived from the retained key bytes, per paper Section V-E).
///
/// `UrlKey` is a per-request value: the memo uses a [`RefCell`], so it is
/// intentionally `!Sync` — build one where the request arrives and probe
/// with it on that thread.
///
/// ```
/// use sc_bloom::{HashSpec, UrlKey};
/// let spec = HashSpec::paper_default(4, 1 << 16).unwrap();
/// let key = UrlKey::new(b"http://example.com/");
/// assert_eq!(key.indices(&spec), spec.indices(b"http://example.com/"));
/// ```
#[derive(Debug, Clone)]
pub struct UrlKey {
    bytes: Vec<u8>,
    digest: Digest,
    /// Per-spec memoized index sets; a linear scan, since a request sees
    /// one spec (occasionally two during a reconfiguration) in practice.
    memo: RefCell<Vec<MemoEntry>>,
}

/// One memoized index set. `indices` stays allocated across
/// [`UrlKey::reset`] — a reused scratch key re-derives its indices into
/// the same buffer, so steady-state probing never allocates.
#[derive(Debug, Clone)]
struct MemoEntry {
    spec: HashSpec,
    indices: Vec<u32>,
    /// False after a [`UrlKey::reset`] until the next probe re-derives.
    valid: bool,
}

impl UrlKey {
    /// Hash `bytes` once and wrap them for repeated probing.
    pub fn new(bytes: &[u8]) -> UrlKey {
        UrlKey {
            bytes: bytes.to_vec(),
            digest: md5(bytes),
            memo: RefCell::new(Vec::new()),
        }
    }

    /// Re-point this key at new bytes, reusing every allocation: the
    /// byte buffer keeps its capacity and memoized index sets are
    /// invalidated in place, to be re-derived into the same buffers on
    /// the next probe. A warm per-thread scratch key reset per request
    /// makes the steady-state probe path allocation-free.
    pub fn reset(&mut self, bytes: &[u8]) {
        self.bytes.clear();
        self.bytes.extend_from_slice(bytes);
        self.digest = md5(bytes);
        for e in self.memo.get_mut() {
            e.valid = false;
        }
    }

    /// The raw key bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `MD5(key)`, computed at construction.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// Run `f` over the index set for `spec`, deriving and memoizing it
    /// on first use.
    ///
    /// The memo borrow is held while `f` runs, so `f` must not probe the
    /// same `UrlKey` re-entrantly.
    pub fn with_indices<R>(&self, spec: &HashSpec, f: impl FnOnce(&[u32]) -> R) -> R {
        let mut memo = self.memo.borrow_mut();
        if let Some(pos) = memo.iter().position(|e| e.spec == *spec) {
            let e = &mut memo[pos];
            if !e.valid {
                // Invalidated by a reset: re-derive into the retained
                // buffer — no allocation once its capacity is warm.
                spec.indices_with_digest(&self.bytes, &self.digest, &mut e.indices);
                e.valid = true;
            }
            return f(&e.indices);
        }
        // First-use memoization: this runs once per (key, spec), never on
        // the repeated-probe path.
        let mut idx = Vec::new();
        spec.indices_with_digest(&self.bytes, &self.digest, &mut idx);
        memo.push(MemoEntry {
            spec: *spec,
            indices: idx,
            valid: true,
        });
        let e = &memo[memo.len() - 1];
        f(&e.indices)
    }

    /// The index set for `spec`, as an owned vector (clones the memo
    /// entry; probing through [`with_indices`](Self::with_indices) or the
    /// filters' `*_key` methods avoids the copy).
    pub fn indices(&self, spec: &HashSpec) -> Vec<u32> {
        self.with_indices(spec, |idx| idx.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BloomFilter, CountingBloomFilter, FilterConfig};
    use sc_util::prop::check;

    #[test]
    fn digest_is_md5_of_bytes() {
        let key = UrlKey::new(b"abc");
        assert_eq!(key.digest(), &md5(b"abc"));
        assert_eq!(key.bytes(), b"abc");
    }

    #[test]
    fn memo_returns_same_indices_across_probes_and_specs() {
        let key = UrlKey::new(b"http://example.com/a");
        let s1 = HashSpec::paper_default(4, 1 << 16).unwrap();
        let s2 = HashSpec::new(10, 13, 4093).unwrap();
        for _ in 0..3 {
            assert_eq!(key.indices(&s1), s1.indices(key.bytes()));
            assert_eq!(key.indices(&s2), s2.indices(key.bytes()));
        }
    }

    #[test]
    fn memoized_probe_hashes_once_across_many_specs_sharing_config() {
        let spec = HashSpec::paper_default(4, 1 << 12).unwrap();
        let key = UrlKey::new(b"http://example.com/hot");
        let before = sc_md5::blocks_hashed();
        for _ in 0..100 {
            key.with_indices(&spec, |idx| assert_eq!(idx.len(), 4));
        }
        assert_eq!(
            sc_md5::blocks_hashed() - before,
            0,
            "construction already paid the digest; probes must be hash-free"
        );
    }

    #[test]
    fn reset_behaves_like_a_fresh_key() {
        let spec = HashSpec::paper_default(4, 1 << 12).unwrap();
        let mut key = UrlKey::new(b"http://example.com/first");
        key.with_indices(&spec, |idx| assert_eq!(idx.len(), 4));
        for url in [b"http://example.com/second".as_slice(), b"x", b""] {
            key.reset(url);
            let fresh = UrlKey::new(url);
            assert_eq!(key.digest(), fresh.digest());
            assert_eq!(key.bytes(), url);
            assert_eq!(key.indices(&spec), fresh.indices(&spec));
        }
    }

    #[test]
    fn reset_probe_is_hash_free_after_the_reset_digest() {
        let spec = HashSpec::paper_default(4, 1 << 12).unwrap();
        let mut key = UrlKey::new(b"http://example.com/warm");
        key.with_indices(&spec, |_| ());
        let before = sc_md5::blocks_hashed();
        key.reset(b"http://example.com/next");
        assert_eq!(sc_md5::blocks_hashed() - before, 1, "reset digests once");
        let before = sc_md5::blocks_hashed();
        for _ in 0..50 {
            key.with_indices(&spec, |idx| assert_eq!(idx.len(), 4));
        }
        assert_eq!(sc_md5::blocks_hashed() - before, 0);
    }

    /// Satellite property: the filters' key paths set, flip and test
    /// exactly the bits [`HashSpec::indices`] derives from the raw bytes,
    /// for random specs and keys, including `w < 32` and overflow widths.
    #[test]
    fn prop_key_probe_equals_byte_probe() {
        check("urlkey_probe_equals_byte_probe", 200, |rng| {
            let k = rng.gen_range(1u32..=16) as u16;
            let w = rng.gen_range(1u32..=32) as u16;
            let bits = rng.gen_range(8u32..=4096);
            let config = FilterConfig {
                bits,
                hashes: k,
                function_bits: w,
            };
            let spec = config.hash_spec().expect("valid spec");
            let mut reference = crate::BitVec::new(bits as usize);
            let mut plain = BloomFilter::new(config);
            let mut counting = CountingBloomFilter::new(config);
            let mut flips = Vec::new();
            let keys: Vec<Vec<u8>> = (0..rng.gen_range(1..40usize))
                .map(|i| format!("http://s{}.example/{}", i % 5, rng.gen_range(0u32..500)).into_bytes())
                .collect();
            for kb in &keys {
                let mut expected = Vec::new();
                for &i in &spec.indices(kb) {
                    if reference.set(i as usize, true) {
                        expected.push(crate::Flip::set(i));
                    }
                }
                plain.insert_key(&UrlKey::new(kb));
                flips.clear();
                counting.insert_key_into(&UrlKey::new(kb), &mut flips);
                assert_eq!(flips, expected, "insert flips diverge (k={k} w={w} m={bits})");
            }
            assert_eq!(plain.bits(), &reference);
            assert_eq!(counting.bits(), &reference);
            for kb in &keys {
                let uk = UrlKey::new(kb);
                assert!(plain.contains_key(&uk));
                assert!(counting.contains_key(&uk));
            }
            for _ in 0..20 {
                let probe = format!("http://absent/{}", rng.gen_range(0u32..1_000_000)).into_bytes();
                let expected = spec.indices(&probe).iter().all(|&i| reference.get(i as usize));
                let uk = UrlKey::new(&probe);
                assert_eq!(plain.contains_key(&uk), expected);
                assert_eq!(counting.contains_key(&uk), expected);
            }
            let mut cleared = Vec::new();
            for kb in &keys {
                flips.clear();
                counting.remove_key_into(&UrlKey::new(kb), &mut flips);
                cleared.extend(flips.iter().map(|f| f.index()));
            }
            if counting.saturations() == 0 {
                cleared.sort_unstable();
                let set: Vec<u32> = (0..bits).filter(|&i| reference.get(i as usize)).collect();
                assert_eq!(cleared, set, "remove flips diverge (k={k} w={w} m={bits})");
                assert_eq!(counting.bits().count_ones(), 0);
            }
        });
    }
}
