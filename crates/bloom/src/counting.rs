//! The paper's **counting Bloom filter** (Section V-C).
//!
//! Each bit position carries a small counter of how many `(key, hash-fn)`
//! pairs currently address it. Insertion increments, deletion decrements,
//! and the public bit is 1 iff the counter is non-zero — so the filter
//! "always reflects correctly the current directory" while the exported
//! bit vector stays a plain Bloom filter.
//!
//! The paper shows 4-bit counters overflow with probability
//! ≤ 1.37 × 10⁻¹⁵ × m (see [`crate::analysis::counter_overflow_probability`])
//! and prescribes clamping at 15: "if the count ever exceeds 15, we can
//! simply let it stay at 15", accepting a minuscule chance that later
//! deletions drive a clamped counter to 0 early and produce a false
//! negative. We implement exactly that, and additionally count saturation
//! and underflow events so operators can observe them.

use crate::bits::BitVec;
use crate::delta::Flip;
use crate::filter::FilterConfig;
use crate::hashing::HashSpec;
use crate::key::UrlKey;

/// Default counter width from the paper: "4 bits per count would be amply
/// sufficient".
pub const DEFAULT_COUNTER_BITS: u8 = 4;

/// A Bloom filter with per-position counters, supporting deletion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    spec: HashSpec,
    bits: BitVec,
    /// Packed counters, `counter_bits` wide each.
    counters: Vec<u8>,
    counter_bits: u8,
    max_count: u8,
    saturations: u64,
    underflows: u64,
}

impl CountingBloomFilter {
    /// Empty filter with the paper's 4-bit counters.
    pub fn new(config: FilterConfig) -> Self {
        Self::with_counter_bits(config, DEFAULT_COUNTER_BITS)
    }

    /// Empty filter with `counter_bits`-wide counters (1..=8). Narrower
    /// counters save memory at a higher clamping probability; the
    /// analysis module quantifies the tradeoff.
    pub fn with_counter_bits(config: FilterConfig, counter_bits: u8) -> Self {
        assert!(
            (1..=8).contains(&counter_bits),
            "counter width {counter_bits} outside 1..=8"
        );
        let spec = config
            .hash_spec()
            .expect("FilterConfig with invalid hash parameters");
        let m = config.bits as usize;
        let packed_len = (m * counter_bits as usize).div_ceil(8);
        CountingBloomFilter {
            spec,
            bits: BitVec::new(m),
            counters: vec![0; packed_len],
            counter_bits,
            max_count: if counter_bits == 8 {
                u8::MAX
            } else {
                (1u8 << counter_bits) - 1
            },
            saturations: 0,
            underflows: 0,
        }
    }

    /// The wire-visible hash parameters.
    pub fn spec(&self) -> HashSpec {
        self.spec
    }

    /// Counter value at position `i`.
    pub fn count(&self, i: usize) -> u8 {
        let bit_off = i * self.counter_bits as usize;
        let mut v: u16 = self.counters[bit_off / 8] as u16;
        if bit_off / 8 + 1 < self.counters.len() {
            v |= (self.counters[bit_off / 8 + 1] as u16) << 8;
        }
        ((v >> (bit_off % 8)) as u8) & self.max_count
    }

    fn set_count(&mut self, i: usize, value: u8) {
        debug_assert!(value <= self.max_count);
        let bit_off = i * self.counter_bits as usize;
        let shift = bit_off % 8;
        let mask = (self.max_count as u16) << shift;
        let byte = bit_off / 8;
        let mut v = self.counters[byte] as u16;
        if byte + 1 < self.counters.len() {
            v |= (self.counters[byte + 1] as u16) << 8;
        }
        v = (v & !mask) | ((value as u16) << shift);
        self.counters[byte] = v as u8;
        if byte + 1 < self.counters.len() {
            self.counters[byte + 1] = (v >> 8) as u8;
        }
    }

    /// Insert a pre-hashed key, appending the bit positions that flipped
    /// 0→1 to `flips` (which is *not* cleared, so a caller's warm scratch
    /// buffer is reused across calls).
    ///
    /// The flips are what the owning proxy logs for the next
    /// directory-update message.
    pub fn insert_key_into(&mut self, key: &UrlKey, flips: &mut Vec<Flip>) {
        let spec = self.spec;
        key.with_indices(&spec, |indices| {
            for &i in indices {
                let i = i as usize;
                let c = self.count(i);
                if c == self.max_count {
                    self.saturations += 1;
                    continue; // paper: "simply let it stay at 15"
                }
                self.set_count(i, c.saturating_add(1).min(self.max_count));
                if c == 0 {
                    self.bits.set(i, true);
                    flips.push(Flip::set(i as u32));
                }
            }
        });
    }

    /// Remove a pre-hashed key, appending the bit positions that flipped
    /// 1→0 to `flips` (which is *not* cleared).
    ///
    /// Removing a key that was never inserted corrupts the filter, exactly
    /// as in the paper's Squid prototype; an underflow (decrement of a
    /// zero counter) is recorded and skipped rather than wrapping.
    pub fn remove_key_into(&mut self, key: &UrlKey, flips: &mut Vec<Flip>) {
        let spec = self.spec;
        key.with_indices(&spec, |indices| {
            for &i in indices {
                let i = i as usize;
                let c = self.count(i);
                if c == 0 {
                    self.underflows += 1;
                    continue;
                }
                self.set_count(i, c.saturating_sub(1));
                if c == 1 {
                    self.bits.set(i, false);
                    flips.push(Flip::clear(i as u32));
                }
            }
        });
    }

    /// Membership query against the derived bit vector, with a
    /// pre-hashed key; zero MD5 work when the key already memoized this
    /// filter's spec.
    pub fn contains_key(&self, key: &UrlKey) -> bool {
        key.with_indices(&self.spec, |idx| {
            idx.iter().all(|&i| self.bits.get(i as usize))
        })
    }

    /// The exported plain-Bloom-filter view (what peers receive).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Times an increment hit a clamped counter.
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Times a decrement hit a zero counter.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Memory footprint in bytes: packed counters plus the bit array.
    /// With 4-bit counters this is the paper's "N/2 bytes of counters for
    /// an N-bit filter" plus N/8 bytes of bits.
    pub fn byte_len(&self) -> usize {
        self.counters.len() + self.bits.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_util::prop::{check, vec_of};
    use std::collections::BTreeSet;

    fn cfg(keys: usize, lf: u32) -> FilterConfig {
        FilterConfig::with_load_factor(keys, lf, 4)
    }

    fn url(i: u32) -> UrlKey {
        UrlKey::new(format!("http://s{}.example/{}", i % 31, i).as_bytes())
    }

    /// Insert `key`, returning just this call's 0→1 flips.
    fn insert_flips(f: &mut CountingBloomFilter, key: &UrlKey) -> Vec<Flip> {
        let mut flips = Vec::new();
        f.insert_key_into(key, &mut flips);
        flips
    }

    /// Remove `key`, returning just this call's 1→0 flips.
    fn remove_flips(f: &mut CountingBloomFilter, key: &UrlKey) -> Vec<Flip> {
        let mut flips = Vec::new();
        f.remove_key_into(key, &mut flips);
        flips
    }

    #[test]
    fn insert_then_remove_restores_empty() {
        let mut f = CountingBloomFilter::new(cfg(500, 8));
        for i in 0..500 {
            insert_flips(&mut f, &url(i));
        }
        for i in 0..500 {
            remove_flips(&mut f, &url(i));
        }
        assert_eq!(f.bits().count_ones(), 0, "all bits cleared");
        assert_eq!(f.underflows(), 0);
        for i in 0..500 {
            assert!(!f.contains_key(&url(i)));
        }
    }

    #[test]
    fn no_false_negatives_while_present() {
        let mut f = CountingBloomFilter::new(cfg(1000, 8));
        for i in 0..1000 {
            insert_flips(&mut f, &url(i));
        }
        // Remove half; the surviving half must still be present.
        for i in 0..500 {
            remove_flips(&mut f, &url(i));
        }
        for i in 500..1000 {
            assert!(f.contains_key(&url(i)), "false negative for live key {i}");
        }
    }

    #[test]
    fn counters_clamp_at_fifteen() {
        // A 1-bit table: every hash lands on bit 0.
        let config = FilterConfig {
            bits: 1,
            hashes: 1,
            function_bits: 32,
        };
        let mut f = CountingBloomFilter::new(config);
        for i in 0..40u32 {
            insert_flips(&mut f, &url(i));
        }
        assert_eq!(f.count(0), 15, "clamped at the 4-bit maximum");
        assert_eq!(f.saturations(), 40 - 15);
        // Deletions now drain the clamped counter; at 0 the bit clears even
        // though keys conceptually remain — the paper's accepted false
        // negative after clamping.
        for i in 0..15u32 {
            remove_flips(&mut f, &url(i));
        }
        assert_eq!(f.count(0), 0);
        assert!(!f.contains_key(&url(20)));
    }

    #[test]
    fn underflow_is_counted_not_wrapped() {
        let mut f = CountingBloomFilter::new(cfg(10, 8));
        remove_flips(&mut f, &UrlKey::new(b"never inserted"));
        assert_eq!(f.underflows(), 4, "one underflow per hash function");
        assert_eq!(f.bits().count_ones(), 0);
    }

    #[test]
    fn flips_describe_bit_transitions() {
        let mut f = CountingBloomFilter::new(cfg(100, 16));
        let k1 = UrlKey::new(b"k1");
        let first = insert_flips(&mut f, &k1);
        assert!(!first.is_empty(), "fresh insert sets bits");
        assert!(first.iter().all(|fl| fl.set_bit()));
        let dup = insert_flips(&mut f, &k1);
        assert!(dup.is_empty(), "re-insert touches no bits");
        let one = remove_flips(&mut f, &k1);
        assert!(one.is_empty(), "one copy still present");
        let gone = remove_flips(&mut f, &k1);
        assert_eq!(
            gone.iter().map(|fl| fl.index()).collect::<BTreeSet<_>>(),
            first.iter().map(|fl| fl.index()).collect::<BTreeSet<_>>(),
            "final remove clears exactly the bits the first insert set"
        );
        assert!(gone.iter().all(|fl| !fl.set_bit()));
    }

    #[test]
    fn narrow_and_wide_counter_widths() {
        for width in [1u8, 2, 3, 5, 8] {
            let mut f = CountingBloomFilter::with_counter_bits(cfg(100, 8), width);
            for i in 0..100 {
                insert_flips(&mut f, &url(i));
            }
            for i in 0..100 {
                assert!(f.contains_key(&url(i)), "width {width}, key {i}");
            }
            for i in 0..100 {
                remove_flips(&mut f, &url(i));
            }
            // Width 1 clamps constantly (max count = 1), so bits may clear
            // early, but wider counters must come back clean.
            if width >= 4 {
                assert_eq!(f.bits().count_ones(), 0, "width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn rejects_zero_width() {
        CountingBloomFilter::with_counter_bits(cfg(1, 8), 0);
    }

    #[test]
    fn byte_len_accounts_counters_and_bits() {
        let f = CountingBloomFilter::new(FilterConfig {
            bits: 1024,
            hashes: 4,
            function_bits: 32,
        });
        assert_eq!(f.byte_len(), 1024 / 2 + 1024 / 8);
    }

    /// The exported bit vector always equals "counter > 0" and matches
    /// a plain Bloom filter over the live key multiset.
    #[test]
    fn prop_bits_consistent_with_counts() {
        check("cbf_bits_consistent_with_counts", 256, |rng| {
            let ops = vec_of(rng, 0..200, |r| (r.gen_range(0u32..64), r.gen_bool(0.5)));
            let config = cfg(64, 8);
            let mut f = CountingBloomFilter::new(config);
            let mut live: Vec<u32> = Vec::new();
            for (key, is_insert) in ops {
                if is_insert {
                    insert_flips(&mut f, &url(key));
                    live.push(key);
                } else if let Some(pos) = live.iter().position(|&k| k == key) {
                    live.swap_remove(pos);
                    remove_flips(&mut f, &url(key));
                }
            }
            if f.saturations() != 0 {
                return; // clamped counters may legitimately diverge
            }
            let mut plain = crate::BloomFilter::new(config);
            for &k in &live {
                plain.insert_key(&url(k));
            }
            assert_eq!(f.bits(), plain.bits());
            for i in 0..64usize {
                assert_eq!(f.bits().get(i), f.count(i) > 0);
            }
        });
    }

    /// Reference-multiset model, including the saturation path the test
    /// above bails on. A tiny table forces counters to clamp; the model
    /// mirrors the paper's exact rule (increment sticks at max, decrement
    /// of a clamped counter still decrements) per index, and the filter
    /// must agree with it counter-for-counter — with zero underflows for
    /// as long as only live keys are removed.
    #[test]
    fn prop_counters_match_reference_model_through_saturation() {
        check("cbf_reference_model", 256, |rng| {
            let width = rng.gen_range(2u8..=4);
            let bits = rng.gen_range(4u32..=16); // tiny: collisions everywhere
            let config = FilterConfig { bits, hashes: 2, function_bits: 32 };
            let mut f = CountingBloomFilter::with_counter_bits(config, width);
            let max = (1u16 << width) as u8 - 1;
            let spec = f.spec();

            // The model: true per-index reference counts with the paper's
            // clamp, plus the live-key multiset driving them.
            let mut model = vec![0u8; bits as usize];
            let mut model_saturations = 0u64;
            let mut model_underflows = 0u64;
            let mut live: Vec<u32> = Vec::new();

            for _ in 0..rng.gen_range(20..300usize) {
                if live.is_empty() || rng.gen_bool(0.55) {
                    let key = rng.gen_range(0u32..32);
                    insert_flips(&mut f, &url(key));
                    for &i in &spec.indices(url(key).bytes()) {
                        let c = &mut model[i as usize];
                        if *c == max {
                            model_saturations += 1;
                        } else {
                            *c += 1;
                        }
                    }
                    live.push(key);
                } else {
                    let pos = rng.gen_range(0..live.len());
                    let key = live.swap_remove(pos);
                    remove_flips(&mut f, &url(key));
                    for &i in &spec.indices(url(key).bytes()) {
                        let c = &mut model[i as usize];
                        // Clamped counters still decrement — the paper's
                        // accepted false-negative path — and a counter a
                        // past clamp drained to zero early underflows.
                        if *c == 0 {
                            model_underflows += 1;
                        } else {
                            *c -= 1;
                        }
                    }
                }
                for (i, &c) in model.iter().enumerate() {
                    assert_eq!(f.count(i), c, "counter {i} diverged from model");
                    assert_eq!(f.bits().get(i), c > 0, "bit {i} != (count > 0)");
                }
                assert_eq!(f.saturations(), model_saturations);
                assert_eq!(f.underflows(), model_underflows);
                if model_saturations == 0 {
                    assert_eq!(
                        f.underflows(),
                        0,
                        "without clamping, removing only live keys never underflows"
                    );
                }
            }
        });
    }

    /// Packed counter storage: set_count/count round-trips at every
    /// width and position, without disturbing neighbours.
    #[test]
    fn prop_counter_packing() {
        check("cbf_counter_packing", 256, |rng| {
            let width = rng.gen_range(1u8..=8);
            let values = vec_of(rng, 1..50, |r| r.gen_range(0u8..=255));
            let config = FilterConfig { bits: values.len() as u32, hashes: 1, function_bits: 32 };
            let mut f = CountingBloomFilter::with_counter_bits(config, width);
            let max = if width == 8 { 255 } else { (1u16 << width) as u8 - 1 };
            let clamped: Vec<u8> = values.iter().map(|&v| v.min(max)).collect();
            for (i, &v) in clamped.iter().enumerate() {
                f.set_count(i, v);
            }
            for (i, &v) in clamped.iter().enumerate() {
                assert_eq!(f.count(i), v, "width {} index {}", width, i);
            }
        });
    }
}
