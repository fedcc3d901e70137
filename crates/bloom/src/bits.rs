//! A compact bit vector backing the Bloom filter's public bit array.


/// A fixed-length vector of bits packed into `u64` words.
///
/// This is the structure a proxy ships to its peers (as bytes or as bit-flip
/// deltas); it deliberately exposes exactly the operations the protocol
/// needs rather than being a general-purpose bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
    ones: usize,
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
            ones: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bits currently set — the filter "fill" that determines
    /// the observed false-positive rate.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i` to `value`, returning `true` if the bit changed.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        if was == value {
            return false;
        }
        *word ^= mask;
        if value {
            self.ones += 1;
        } else {
            self.ones -= 1;
        }
        true
    }

    /// Iterate over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Indices where `self` and `other` differ (the symmetric difference) —
    /// the minimal delta needed to turn one into the other.
    ///
    /// # Panics
    /// If lengths differ; a summary's size is fixed between full updates.
    pub fn diff_indices(&self, other: &BitVec) -> Vec<usize> {
        assert_eq!(self.len, other.len, "diff of different-length bit vectors");
        let mut out = Vec::new();
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let tz = x.trailing_zeros() as usize;
                x &= x - 1;
                out.push(wi * 64 + tz);
            }
        }
        out
    }

    /// The raw packed words, little-endian bit order within each word.
    /// Used when a full-bitmap update is cheaper than a delta.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Serialized size in bytes when shipped as a full bitmap.
    pub fn byte_len(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// Rebuild from packed words (inverse of [`BitVec::as_words`]).
    ///
    /// # Panics
    /// If `words` is not exactly `len.div_ceil(64)` long or sets bits past
    /// `len`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64));
        if !len.is_multiple_of(64) {
            let last = words[words.len() - 1];
            assert_eq!(last >> (len % 64), 0, "bits set past logical length");
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        BitVec { len, words, ones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_util::prop::{check, index_set};

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::new(130);
        assert!(!v.get(0));
        assert!(v.set(0, true));
        assert!(v.set(129, true));
        assert!(!v.set(129, true), "setting an already-set bit is a no-op");
        assert!(v.get(0) && v.get(129));
        assert_eq!(v.count_ones(), 2);
        assert!(v.set(0, false));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::new(10).get(10);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut v = BitVec::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn diff_indices_symmetric_difference() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(1, true);
        a.set(70, true);
        b.set(70, true);
        b.set(99, true);
        assert_eq!(a.diff_indices(&b), vec![1, 99]);
        assert_eq!(b.diff_indices(&a), vec![1, 99]);
        assert!(a.diff_indices(&a).is_empty());
    }

    #[test]
    fn byte_len_rounds_up() {
        assert_eq!(BitVec::new(0).byte_len(), 0);
        assert_eq!(BitVec::new(1).byte_len(), 1);
        assert_eq!(BitVec::new(8).byte_len(), 1);
        assert_eq!(BitVec::new(9).byte_len(), 2);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut v = BitVec::new(70);
        v.set(0, true);
        v.set(69, true);
        let rebuilt = BitVec::from_words(70, v.as_words().to_vec());
        assert_eq!(rebuilt, v);
    }

    #[test]
    #[should_panic(expected = "past logical length")]
    fn from_words_rejects_overhang() {
        BitVec::from_words(65, vec![0, 0b100]);
    }

    #[test]
    fn prop_ones_matches_popcount() {
        check("bits_ones_matches_popcount", 256, |rng| {
            let indices = index_set(rng, 500, 0..100);
            let mut v = BitVec::new(500);
            for &i in &indices {
                v.set(i, true);
            }
            assert_eq!(v.count_ones(), indices.len());
            let collected: Vec<usize> = v.iter_ones().collect();
            assert_eq!(collected, indices);
        });
    }

    #[test]
    fn prop_applying_diff_makes_equal() {
        check("bits_applying_diff_makes_equal", 256, |rng| {
            let xs = index_set(rng, 300, 0..60);
            let ys = index_set(rng, 300, 0..60);
            let mut a = BitVec::new(300);
            let mut b = BitVec::new(300);
            for &i in &xs { a.set(i, true); }
            for &i in &ys { b.set(i, true); }
            let mut patched = a.clone();
            for i in a.diff_indices(&b) {
                let bit = patched.get(i);
                patched.set(i, !bit);
            }
            assert_eq!(patched, b);
        });
    }
}
