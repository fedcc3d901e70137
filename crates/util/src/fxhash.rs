//! A fast, deterministic, non-cryptographic hasher for internal maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with a random key) buys
//! HashDoS resistance at a real per-lookup cost. The daemon's internal
//! maps are keyed by small trusted values — peer ids, request numbers,
//! MD5 digests we computed ourselves — where an attacker controls
//! nothing, so that defense buys nothing on the hot path.
//!
//! This is the classic "Fx" multiply-xor hash (as used by Firefox and
//! rustc): fold each 8-byte word into the state with a rotate, xor, and
//! multiply by a single odd constant. It is seed-free, hence also
//! deterministic across runs — a property the seeded simnet appreciates.
//!
//! ```
//! use sc_util::fxhash::FxHashMap;
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier: a random-looking odd 64-bit constant
/// (`2^64 / golden ratio`, as in rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Multiply-xor hasher state. Build through [`FxBuildHasher`] /
/// [`FxHashMap`] rather than directly.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add_word(u64::from_le_bytes(word) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; zero-sized and seed-free.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher. Drop-in for `std::collections::
/// HashMap` on trusted keys; construct with `FxHashMap::default()` or
/// `collect()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"peer-7"), hash_of(&"peer-7"));
    }

    #[test]
    fn small_keys_spread() {
        // Not a statistical test — just catch a broken fold that maps
        // everything to a handful of values.
        let hashes: std::collections::HashSet<u64> =
            (0u32..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_boundaries_matter() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"ba".as_slice()));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&7), Some(&14));
        let s: std::collections::HashSet<[u8; 16], FxBuildHasher> =
            [[0u8; 16], [1u8; 16]].into_iter().collect();
        assert!(s.contains(&[1u8; 16]));
    }
}
