//! The faster hash family the paper sketches as MD5's alternative.
//!
//! Section V-D: "other faster hashing methods are available, for
//! instance hash functions can be based on polynomial arithmetic as in
//! Rabin's fingerprinting method … a simple hash function can be used
//! to generate, say 32 bits, and further bits can be obtained by taking
//! random linear transformations of these 32 bits viewed as an integer.
//! A disadvantage is that these faster functions are efficiently
//! invertible … a fact that might be used by malicious users".
//!
//! This module implements exactly that recipe: a Rabin fingerprint over
//! GF(2) with a fixed degree-63 irreducible polynomial produces 64 base
//! bits; each of the `k` probe positions is a random (but fixed, seeded)
//! linear transformation of the fingerprint, reduced modulo the table
//! size. It is several times faster than MD5 per key — and, as the
//! paper warns, **not** collision-resistant against adversarial inputs:
//! use it only where peers are trusted.


/// A fixed irreducible polynomial of degree 64 over GF(2) (the low 64
/// coefficient bits; the x^64 term is implicit).
const POLY: u64 = 0x1B; // x^64 + x^4 + x^3 + x + 1 (a known irreducible)

/// Multiplier/offset pairs are derived from this seed via splitmix64,
/// so every [`RabinFamily`] with equal parameters is identical across
/// processes — required for summaries to be probeable by peers.
const FAMILY_SEED: u64 = 0x5CA1_AB1E_0DDB_A110;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Byte-at-a-time reduction table: `TABLE[t] = (t · x⁶⁴) mod POLY`,
/// computed at compile time. This is what makes the family actually
/// faster than MD5 (the paper's whole argument for it).
const TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0usize;
    while i < 256 {
        // Multiply the degree-≤7 polynomial `i` by x^64, reducing mod
        // POLY one shift at a time.
        let mut f = i as u64;
        let mut b = 0;
        while b < 64 {
            let carry = f >> 63 & 1 == 1;
            f <<= 1;
            if carry {
                f ^= POLY;
            }
            b += 1;
        }
        table[i] = f;
        i += 1;
    }
    table
};

/// Rabin fingerprint of a byte string: the string's bits reduced modulo
/// the fixed degree-64 irreducible polynomial `x^64 + x^4 + x^3 + x + 1`
/// in GF(2). Table-driven, one lookup + shift + xor per byte.
pub fn fingerprint(data: &[u8]) -> u64 {
    let mut f: u64 = 0;
    for &byte in data {
        let top = (f >> 56) as usize;
        f = (f << 8) | byte as u64;
        f ^= TABLE[top];
    }
    f
}

/// Reference bit-at-a-time implementation, kept as the oracle the
/// table-driven version is tested against.
#[cfg(test)]
fn fingerprint_bitwise(data: &[u8]) -> u64 {
    let mut f: u64 = 0;
    for &byte in data {
        for bit in (0..8).rev() {
            let carry = f >> 63 & 1 == 1;
            f <<= 1;
            if byte >> bit & 1 == 1 {
                f |= 1;
            }
            if carry {
                f ^= POLY;
            }
        }
    }
    f
}

/// A `k`-function probe family over a table of `m` bits, built from one
/// Rabin fingerprint plus `k` fixed random linear transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RabinFamily {
    k: u16,
    m: u32,
    /// Odd multipliers (odd ⇒ invertible mod 2^64 ⇒ full-entropy mix).
    muls: Vec<u64>,
    offs: Vec<u64>,
}

impl RabinFamily {
    /// A family of `k` functions over `m` table bits.
    ///
    /// # Panics
    /// If `k == 0` or `m == 0`.
    pub fn new(k: u16, m: u32) -> Self {
        assert!(k > 0 && m > 0, "degenerate hash family");
        let mut state = FAMILY_SEED;
        let muls = (0..k).map(|_| splitmix64(&mut state) | 1).collect();
        let offs = (0..k).map(|_| splitmix64(&mut state)).collect();
        RabinFamily { k, m, muls, offs }
    }

    /// Number of functions.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Table size in bits.
    pub fn table_bits(&self) -> u32 {
        self.m
    }

    /// The `k` probe positions for `key`.
    pub fn indices(&self, key: &[u8]) -> Vec<u32> {
        let f = fingerprint(key);
        self.indices_of_fingerprint(f)
    }

    /// Probe positions from a precomputed fingerprint (lets callers hash
    /// once and probe many peer filters).
    pub fn indices_of_fingerprint(&self, f: u64) -> Vec<u32> {
        self.muls
            .iter()
            .zip(&self.offs)
            .map(|(&a, &b)| {
                let mixed = f.wrapping_mul(a).wrapping_add(b);
                // Top bits of an odd-multiplier product are the well-mixed
                // ones (multiply-shift hashing).
                ((mixed >> 32) % self.m as u64) as u32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fingerprint_is_deterministic_and_spread() {
        let a = fingerprint(b"http://example.com/a");
        assert_eq!(a, fingerprint(b"http://example.com/a"));
        let b = fingerprint(b"http://example.com/b");
        assert_ne!(a, b);
        // Rabin fingerprints are linear, so a trailing-bit change only
        // perturbs low-order terms — the avalanche comes from the
        // multiply-shift stage. Check it there:
        let fam = RabinFamily::new(4, 1 << 20);
        let c = fingerprint(b"http://example.com/c");
        assert_ne!(
            fam.indices_of_fingerprint(b),
            fam.indices_of_fingerprint(c),
            "probe positions must diverge on near-identical keys"
        );
    }

    #[test]
    fn table_driven_matches_bitwise_oracle() {
        let cases: [&[u8]; 6] = [
            b"",
            b"a",
            b"http://example.com/some/long/path?with=query",
            &[0xFF; 100],
            &[0x00; 33],
            b"\x80\x01\x7f\xfe",
        ];
        for data in cases {
            assert_eq!(
                fingerprint(data),
                fingerprint_bitwise(data),
                "mismatch on {data:?}"
            );
        }
        // And a longer pseudo-random buffer.
        let buf: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        assert_eq!(fingerprint(&buf), fingerprint_bitwise(&buf));
    }

    #[test]
    fn empty_and_prefix_inputs() {
        assert_eq!(fingerprint(b""), 0);
        // Appending a zero byte must change the fingerprint (polynomial
        // shifts), unlike naive XOR hashing.
        assert_ne!(fingerprint(b"x"), fingerprint(b"x\0"));
    }

    #[test]
    fn family_is_stable_across_instances() {
        let f1 = RabinFamily::new(4, 1 << 20);
        let f2 = RabinFamily::new(4, 1 << 20);
        assert_eq!(f1, f2, "peers must derive identical families");
        assert_eq!(f1.indices(b"key"), f2.indices(b"key"));
    }

    #[test]
    fn indices_in_range_and_fingerprint_path_agrees() {
        let fam = RabinFamily::new(6, 999_983);
        let idx = fam.indices(b"http://a/b");
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 999_983));
        let f = fingerprint(b"http://a/b");
        assert_eq!(fam.indices_of_fingerprint(f), idx);
    }

    #[test]
    fn false_positive_rate_matches_bloom_theory() {
        // Build a plain bit table with the Rabin family and check the
        // empirical FP rate against (1 - e^{-kn/m})^k, like the MD5
        // family's test — the uniformity claim made measurable.
        let n = 10_000u32;
        let m = 80_000u32; // load factor 8
        let fam = RabinFamily::new(4, m);
        let mut bits = crate::BitVec::new(m as usize);
        for i in 0..n {
            for idx in fam.indices(format!("http://s{}/d{i}", i % 97).as_bytes()) {
                bits.set(idx as usize, true);
            }
        }
        let probes = 50_000u32;
        let fp = (0..probes)
            .filter(|i| {
                fam.indices(format!("http://t{}/x{i}", i % 89).as_bytes())
                    .iter()
                    .all(|&idx| bits.get(idx as usize))
            })
            .count();
        let rate = fp as f64 / probes as f64;
        let theory = crate::analysis::false_positive_probability_asymptotic(8.0, 4);
        assert!(
            (rate - theory).abs() < 0.01,
            "rabin family FP {rate:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn distinct_functions_distinct_positions() {
        let fam = RabinFamily::new(8, 1 << 24);
        let idx = fam.indices(b"one key");
        let distinct: HashSet<u32> = idx.iter().copied().collect();
        assert!(distinct.len() >= 7, "functions shouldn't collapse: {idx:?}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_k() {
        RabinFamily::new(0, 64);
    }
}
