#![warn(missing_docs)]

//! RFC 1321 MD5 message digest, implemented from scratch.
//!
//! The summary-cache paper (Fan et al., SIGCOMM '98) hashes document URLs
//! with MD5 and derives the Bloom-filter hash functions from disjoint bit
//! groups of the 128-bit digest (Section V-D / VI-A). When more than 128
//! bits are needed, further digests are produced from the URL concatenated
//! with itself.
//!
//! MD5 is long broken as a cryptographic hash; the paper itself only relies
//! on its uniformity, and so do we. This crate exists so the reproduction
//! has no external hashing dependency and so the exact bit-group derivation
//! of the paper's wire protocol can be tested against known digests.
//!
//! # Example
//!
//! ```
//! let d = sc_md5::md5(b"abc");
//! assert_eq!(sc_md5::to_hex(&d), "900150983cd24fb0d6963f7d28e17f72");
//! ```

mod digest;
mod stream;

pub use digest::{md5, Digest, DIGEST_LEN};
pub use stream::{blocks_hashed, Md5};

/// Render a digest (or any byte slice) as lowercase hexadecimal.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Digest of `data` repeated `times` times, without materializing the
/// repetition.
///
/// The paper extends the 128-bit digest by hashing "the URL concatenated
/// with itself" when a summary needs more hash bits than one digest
/// provides (Section V-E); this helper computes MD5(url ‖ url ‖ …)
/// streaming.
pub fn md5_repeated(data: &[u8], times: usize) -> Digest {
    // Small key × few copies still fits one padded block (the common
    // case for the first extension digest of a short URL id): build the
    // repetition on the stack and take the single-compression path.
    let total = data.len().saturating_mul(times);
    if total <= stream::ONESHOT_MAX {
        let mut buf = [0u8; stream::ONESHOT_MAX];
        for t in 0..times {
            buf[t * data.len()..(t + 1) * data.len()].copy_from_slice(data);
        }
        return stream::oneshot_short(&buf[..total]);
    }
    let mut ctx = Md5::new();
    for _ in 0..times {
        ctx.update(data);
    }
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn repeated_matches_manual_concatenation() {
        let url = b"http://www.cs.wisc.edu/~cao/papers/summary-cache/";
        let twice: Vec<u8> = url.iter().chain(url.iter()).copied().collect();
        assert_eq!(md5_repeated(url, 2), md5(&twice));
        assert_eq!(md5_repeated(url, 1), md5(url));
    }

    #[test]
    fn repeated_zero_times_is_empty_digest() {
        assert_eq!(md5_repeated(b"anything", 0), md5(b""));
    }

    #[test]
    fn repeated_matches_manual_concatenation_at_many_copies() {
        // Copy counts ≥ 4 cross several 64-byte block boundaries for a
        // typical URL; the streaming context must agree with hashing the
        // materialized key‖key‖… buffer at every count.
        let url = b"http://www.cs.wisc.edu/~cao/papers/summary-cache/";
        for copies in [4usize, 5, 7, 16] {
            let manual: Vec<u8> = url
                .iter()
                .cycle()
                .take(url.len() * copies)
                .copied()
                .collect();
            assert_eq!(md5_repeated(url, copies), md5(&manual), "copies {copies}");
        }
    }

    #[test]
    fn blocks_hashed_counts_per_thread_compressions() {
        // One short digest = exactly one 64-byte block (padding included);
        // a 100-byte message pads to two blocks.
        let before = blocks_hashed();
        let _ = md5(b"abc");
        assert_eq!(blocks_hashed() - before, 1);
        let before = blocks_hashed();
        let _ = md5(&[0u8; 100]);
        assert_eq!(blocks_hashed() - before, 2);
    }
}
