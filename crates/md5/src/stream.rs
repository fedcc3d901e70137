//! Incremental (streaming) MD5 per RFC 1321.

use crate::digest::{Digest, DIGEST_LEN};
use std::cell::Cell;

const BLOCK_LEN: usize = 64;

thread_local! {
    /// Per-thread count of 64-byte blocks compressed; see
    /// [`blocks_hashed`].
    static BLOCKS_HASHED: Cell<u64> = const { Cell::new(0) };
}

/// Total 64-byte MD5 blocks this *thread* has compressed since it
/// started — the cost counter behind every digest.
///
/// This is the hot-path accounting hook: a probe pipeline that hashes a
/// URL once per request instead of once per peer shows up here as a
/// proportional drop in blocks per request, which tests can assert
/// without relying on wall-clock noise. Thread-local so parallel test
/// threads never pollute each other's counts; the increment is a plain
/// (non-atomic) cell bump, noise against the ~hundreds of cycles one
/// block compression costs.
pub fn blocks_hashed() -> u64 {
    BLOCKS_HASHED.with(|c| c.get())
}

/// RFC 1321 initial chaining state.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Longest message whose padded form still fits a single 64-byte
/// block: 55 bytes of message + 0x80 + the 8-byte length.
pub(crate) const ONESHOT_MAX: usize = 55;

/// Per-round shift amounts, RFC 1321 section 3.4.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, // round 1
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, // round 2
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, // round 3
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, // round 4
];

/// Sine-derived constants K[i] = floor(2^32 * abs(sin(i+1))).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391,
];

/// Incremental MD5 context.
///
/// ```
/// let mut ctx = sc_md5::Md5::new();
/// ctx.update(b"ab");
/// ctx.update(b"c");
/// assert_eq!(ctx.finalize(), sc_md5::md5(b"abc"));
/// ```
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh context with the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            len: 0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return; // everything fit in the partial buffer
            }
        }
        let mut chunks = data.chunks_exact(BLOCK_LEN);
        for block in &mut chunks {
            let block: &[u8; BLOCK_LEN] = block.try_into().unwrap();
            self.compress(block);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Pad, append the length, and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // 0x80 then zeros until 56 mod 64, then the 64-bit little-endian
        // bit length. The captured bit_len covers the message only, not
        // this padding.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_le_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Core compression function over one 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        compress_block(&mut self.state, block);
    }
}

/// One compression round trip: fold a 64-byte block into `state`.
/// Shared by the streaming context and the short-message one-shot path.
fn compress_block(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
    BLOCKS_HASHED.with(|c| c.set(c.get() + 1));
    let mut m = [0u32; 16];
    for (i, w) in m.iter_mut().enumerate() {
        *w = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]),
        );
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Serialize a chaining state into the little-endian digest bytes.
fn digest_of(state: [u32; 4]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The `i`-th 64-byte block of `data` *after* RFC 1321 padding, where
/// `total` is the padded block count `(len + 8) / 64 + 1`. Blocks
/// before the tail are verbatim message bytes; the tail block(s) carry
/// 0x80, zeros, and the little-endian bit length in the last one.
fn padded_block(data: &[u8], i: usize, total: usize) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    let start = i * BLOCK_LEN;
    if start + BLOCK_LEN <= data.len() {
        block.copy_from_slice(&data[start..start + BLOCK_LEN]);
        return block;
    }
    if start <= data.len() {
        let tail = &data[start..];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
    }
    if i + 1 == total {
        block[56..].copy_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
    }
    block
}

/// One-shot digest of a message short enough to pad into a single
/// block (≤ [`ONESHOT_MAX`] bytes): no context setup, no partial-buffer
/// bookkeeping, no byte-at-a-time padding loop — build the padded
/// block in place and compress once.
pub(crate) fn oneshot_short(data: &[u8]) -> Digest {
    debug_assert!(data.len() <= ONESHOT_MAX);
    let block = padded_block(data, 0, 1);
    let mut state = INIT;
    compress_block(&mut state, &block);
    digest_of(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5;
    use sc_util::prop::{check, vec_of};

    #[test]
    fn streaming_equals_oneshot_on_random_splits() {
        let data: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = md5(&data);
        for split in [0, 1, 63, 64, 65, 350, 699, 700] {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), want, "split {}", split);
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut ctx = Md5::new();
        for b in data.iter() {
            ctx.update(std::slice::from_ref(b));
        }
        assert_eq!(
            crate::to_hex(&ctx.finalize()),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn prop_streaming_equals_oneshot() {
        check("md5_streaming_equals_oneshot", 256, |rng| {
            let data = vec_of(rng, 0..512, |r| r.gen_range(0u32..=255) as u8);
            let cut = rng.gen_range(0usize..512).min(data.len());
            let mut ctx = Md5::new();
            ctx.update(&data[..cut]);
            ctx.update(&data[cut..]);
            assert_eq!(ctx.finalize(), md5(&data));
        });
    }

    #[test]
    fn prop_oneshot_fast_path_equals_streaming() {
        // The ≤55-byte single-block path must agree with the streaming
        // context bit-for-bit at every length, including the empty
        // message and both sides of the padding boundary.
        for len in 0..=ONESHOT_MAX {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 37 % 251) as u8).collect();
            let mut ctx = Md5::new();
            ctx.update(&data);
            assert_eq!(oneshot_short(&data), ctx.finalize(), "len {len}");
        }
        check("md5_oneshot_equals_streaming", 256, |rng| {
            let data = vec_of(rng, 0..ONESHOT_MAX + 1, |r| r.gen_range(0u32..=255) as u8);
            let mut ctx = Md5::new();
            ctx.update(&data);
            assert_eq!(oneshot_short(&data), ctx.finalize());
        });
    }

    #[test]
    fn oneshot_costs_exactly_one_block() {
        let before = blocks_hashed();
        let _ = oneshot_short(b"http://server-7.example.com/doc/42");
        assert_eq!(blocks_hashed() - before, 1);
    }

    #[test]
    fn padded_block_tiles_match_streaming_buffer() {
        // Every (length, block index) pair must reproduce what the
        // streaming padder would have fed.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 13 % 251) as u8).collect();
            let total = (len + 8) / BLOCK_LEN + 1;
            let mut state = INIT;
            for i in 0..total {
                compress_block(&mut state, &padded_block(&data, i, total));
            }
            let mut ctx = Md5::new();
            ctx.update(&data);
            assert_eq!(digest_of(state), ctx.finalize(), "len {len}");
        }
    }

    #[test]
    fn prop_three_way_split() {
        check("md5_three_way_split", 256, |rng| {
            let data = vec_of(rng, 0..1024, |r| r.gen_range(0u32..=255) as u8);
            let third = data.len() / 3;
            let mut ctx = Md5::new();
            ctx.update(&data[..third]);
            ctx.update(&data[third..2 * third]);
            ctx.update(&data[2 * third..]);
            assert_eq!(ctx.finalize(), md5(&data));
        });
    }
}
