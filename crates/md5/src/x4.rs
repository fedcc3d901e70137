//! Four-lane MD5.
//!
//! One MD5 lane is latency-bound: every round's `b` feeds the next
//! round, so a single digest leaves most of the core's integer units
//! idle. Interleaving four *independent* messages through the
//! compression function turns that dependency chain into four parallel
//! chains — the per-round state lives in `[u32; 4]` arrays with
//! fixed-bound inner loops, which the compiler unrolls (and, since the
//! shift amount is uniform across lanes, can auto-vectorize to one
//! 4×u32 vector op per step).
//!
//! Lanes may have different lengths: the driver walks padded blocks in
//! lockstep, snapshots a lane's digest the moment its final block is
//! absorbed, and lets finished lanes ride along as dead weight (their
//! post-snapshot state is garbage and never read). Only *real* blocks
//! are credited to [`crate::blocks_hashed`], so the cost accounting a
//! batch caller sees is identical to four scalar digests.

use crate::digest::Digest;
use crate::stream::{bump_blocks, digest_of, padded_block, padded_blocks, INIT, K, S};

/// Digest four independent messages in one interleaved pass.
///
/// Bit-for-bit equal to `[md5(a), md5(b), md5(c), md5(d)]`, roughly
/// 3× the throughput on same-length single-block inputs (URLs).
pub fn md5_x4(inputs: [&[u8]; 4]) -> [Digest; 4] {
    let totals: [usize; 4] = core::array::from_fn(|l| padded_blocks(inputs[l].len()));
    let max_total = totals.iter().copied().max().unwrap_or(1);
    let mut states = [INIT; 4];
    let mut out = [[0u8; 16]; 4];
    let mut real_blocks = 0u64;
    for i in 0..max_total {
        let mut blocks = [[0u8; 64]; 4];
        for l in 0..4 {
            if i < totals[l] {
                blocks[l] = padded_block(inputs[l], i, totals[l]);
                real_blocks += 1;
            }
        }
        compress_x4(&mut states, &blocks);
        for l in 0..4 {
            if i + 1 == totals[l] {
                out[l] = digest_of(states[l]);
            }
        }
    }
    bump_blocks(real_blocks);
    out
}

/// The 4-lane compression step: fold one 64-byte block per lane into
/// the four chaining states, all lanes advancing in lockstep.
///
/// Fully unrolled: each of the 64 steps is one straight-line
/// elementwise pass over `[u32; 4]` lane vectors (the classic
/// rotating-role formulation, so no register shuffles between steps),
/// with the message schedule transposed lane-major → word-major so a
/// step's `m[g]` load is one contiguous 4×u32 vector. The round
/// constants and shift amounts are literal per step, which is what
/// lets the backend keep all four chains in vector registers.
fn compress_x4(states: &mut [[u32; 4]; 4], blocks: &[[u8; 64]; 4]) {
    // Word-major message schedule: m[g] holds message word g of every
    // lane side by side.
    let mut m = [[0u32; 4]; 16];
    for g in 0..16 {
        for l in 0..4 {
            m[g][l] = u32::from_le_bytes(blocks[l][g * 4..g * 4 + 4].try_into().unwrap());
        }
    }
    let mut a: [u32; 4] = core::array::from_fn(|l| states[l][0]);
    let mut b: [u32; 4] = core::array::from_fn(|l| states[l][1]);
    let mut c: [u32; 4] = core::array::from_fn(|l| states[l][2]);
    let mut d: [u32; 4] = core::array::from_fn(|l| states[l][3]);

    #[inline(always)]
    fn f1(b: u32, c: u32, d: u32) -> u32 {
        (b & c) | (!b & d)
    }
    #[inline(always)]
    fn f2(b: u32, c: u32, d: u32) -> u32 {
        (d & b) | (!d & c)
    }
    #[inline(always)]
    fn f3(b: u32, c: u32, d: u32) -> u32 {
        b ^ c ^ d
    }
    #[inline(always)]
    fn f4(b: u32, c: u32, d: u32) -> u32 {
        c ^ (b | !d)
    }

    /// One step: `$a = $b + (($a + f($b,$c,$d) + K[i] + m[g]) <<< S[i])`
    /// across all four lanes. Callers rotate which variable plays `$a`.
    macro_rules! q {
        ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $i:literal) => {
            for l in 0..4 {
                $a[l] = $b[l].wrapping_add(
                    $a[l]
                        .wrapping_add($f($b[l], $c[l], $d[l]))
                        .wrapping_add(K[$i])
                        .wrapping_add(m[$g][l])
                        .rotate_left(S[$i]),
                );
            }
        };
    }

    // Round 1: g = i.
    q!(f1, a, b, c, d, 0, 0);
    q!(f1, d, a, b, c, 1, 1);
    q!(f1, c, d, a, b, 2, 2);
    q!(f1, b, c, d, a, 3, 3);
    q!(f1, a, b, c, d, 4, 4);
    q!(f1, d, a, b, c, 5, 5);
    q!(f1, c, d, a, b, 6, 6);
    q!(f1, b, c, d, a, 7, 7);
    q!(f1, a, b, c, d, 8, 8);
    q!(f1, d, a, b, c, 9, 9);
    q!(f1, c, d, a, b, 10, 10);
    q!(f1, b, c, d, a, 11, 11);
    q!(f1, a, b, c, d, 12, 12);
    q!(f1, d, a, b, c, 13, 13);
    q!(f1, c, d, a, b, 14, 14);
    q!(f1, b, c, d, a, 15, 15);
    // Round 2: g = (5i + 1) mod 16.
    q!(f2, a, b, c, d, 1, 16);
    q!(f2, d, a, b, c, 6, 17);
    q!(f2, c, d, a, b, 11, 18);
    q!(f2, b, c, d, a, 0, 19);
    q!(f2, a, b, c, d, 5, 20);
    q!(f2, d, a, b, c, 10, 21);
    q!(f2, c, d, a, b, 15, 22);
    q!(f2, b, c, d, a, 4, 23);
    q!(f2, a, b, c, d, 9, 24);
    q!(f2, d, a, b, c, 14, 25);
    q!(f2, c, d, a, b, 3, 26);
    q!(f2, b, c, d, a, 8, 27);
    q!(f2, a, b, c, d, 13, 28);
    q!(f2, d, a, b, c, 2, 29);
    q!(f2, c, d, a, b, 7, 30);
    q!(f2, b, c, d, a, 12, 31);
    // Round 3: g = (3i + 5) mod 16.
    q!(f3, a, b, c, d, 5, 32);
    q!(f3, d, a, b, c, 8, 33);
    q!(f3, c, d, a, b, 11, 34);
    q!(f3, b, c, d, a, 14, 35);
    q!(f3, a, b, c, d, 1, 36);
    q!(f3, d, a, b, c, 4, 37);
    q!(f3, c, d, a, b, 7, 38);
    q!(f3, b, c, d, a, 10, 39);
    q!(f3, a, b, c, d, 13, 40);
    q!(f3, d, a, b, c, 0, 41);
    q!(f3, c, d, a, b, 3, 42);
    q!(f3, b, c, d, a, 6, 43);
    q!(f3, a, b, c, d, 9, 44);
    q!(f3, d, a, b, c, 12, 45);
    q!(f3, c, d, a, b, 15, 46);
    q!(f3, b, c, d, a, 2, 47);
    // Round 4: g = 7i mod 16.
    q!(f4, a, b, c, d, 0, 48);
    q!(f4, d, a, b, c, 7, 49);
    q!(f4, c, d, a, b, 14, 50);
    q!(f4, b, c, d, a, 5, 51);
    q!(f4, a, b, c, d, 12, 52);
    q!(f4, d, a, b, c, 3, 53);
    q!(f4, c, d, a, b, 10, 54);
    q!(f4, b, c, d, a, 1, 55);
    q!(f4, a, b, c, d, 8, 56);
    q!(f4, d, a, b, c, 15, 57);
    q!(f4, c, d, a, b, 6, 58);
    q!(f4, b, c, d, a, 13, 59);
    q!(f4, a, b, c, d, 4, 60);
    q!(f4, d, a, b, c, 11, 61);
    q!(f4, c, d, a, b, 2, 62);
    q!(f4, b, c, d, a, 9, 63);

    for l in 0..4 {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocks_hashed, md5};
    use sc_util::prop::{check, vec_of};

    #[test]
    fn four_lanes_equal_four_scalar_digests() {
        let a = b"".as_slice();
        let b = b"http://server-3.example.com/a".as_slice();
        let c = vec![0xabu8; 200];
        let d = vec![0x55u8; 64];
        let got = md5_x4([a, b, &c, &d]);
        assert_eq!(got, [md5(a), md5(b), md5(&c), md5(&d)]);
    }

    #[test]
    fn length_edge_cases_per_lane() {
        // Every lane combination around the padding boundaries: a lane
        // that finishes first must keep its snapshotted digest while the
        // stragglers keep compressing.
        let lens = [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 321];
        for w in lens.windows(4) {
            let data: Vec<Vec<u8>> = w
                .iter()
                .map(|&n| (0..n as u32).map(|i| (i * 17 % 251) as u8).collect())
                .collect();
            let got = md5_x4([&data[0], &data[1], &data[2], &data[3]]);
            for l in 0..4 {
                assert_eq!(got[l], md5(&data[l]), "lens {w:?} lane {l}");
            }
        }
    }

    #[test]
    fn prop_x4_equals_scalar() {
        check("md5_x4_equals_scalar", 128, |rng| {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|_| vec_of(rng, 0..300, |r| r.gen_range(0u32..=255) as u8))
                .collect();
            let got = md5_x4([&data[0], &data[1], &data[2], &data[3]]);
            for l in 0..4 {
                assert_eq!(got[l], md5(&data[l]));
            }
        });
    }

    #[test]
    fn block_accounting_counts_real_blocks_only() {
        // Four single-block URLs: 4 blocks, same as scalar.
        let before = blocks_hashed();
        let _ = md5_x4([b"a", b"bb", b"ccc", b"dddd"]);
        assert_eq!(blocks_hashed() - before, 4);

        // Mixed lengths: 1 + 1 + 2 + 4 real blocks; the lockstep
        // driver's dead-weight lanes must not inflate the count.
        let long = vec![0u8; 200];
        let before = blocks_hashed();
        let _ = md5_x4([b"a", b"bb", &[0u8; 64], &long]);
        assert_eq!(blocks_hashed() - before, 8);
    }
}
