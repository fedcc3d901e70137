//! A small, fast, seedable pseudo-random generator.
//!
//! The workspace needs reproducible randomness for trace generation,
//! synthetic benchmark clients, and property tests. It does **not** need
//! cryptographic strength, so this is xorshift128+ (Vigna 2014) seeded
//! through splitmix64 — the same construction the reference Xoroshiro
//! family recommends for turning a 64-bit seed into full generator state.
//!
//! The API deliberately mirrors the subset of `rand`'s `Rng` the repo
//! used, to keep call sites mechanical: `seed_from_u64`, `gen_range`,
//! `gen_bool`, `gen_f64`, `shuffle`.

/// Seeded xorshift128+ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s0: u64,
    s1: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output function: `x` plus the golden-ratio increment,
/// then a full-avalanche finalizer. Deterministic and endian-free; the
/// router's fanout stagger slots, the scenario engine's per-phase seeds
/// and document sizes, and [`Rng`] seeding all mix through it.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    z
}

impl Rng {
    /// Build a generator from a 64-bit seed. Equal seeds yield equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        // splitmix64 never maps two states to (0, 0) for a single seed
        // stream, but guard anyway: all-zero state would be a fixed point.
        if s0 == 0 && s1 == 0 {
            Rng { s0: 1, s1: 2 }
        } else {
            Rng { s0, s1 }
        }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from `range`, which may be any of the integer or
    /// float range forms the call sites use: `lo..hi`, `lo..=hi`.
    ///
    /// # Panics
    /// If the range is empty.
    #[inline]
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift reduction (Lemire); the bias for the
                // spans used here (< 2^32) is far below observability.
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + r as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (hi - lo) as u64 + 1;
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + r as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + r as i128) as $t
            }
        }
    )*};
}

impl_signed_range!(i32 as u32, i64 as u64, isize as usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let a: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&a));
            let b: u32 = rng.gen_range(0..=5);
            assert!(b <= 5);
            let c = rng.gen_range(-4i64..9);
            assert!((-4..9).contains(&c));
            let d = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&d));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[rng.gen_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b} far from uniform");
        }
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = Rng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((27_000..33_000).contains(&hits), "{hits}");
        let mut rng = Rng::seed_from_u64(5);
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(6);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn extreme_inclusive_range() {
        let mut rng = Rng::seed_from_u64(7);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let v: u8 = rng.gen_range(9..=9);
        assert_eq!(v, 9);
    }
}
