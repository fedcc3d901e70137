//! Distribution samplers used by the trace generator.
//!
//! Implemented here rather than pulled from `rand_distr` so the exact
//! parameterizations match the workload literature the paper cites:
//! Zipf-like popularity (Breslau et al.), bounded Pareto sizes with
//! α = 1.1 (Crovella & Bestavros, as used by the Wisconsin Proxy
//! Benchmark), and exponential inter-arrivals.

use sc_util::Rng;

/// Zipf-like sampler over ranks `0..n`: `P(rank i) ∝ 1/(i+1)^alpha`.
///
/// Uses a precomputed CDF and binary search; construction is O(n),
/// sampling O(log n).
///
/// The sampler also carries a **rank permutation** — a `rank → item`
/// map, identity at construction — so non-stationary workloads can
/// churn *which* item is popular without rebuilding the CDF.
/// [`Zipf::sample`] keeps returning raw ranks (frozen popularity
/// order, the historical behavior); [`Zipf::sample_item`] maps the
/// drawn rank through the permutation, and [`Zipf::churn`] swaps
/// entries of the map in place (the diurnal-drift scenario churns it a
/// little every virtual period).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `map[rank] = item`; identity until [`Zipf::churn`] runs.
    map: Vec<u32>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `alpha` (web popularity is
    /// typically 0.6–0.9).
    ///
    /// # Panics
    /// If `n == 0` or `alpha` is not finite and non-negative.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(n <= u32::MAX as usize, "Zipf item space too large");
        assert!(alpha.is_finite() && alpha >= 0.0, "bad Zipf exponent {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let map = (0..n as u32).collect();
        Zipf { cdf, map }
    }

    /// Draw a rank in `0..n` (0 = most popular). Ignores the
    /// permutation — rank order is fixed at construction.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen_f64();
        // partition_point: first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draw an item in `0..n`: a rank drawn from the Zipf law, mapped
    /// through the current rank permutation. With the identity map this
    /// is exactly [`Zipf::sample`].
    pub fn sample_item(&self, rng: &mut Rng) -> usize {
        self.map[self.sample(rng)] as usize
    }

    /// Canned drift step: `swaps` seeded random transpositions of the
    /// rank map. Each swap trades the popularity of two items, so a
    /// small `swaps` per period gives gradual rank churn and
    /// `swaps ≈ n` approaches a full reshuffle.
    pub fn churn(&mut self, rng: &mut Rng, swaps: usize) {
        let n = self.map.len();
        if n < 2 {
            return;
        }
        for _ in 0..swaps {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            self.map.swap(a, b);
        }
    }
}

/// Bounded Pareto sampler for document body sizes.
///
/// `P(X > x) ∝ x^{-alpha}` truncated to `[min, max]`; the paper's
/// benchmark uses α = 1.1 with a mean around 8–13 KB.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    alpha: f64,
    min: f64,
    max: f64,
}

impl BoundedPareto {
    /// Sampler on `[min, max]` with tail exponent `alpha`.
    ///
    /// # Panics
    /// If bounds are not `0 < min < max` or `alpha <= 0`.
    pub fn new(alpha: f64, min: u64, max: u64) -> Self {
        assert!(alpha > 0.0, "Pareto alpha must be positive");
        assert!(min > 0 && min < max, "bad Pareto bounds [{min}, {max}]");
        BoundedPareto {
            alpha,
            min: min as f64,
            max: max as f64,
        }
    }

    /// Draw a size in bytes (inverse-CDF method).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let (l, h, a) = (self.min, self.max, self.alpha);
        let la = l.powf(-a);
        let ha = h.powf(-a);
        let x = (la - u * (la - ha)).powf(-1.0 / a);
        x.round().clamp(l, h) as u64
    }
}

/// Exponential inter-arrival gap in milliseconds with the given mean.
pub fn exp_gap_ms(rng: &mut Rng, mean_ms: f64) -> u64 {
    assert!(mean_ms > 0.0);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean_ms * u.ln()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1000, 0.8);
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 beats rank 10");
        assert!(counts[0] > counts[999] * 5, "head far above tail");
        // Ratio of rank0 to rank1 frequencies should be near 2^0.8 ≈ 1.74.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.4..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::seed_from_u64(2);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn zipf_single_item() {
        let z = Zipf::new(1, 0.8);
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    /// Chi-square goodness-of-fit for the permuted sampler: after a
    /// seeded churn of the rank map, the *item* histogram
    /// must match the Zipf law pushed through that permutation. 49
    /// degrees of freedom; the 99.9th percentile of χ²₄₉ is ≈ 85.4, so
    /// a statistic under 90 accepts with huge margin while any broken
    /// mapping (off-by-one, stale map, uniform leak) lands in the
    /// hundreds.
    #[test]
    fn permuted_items_fit_the_zipf_law_chi_square() {
        const N: usize = 50;
        const DRAWS: u64 = 200_000;
        let mut z = Zipf::new(N, 0.8);
        let mut rng = Rng::seed_from_u64(0xD81F7);
        // Seeded swaps, independent of the sampling rng: enough of them
        // that almost every rank moves.
        z.churn(&mut Rng::seed_from_u64(0xFACADE), 4 * N);
        let perm = z.map.clone();
        assert_ne!(perm, (0..N as u32).collect::<Vec<_>>(), "churn did move ranks");

        let mut counts = vec![0u64; N];
        for _ in 0..DRAWS {
            counts[z.sample_item(&mut rng)] += 1;
        }
        // Expected probability of *item* perm[rank] is the law at rank.
        let harmonic: f64 = (0..N).map(|i| 1.0 / ((i + 1) as f64).powf(0.8)).sum();
        let mut chi2 = 0.0;
        for (rank, &item) in perm.iter().enumerate() {
            let p = (1.0 / ((rank + 1) as f64).powf(0.8)) / harmonic;
            let expected = DRAWS as f64 * p;
            let diff = counts[item as usize] as f64 - expected;
            chi2 += diff * diff / expected;
        }
        assert!(chi2 < 90.0, "chi-square statistic {chi2:.1} rejects the permuted fit");
        // And the permuted head really did move: the most-drawn item is
        // whatever the map put at rank 0.
        let argmax = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i as u32);
        assert_eq!(argmax, Some(perm[0]), "rank-0 item dominates after permutation");
    }

    #[test]
    fn identity_map_makes_sample_item_match_sample_law() {
        let z = Zipf::new(100, 0.8);
        assert_eq!(z.map, (0..100).collect::<Vec<u32>>());
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample_item(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "identity map keeps rank order");
    }

    #[test]
    fn churn_preserves_the_permutation_invariant() {
        let mut z = Zipf::new(257, 0.7);
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..10 {
            z.churn(&mut rng, 64);
        }
        let mut sorted = z.map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<u32>>());
    }

    #[test]
    fn pareto_within_bounds_and_heavy_tailed() {
        let p = BoundedPareto::new(1.1, 1024, 8 * 1024 * 1024);
        let mut rng = Rng::seed_from_u64(4);
        let samples: Vec<u64> = (0..50_000).map(|_| p.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (1024..=8 * 1024 * 1024).contains(&s)));
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // α=1.1 on [1 KB, 8 MB] gives a mean around 8–13 KB.
        assert!((4_000.0..40_000.0).contains(&mean), "mean {mean}");
        let median = {
            let mut s = samples.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(
            (mean as u64) > median * 2,
            "heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    #[should_panic(expected = "bad Pareto bounds")]
    fn pareto_rejects_inverted_bounds() {
        BoundedPareto::new(1.1, 10, 10);
    }

    #[test]
    fn exp_gap_mean() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| exp_gap_ms(&mut rng, 100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
    }
}
