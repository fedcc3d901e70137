//! Cache replacement policies, for Section III's caveat: "the results
//! are obtained under the LRU replacement algorithm … Different
//! replacement algorithms may give different results" (citing Cao &
//! Irani's GreedyDual-Size); `cargo run -p sc-bench --bin replacement`
//! measures it. [`crate::WebCache`] evicts the minimum priority under
//! every policy; they differ only in the priority each one assigns.

/// Which replacement policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Evict the least recently used (the baseline).
    Lru,
    /// Evict the least frequently used (recency tiebreak).
    Lfu,
    /// Evict the largest document first.
    Size,
    /// GreedyDual-Size with uniform cost: evict the lowest
    /// `H = L + 1/size`, inflating `L` to the evicted `H` (the
    /// hit-ratio-optimizing variant).
    GreedyDualSize,
}

impl Policy {
    /// All policies, for sweeps.
    pub fn all() -> [Policy; 4] {
        [Policy::Lru, Policy::Lfu, Policy::Size, Policy::GreedyDualSize]
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Lfu => "LFU",
            Policy::Size => "SIZE",
            Policy::GreedyDualSize => "GD-Size",
        }
    }

    /// The priority of an entry at the store's `seq`-th
    /// (re)prioritisation and its own `freq`-th access, `size` bytes,
    /// under GreedyDual inflation `inflation`. The lowest is evicted
    /// first; `seq` breaks ties.
    pub(crate) fn priority(self, seq: u64, freq: u64, size: u64, inflation: f64) -> f64 {
        match self {
            Policy::Lru => seq as f64,
            Policy::Lfu => freq as f64,
            // Largest evicted first = smallest priority for big docs.
            Policy::Size => -(size as f64),
            Policy::GreedyDualSize => inflation + 1.0 / size.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::tests::{filled, meta};
    use crate::{DocMeta, Lookup, WebCache, MAX_CACHEABLE_BYTES};
    use sc_util::prop::{check, vec_of};

    #[test]
    fn size_policy_evicts_largest() {
        let mut c = filled(Policy::Size, 1000, &[(1, 500), (2, 300), (3, 100)]);
        assert_eq!(c.store(4, meta(400, 0)), Some(vec![1]), "largest doc goes first");
        c.check_invariants();
    }

    #[test]
    fn lfu_protects_frequent_documents() {
        let mut c = filled(Policy::Lfu, 900, &[(1, 300), (2, 300), (3, 300)]);
        for _ in 0..5 {
            assert_eq!(c.lookup(&1, meta(300, 0)), Lookup::Hit);
        }
        assert!(c.touch(&3), "a touch counts as an access");
        assert_eq!(c.store(4, meta(300, 0)), Some(vec![2]), "2 has freq 1, must be the victim");
    }

    #[test]
    fn gds_prefers_evicting_big_cold_documents() {
        // H = 1/600 for doc 1, 1/10 for doc 2.
        let mut c = filled(Policy::GreedyDualSize, 1000, &[(1, 600), (2, 10)]);
        assert_eq!(c.store(3, meta(500, 0)), Some(vec![1]), "big doc has the lower H");
        c.check_invariants();
    }

    #[test]
    fn gds_inflation_lets_new_docs_beat_stale_ones() {
        // Both at H = 0.02. Evicting 1 (seq tiebreak) sets L = 0.02, so
        // doc 3 gets H = 0.02 + 1/60 ≈ 0.037 and outranks 2, which was
        // priced before the inflation: storing 4 evicts 2, not 3.
        let mut c = filled(Policy::GreedyDualSize, 150, &[(1, 50), (2, 50)]);
        assert_eq!(c.store(3, meta(60, 0)), Some(vec![1]));
        assert_eq!(c.store(4, meta(50, 0)), Some(vec![2]));
        c.check_invariants();
    }

    #[test]
    fn staleness_and_limits_behave_like_webcache() {
        let mut c = filled(Policy::GreedyDualSize, 1 << 20, &[(2, 100)]);
        assert!(c.store(1, meta(MAX_CACHEABLE_BYTES + 1, 0)).is_none());
        assert_eq!(c.lookup(&2, meta(100, 9)), Lookup::StaleHit);
        assert!(!c.contains(&2), "stale copy purged");
    }

    /// Reference store: `(key, meta, freq, (priority, seq))` entries in a
    /// plain `Vec`, each victim found by a linear scan for the minimum.
    struct Model {
        policy: Policy,
        seq: u64,
        inflation: f64,
        entries: Vec<(u32, DocMeta, u64, (f64, u64))>,
    }

    impl Model {
        /// Count an access to entry `i` and re-rank it.
        fn access(&mut self, i: usize) {
            self.seq += 1;
            let e = &mut self.entries[i];
            e.2 += 1;
            e.3 = (self.policy.priority(self.seq, e.2, e.1.size, self.inflation), self.seq);
        }

        fn store(&mut self, key: u32, meta: DocMeta, capacity: u64) -> Vec<u32> {
            self.entries.retain(|e| e.0 != key);
            let mut victims = Vec::new();
            while self.entries.iter().map(|e| e.1.size).sum::<u64>() + meta.size > capacity {
                let i = (0..self.entries.len())
                    .min_by(|&a, &b| {
                        let (x, y) = (self.entries[a].3, self.entries[b].3);
                        x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
                    })
                    .expect("over budget, so not empty");
                let (victim, _, _, (h, _)) = self.entries.remove(i);
                if self.policy == Policy::GreedyDualSize {
                    self.inflation = h;
                }
                victims.push(victim);
            }
            self.entries.push((key, meta, 0, (0.0, 0)));
            self.access(self.entries.len() - 1);
            victims
        }
    }

    /// Under every policy, random ops keep the store's invariants and
    /// match the linear-scan reference on every outcome and victim list.
    #[test]
    fn prop_invariants_all_policies() {
        check("policy_invariants_all_policies", 256, |rng| {
            let policy = Policy::all()[rng.gen_range(0usize..4)];
            let ops = vec_of(rng, 1..200, |r| {
                (r.gen_range(0u8..4), r.gen_range(0u32..20), r.gen_bool(0.2) as u64)
            });
            let mut c: WebCache<u32> = WebCache::with_policy(policy, 2_000);
            let mut m = Model { policy, seq: 0, inflation: 0.0, entries: Vec::new() };
            for (op, key, version) in ops {
                let doc = DocMeta { size: 50 + u64::from(key) * 97 % 350, last_modified: version };
                let pos = m.entries.iter().position(|e| e.0 == key);
                match op {
                    0 => assert_eq!(c.store(key, doc), Some(m.store(key, doc, 2_000))),
                    1 => {
                        let want = match pos {
                            Some(i) if m.entries[i].1 == doc => {
                                m.access(i);
                                Lookup::Hit
                            }
                            Some(i) => {
                                m.entries.remove(i);
                                Lookup::StaleHit
                            }
                            None => Lookup::Miss,
                        };
                        assert_eq!(c.lookup(&key, doc), want);
                    }
                    2 => assert_eq!(c.remove(&key), pos.map(|i| m.entries.remove(i)).is_some()),
                    _ => assert_eq!(c.touch(&key), pos.map(|i| m.access(i)).is_some()),
                }
                c.check_invariants();
            }
        });
    }

    /// Whatever the policy, a just-stored document is present and a
    /// hit immediately afterwards.
    #[test]
    fn prop_store_then_hit() {
        check("policy_store_then_hit", 128, |rng| {
            let policy = Policy::all()[rng.gen_range(0usize..4)];
            let size = rng.gen_range(1u64..1000);
            let mut c = filled(policy, 10_000, &[(7, size)]);
            assert_eq!(c.lookup(&7, meta(size, 0)), Lookup::Hit);
        });
    }

    /// splitmix64's finaliser over `h ^ x`: the fixed mixer the pin
    /// folds every outcome through.
    fn mix(h: u64, x: u64) -> u64 {
        let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Pins which documents each policy evicts, and when. A seeded 200
    /// k-op stream — lookup (storing on a miss or stale hit), store,
    /// remove, touch — runs over 50 k keys (80 % of picks from the
    /// hottest 500) with 1–8192 B documents in 3 versions and a 256 KiB
    /// cache; every `Lookup`, victim key and outcome is mixed into one
    /// u64. The constants were recorded from the intrusive-list LRU
    /// store and the BTreeMap-indexed policy store this one replaced.
    #[test]
    fn victim_stream_is_pinned_for_every_policy() {
        let pins = [
            (Policy::Lru, 0x59821da799ede376),
            (Policy::Lfu, 0xa95b1acd67e72dbc),
            (Policy::Size, 0xd5ccf273ef428ba2),
            (Policy::GreedyDualSize, 0xda7999813cb70a6f),
        ];
        for (policy, want) in pins {
            let mut c: WebCache<u64> = WebCache::with_policy(policy, 256 * 1024);
            let mut rng = sc_util::Rng::seed_from_u64(0x5eed_cace);
            let mut h = 0u64;
            for _ in 0..200_000 {
                let hot = rng.gen_bool(0.8);
                let key = rng.gen_range(0..if hot { 500u64 } else { 50_000 });
                let version = if rng.gen_bool(0.9) { 0 } else { rng.gen_range(1..3u64) };
                let doc = DocMeta { size: 1 + mix(key, version) % 8192, last_modified: version };
                let stored = match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let l = c.lookup(&key, doc);
                        h = mix(h, l as u64);
                        (l != Lookup::Hit).then(|| c.store(key, doc))
                    }
                    6 | 7 => Some(c.store(key, doc)),
                    8 => {
                        h = mix(h, 10 + c.remove(&key) as u64);
                        None
                    }
                    _ => {
                        h = mix(h, 20 + c.touch(&key) as u64);
                        None
                    }
                };
                h = match stored {
                    Some(Some(v)) => v.iter().fold(mix(h, 30 + v.len() as u64), |h, &k| mix(h, k)),
                    Some(None) => mix(h, u64::MAX),
                    None => h,
                };
            }
            let label = policy.label();
            assert_eq!(h, want, "{label} victims moved to {h:#018x}; if intended, re-record it");
        }
    }
}
