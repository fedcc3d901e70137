//! [`WebCache`] under its default policy, LRU: every eviction takes the
//! least recently used document, and a naive most-recent-first list
//! predicts every outcome and victim list.

use crate::web::tests::{filled, meta};
use crate::{Lookup, Policy::Lru, WebCache};
use sc_util::prop::{check, vec_of};

#[test]
fn evicts_least_recently_used() {
    let mut c = filled(Lru, 30, &[(1, 10), (2, 10), (3, 10)]);
    c.lookup(&1, meta(10, 0)); // 1 is now MRU, 2 is LRU
    assert_eq!(c.store(4, meta(10, 0)), Some(vec![2]));
    assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
    c.check_invariants();
}

#[test]
fn oversized_rejected() {
    let mut c: WebCache<u32> = WebCache::new(10);
    assert_eq!(c.store(1, meta(11, 0)), None);
    assert!(c.is_empty());
}

#[test]
fn replace_same_key_adjusts_bytes() {
    let mut c = filled(Lru, 100, &[(1, 40)]);
    assert_eq!(c.store(1, meta(70, 0)), Some(vec![]));
    assert_eq!((c.len(), c.peek(&1)), (1, Some(meta(70, 0))));
    c.check_invariants();
    // 70 bytes held, not 110: 30 more fit, one more byte evicts key 1.
    assert_eq!(c.store(2, meta(30, 0)), Some(vec![]));
    assert_eq!(c.store(3, meta(1, 0)), Some(vec![1]));
}

#[test]
fn replace_grow_can_evict_others() {
    let mut c = filled(Lru, 100, &[(1, 50), (2, 40)]);
    // Growing key 2 to 90 must evict key 1.
    assert_eq!(c.store(2, meta(90, 0)), Some(vec![1]));
    c.check_invariants();
}

#[test]
fn multi_eviction_for_one_big_insert() {
    let docs: Vec<(u32, u64)> = (0..10).map(|i| (i, 10)).collect();
    let mut c = filled(Lru, 100, &docs);
    assert_eq!(c.store(99, meta(95, 0)), Some((0..10).collect()), "evicts everything but itself");
    assert_eq!(c.len(), 1);
    c.check_invariants();
}

#[test]
fn touch_promotes_without_reading() {
    let mut c = filled(Lru, 20, &[(1, 10), (2, 10)]);
    assert!(c.touch(&1) && !c.touch(&999));
    assert_eq!(c.store(3, meta(10, 0)), Some(vec![2]), "touched key 1 survived");
}

#[test]
fn peek_does_not_promote() {
    let mut c = filled(Lru, 20, &[(1, 10), (2, 10)]);
    assert_eq!(c.peek(&1), Some(meta(10, 0)));
    assert_eq!(c.store(3, meta(10, 0)), Some(vec![1]), "peek left key 1 the LRU");
}

/// The recency order, read one victim at a time: each new document
/// evicts the current least recently used one.
#[test]
fn iter_mru_order() {
    let docs: Vec<(u32, u64)> = (0..5).map(|i| (i, 10)).collect();
    let mut c = filled(Lru, 50, &docs);
    c.lookup(&0, meta(10, 0));
    let victims: Vec<u32> = (10..15).flat_map(|k| c.store(k, meta(10, 0)).unwrap()).collect();
    assert_eq!(victims, vec![1, 2, 3, 4, 0], "least recently used first");
}

/// Random op sequences keep every structural invariant and match a
/// naive most-recent-first list on every outcome and victim list.
#[test]
fn prop_matches_naive_model() {
    check("lru_matches_naive_model", 256, |rng| {
        let ops = vec_of(rng, 1..300, |r| {
            (r.gen_range(0u8..4), r.gen_range(0u32..30), r.gen_range(1u64..40))
        });
        let mut c = filled(Lru, 200, &[]);
        // Naive model: (key, size), most recently used first.
        let mut model: Vec<(u32, u64)> = Vec::new();
        for (op, key, size) in ops {
            let pos = model.iter().position(|&(k, _)| k == key);
            let mut held = pos.map(|p| model.remove(p));
            match op {
                0 => {
                    held = Some((key, size));
                    let mut victims = Vec::new();
                    while model.iter().map(|&(_, s)| s).sum::<u64>() + size > 200 {
                        victims.push(model.pop().unwrap().0);
                    }
                    assert_eq!(c.store(key, meta(size, 0)), Some(victims));
                }
                1 => {
                    let want = match held {
                        None => Lookup::Miss,
                        Some((_, s)) if s == size => Lookup::Hit,
                        Some(_) => Lookup::StaleHit,
                    };
                    held = held.filter(|_| want == Lookup::Hit);
                    assert_eq!(c.lookup(&key, meta(size, 0)), want);
                }
                2 => assert_eq!(c.remove(&key), held.take().is_some()),
                _ => assert_eq!(c.touch(&key), held.is_some()),
            }
            // Whatever is still held was just used: it goes in front.
            if let Some(e) = held {
                model.insert(0, e);
            }
            c.check_invariants();
            assert_eq!(c.len(), model.len());
        }
    });
}
