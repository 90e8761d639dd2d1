//! Property tests for the cache substrate.
//!
//! The central soundness property: whatever sequence of scans, writes,
//! deletes, capacity changes and evictions occurs, the range cache must
//! never return an answer that disagrees with the ground-truth database
//! state. Misses are always allowed; wrong hits never are.

use adcache_cache::{PointLookup, RangeCache, RangeLookup};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Db = BTreeMap<Bytes, Bytes>;

fn key(k: u16) -> Bytes {
    Bytes::from(format!("k{k:05}"))
}

fn scan_db(db: &Db, from: &Bytes, n: usize) -> Vec<(Bytes, Bytes)> {
    db.range(from.clone()..)
        .take(n)
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Run a scan against the DB and admit a prefix into the cache.
    ScanAndAdmit(u16, u8, u8),
    /// Query the cache for a range and check against ground truth.
    CheckRange(u16, u8),
    /// Query the cache for a point and check against ground truth.
    CheckPoint(u16),
    /// Write through: mutate DB and notify the cache.
    Write(u16, u8),
    /// Delete through: mutate DB and notify the cache.
    Delete(u16),
    /// Shrink or grow the cache budget.
    Resize(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), 1u8..40, any::<u8>()).prop_map(|(k, n, a)| Op::ScanAndAdmit(k % 300, n, a)),
        3 => (any::<u16>(), 1u8..40).prop_map(|(k, n)| Op::CheckRange(k % 300, n)),
        3 => any::<u16>().prop_map(|k| Op::CheckPoint(k % 300)),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Write(k % 300, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 300)),
        1 => (1000u32..100_000).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn range_cache_never_serves_stale_data(
        seed_keys in proptest::collection::btree_set(any::<u16>(), 0..200),
        ops in proptest::collection::vec(op_strategy(), 1..300),
        shards in 1usize..4,
    ) {
        // Ground truth DB.
        let mut db: Db = seed_keys
            .into_iter()
            .map(|k| (key(k % 300), Bytes::from(format!("v{k}"))))
            .collect();

        let boundaries: Vec<Bytes> = match shards {
            1 => vec![],
            2 => vec![key(150)],
            _ => vec![key(100), key(200)],
        };
        let cache = RangeCache::with_shards(
            50_000,
            boundaries,
            Box::new(|| Box::new(adcache_cache::SlotLruPolicy::new())),
        );

        for op in ops {
            match op {
                Op::ScanAndAdmit(k, n, admit_frac) => {
                    let from = key(k);
                    let results = scan_db(&db, &from, n as usize);
                    let admitted = (results.len() * (admit_frac as usize % 101)) / 100;
                    cache.insert_scan(&from, &results, admitted.max(if results.is_empty() { 0 } else { 1 }));
                }
                Op::CheckRange(k, n) => {
                    let from = key(k);
                    if let RangeLookup::Hit(got) = cache.get_range(&from, n as usize) {
                        let want = scan_db(&db, &from, n as usize);
                        // A hit must return exactly the ground truth prefix.
                        prop_assert_eq!(&got, &want, "range hit diverged at k={} n={}", k, n);
                    }
                }
                Op::CheckPoint(k) => {
                    let probe = key(k);
                    match cache.get_point(&probe) {
                        PointLookup::Hit(v) => {
                            prop_assert_eq!(Some(&v), db.get(&probe), "stale point hit k={}", k);
                        }
                        PointLookup::NegativeHit => {
                            prop_assert!(!db.contains_key(&probe), "false negative-hit k={}", k);
                        }
                        PointLookup::Miss => {}
                    }
                }
                Op::Write(k, v) => {
                    let val = Bytes::from(format!("w{v}"));
                    db.insert(key(k), val.clone());
                    cache.on_write(&key(k), Some(&val));
                }
                Op::Delete(k) => {
                    db.remove(&key(k));
                    cache.on_write(&key(k), None);
                }
                Op::Resize(cap) => {
                    cache.set_capacity(cap as usize);
                }
            }
            cache.check_invariants();
        }

        // Exhaustive final check over the whole key space.
        for k in 0..300u16 {
            let probe = key(k);
            match cache.get_point(&probe) {
                PointLookup::Hit(v) => prop_assert_eq!(Some(&v), db.get(&probe)),
                PointLookup::NegativeHit => prop_assert!(!db.contains_key(&probe)),
                PointLookup::Miss => {}
            }
            if let RangeLookup::Hit(got) = cache.get_range(&probe, 10) {
                prop_assert_eq!(got, scan_db(&db, &probe, 10));
            }
        }
    }

    /// Partial scan admission never admits more than the scan returned,
    /// never truncates a scan short enough to fit under `a`, and is
    /// monotone: longer scans and larger `b` admit at least as much.
    #[test]
    fn scan_admission_is_bounded_and_monotone(
        a in 0usize..64,
        b in 0.0f64..1.5,
        b2_bump in 0.0f64..1.0,
        l in 0usize..512,
    ) {
        use adcache_cache::ScanAdmission;
        let policy = ScanAdmission::new(a, b);
        let got = policy.admitted_len(l);
        prop_assert!(got <= l, "admitted {} of a {}-entry scan", got, l);
        prop_assert!(got >= l.min(policy.a), "short scans admit whole");
        prop_assert!(
            policy.admitted_len(l + 1) >= got,
            "one more entry must never shrink the admitted prefix"
        );
        let greedier = ScanAdmission::new(a, b + b2_bump);
        prop_assert!(
            greedier.admitted_len(l) >= got,
            "larger b must admit at least as much"
        );
    }

    /// Frequency admission is monotone in the threshold: on the *same*
    /// key stream, everything a stricter policy admits, a looser policy
    /// admits too (the sketch state is identical, only the bar moves).
    #[test]
    fn point_admission_is_monotone_in_threshold(
        keys in proptest::collection::vec(any::<u16>(), 1..600),
        loose in 0.0f64..0.05,
        bump in 0.0f64..0.05,
    ) {
        use adcache_cache::PointAdmission;
        // Guard off: both sketches must evolve identically so the only
        // difference between the two policies is the threshold.
        let mut lo = PointAdmission::with_guard(1 << 10, loose, false);
        let mut hi = PointAdmission::with_guard(1 << 10, loose + bump, false);
        for k in &keys {
            let kb = k.to_le_bytes();
            let lo_admit = lo.admit(&kb);
            let hi_admit = hi.admit(&kb);
            prop_assert!(
                lo_admit || !hi_admit,
                "strict admitted a key the loose policy rejected"
            );
        }
        let (lo_in, lo_out) = lo.counters();
        let (hi_in, hi_out) = hi.counters();
        prop_assert!(lo_in >= hi_in);
        prop_assert_eq!(lo_in + lo_out, hi_in + hi_out);
        prop_assert_eq!(lo_in + lo_out, keys.len() as u64);
    }

    #[test]
    fn sketch_estimate_upper_bounds_truth(
        keys in proptest::collection::vec(any::<u8>(), 1..500,)
    ) {
        use adcache_cache::CountMinSketch;
        // Disable decay to test the pure CMS overcount property (up to
        // the counters' clamp).
        let mut s = CountMinSketch::new(512, 4, u32::MAX - 1);
        let mut truth: BTreeMap<u8, u32> = BTreeMap::new();
        for k in keys {
            s.increment(&[k]);
            *truth.entry(k).or_insert(0) += 1;
        }
        for (k, count) in truth {
            prop_assert!(s.estimate(&[k]) >= count.min(15));
        }
    }
}

/// Reference-model check: `SlotLruPolicy` must agree exactly with a
/// simple `VecDeque`-based LRU under arbitrary access traces over a small
/// set of ids, each of which leaves and comes back many times, as the range
/// cache's slot ids do.
mod lru_reference {
    use adcache_cache::{Policy, SlotLruPolicy};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    struct RefLru {
        order: VecDeque<u32>, // front = LRU
    }

    impl RefLru {
        fn remove(&mut self, k: u32) {
            self.order.retain(|&x| x != k);
        }

        fn touch(&mut self, k: u32) {
            self.remove(k);
            self.order.push_back(k);
        }
    }

    proptest! {
        #[test]
        fn lru_matches_reference(ops in proptest::collection::vec((any::<u32>(), 0u8..4), 1..400)) {
            let mut p = SlotLruPolicy::new();
            let mut reference = RefLru { order: VecDeque::new() };
            for (k, action) in ops {
                let k = k % 32;
                let resident = reference.order.contains(&k);
                match action {
                    0 if !resident => {
                        p.on_insert(k, u64::from(k));
                        reference.touch(k);
                    }
                    1 if resident => {
                        p.on_hit(k);
                        reference.touch(k);
                    }
                    2 if resident => {
                        prop_assert_eq!(p.victim(), reference.order.pop_front());
                    }
                    3 if resident => {
                        p.on_external_remove(k);
                        reference.remove(k);
                    }
                    _ => {}
                }
            }
            // Full drain agrees.
            while let Some(expect) = reference.order.pop_front() {
                prop_assert_eq!(p.victim(), Some(expect));
            }
            prop_assert_eq!(p.victim(), None);
        }
    }
}

/// Reference-model check for `ChargedCache`, the block and KV caches' LRU:
/// under mixed charges, same-key re-inserts, hits, removals, sweeps and
/// budget changes it must return exactly the entries a `VecDeque` LRU
/// evicts, in the same order, and keep the charge within the budget.
mod charged_cache_reference {
    use adcache_cache::ChargedCache;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, usize),
        Get(u8),
        Remove(u8),
        /// Keeps the keys whose bit is set.
        Retain(u16),
        SetCapacity(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (any::<u8>(), 1usize..120).prop_map(|(k, c)| Op::Insert(k % 16, c)),
            4 => any::<u8>().prop_map(|k| Op::Get(k % 16)),
            1 => any::<u8>().prop_map(|k| Op::Remove(k % 16)),
            1 => any::<u16>().prop_map(Op::Retain),
            1 => (0usize..600).prop_map(Op::SetCapacity),
        ]
    }

    /// `(key, value, charge)`, least recently used first.
    struct Reference {
        order: VecDeque<(u8, u64, usize)>,
        capacity: usize,
    }

    impl Reference {
        fn used(&self) -> usize {
            self.order.iter().map(|e| e.2).sum()
        }

        fn take(&mut self, k: u8) -> Option<(u8, u64, usize)> {
            let at = self.order.iter().position(|e| e.0 == k)?;
            self.order.remove(at)
        }

        fn evict(&mut self, evicted: &mut Vec<(u8, u64)>) {
            while self.used() > self.capacity {
                let (k, v, _) = self.order.pop_front().unwrap();
                evicted.push((k, v));
            }
        }
    }

    proptest! {
        #[test]
        fn charged_cache_matches_reference(
            ops in proptest::collection::vec(op(), 1..300),
            cap in 0usize..600,
        ) {
            let mut c: ChargedCache<u8, u64> = ChargedCache::new(cap);
            let mut reference = Reference { order: VecDeque::new(), capacity: cap };
            for (step, op) in ops.into_iter().enumerate() {
                let value = step as u64;
                match op {
                    Op::Insert(k, charge) => {
                        let mut expect = Vec::new();
                        if charge > reference.capacity {
                            expect.push((k, value));
                        } else {
                            if let Some((_, old, _)) = reference.take(k) {
                                expect.push((k, old));
                            }
                            reference.order.push_back((k, value, charge));
                            reference.evict(&mut expect);
                        }
                        prop_assert_eq!(c.insert(k, value, charge), expect);
                    }
                    Op::Get(k) => {
                        let hit = reference.take(k);
                        if let Some(e) = hit {
                            reference.order.push_back(e);
                        }
                        prop_assert_eq!(c.get(&k).copied(), hit.map(|e| e.1));
                    }
                    Op::Remove(k) => {
                        let gone = reference.take(k).map(|e| e.1);
                        prop_assert_eq!(c.remove(&k), gone);
                    }
                    Op::Retain(mask) => {
                        let keep = |k: &u8| mask & (1 << k) != 0;
                        let before = reference.order.len();
                        reference.order.retain(|e| keep(&e.0));
                        prop_assert_eq!(c.retain(keep), before - reference.order.len());
                    }
                    Op::SetCapacity(capacity) => {
                        reference.capacity = capacity;
                        let mut expect = Vec::new();
                        reference.evict(&mut expect);
                        prop_assert_eq!(c.set_capacity(capacity), expect);
                    }
                }
                prop_assert_eq!(c.used(), reference.used());
                prop_assert_eq!(c.len(), reference.order.len());
                prop_assert!(c.used() <= c.capacity(), "used {} > cap {}", c.used(), c.capacity());
            }
            // The recency order agrees to the last entry.
            let drained: Vec<(u8, u64)> = c.set_capacity(0);
            let expect: Vec<(u8, u64)> = reference.order.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(drained, expect);
            prop_assert!(c.is_empty());
        }
    }
}
