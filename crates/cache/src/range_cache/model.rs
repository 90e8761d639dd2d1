//! Model equivalence: the shard (slab + hash index + ordered index +
//! slot-id policy, entries as their own coverage) must answer exactly like
//! a naive reference that keeps a `BTreeMap` of entries, one set of
//! covered intervals with a materialised `[k, k⁺)` per resident entry, and
//! a per-shard LRU queue of keys — the shape of the shard this one
//! replaced. Compared after every operation: point verdicts, partial-scan
//! prefixes and continuation keys, the resident set (hence which entries
//! each operation evicted), byte accounting and counters.

use super::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

struct RefShard {
    /// Resident keys, least recently used first.
    lru: VecDeque<Bytes>,
    used: usize,
    capacity: usize,
}

struct Reference {
    boundaries: Vec<Bytes>,
    entries: BTreeMap<Bytes, Bytes>,
    /// Disjoint, non-touching covered intervals `[start, end)`, sorted.
    covered: Vec<(Bytes, Bytes)>,
    shards: Vec<RefShard>,
    evictions: u64,
}

impl Reference {
    fn new(capacity: usize, boundaries: Vec<Bytes>) -> Self {
        let n = boundaries.len() + 1;
        Reference {
            shards: (0..n)
                .map(|_| RefShard {
                    lru: VecDeque::new(),
                    used: 0,
                    capacity: capacity / n,
                })
                .collect(),
            boundaries,
            entries: BTreeMap::new(),
            covered: Vec::new(),
            evictions: 0,
        }
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        self.boundaries.iter().filter(|b| b.as_ref() <= key).count()
    }

    fn charge(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + ENTRY_OVERHEAD
    }

    fn interval_of(&self, key: &[u8]) -> Option<&(Bytes, Bytes)> {
        self.covered
            .iter()
            .find(|(s, e)| s.as_ref() <= key && key < e.as_ref())
    }

    fn cover(&mut self, mut start: Bytes, mut end: Bytes) {
        if start >= end {
            return;
        }
        self.covered.retain(|(s, e)| {
            let joins = *s <= end && *e >= start;
            if joins {
                start = start.clone().min(s.clone());
                end = end.clone().max(e.clone());
            }
            !joins
        });
        self.covered.push((start, end));
        self.covered.sort();
    }

    /// Removes `[key, key⁺)` from coverage.
    fn uncover(&mut self, key: &Bytes) {
        let Some(i) = self.covered.iter().position(|(s, e)| s <= key && key < e) else {
            return;
        };
        let (s, e) = self.covered.remove(i);
        if s < *key {
            self.covered.push((s, key.clone()));
        }
        let right = next_key(key);
        if right < e {
            self.covered.push((right, e));
        }
        self.covered.sort();
    }

    fn touch(&mut self, key: &Bytes) {
        let shard = self.shard_of(key);
        let lru = &mut self.shards[shard].lru;
        lru.retain(|k| k != key);
        lru.push_back(key.clone());
    }

    fn upsert(&mut self, key: Bytes, value: Bytes) {
        let shard = self.shard_of(&key);
        let charge = Self::charge(&key, &value);
        if let Some(old) = self.entries.insert(key.clone(), value) {
            self.shards[shard].used -= Self::charge(&key, &old);
        }
        self.shards[shard].used += charge;
        self.touch(&key);
    }

    fn evict(&mut self, shard: usize) {
        while self.shards[shard].used > self.shards[shard].capacity {
            let Some(victim) = self.shards[shard].lru.pop_front() else {
                break;
            };
            let value = self
                .entries
                .remove(&victim)
                .expect("queued key is resident");
            self.shards[shard].used -= Self::charge(&victim, &value);
            self.uncover(&victim);
            self.evictions += 1;
        }
    }

    fn insert_point(&mut self, key: Bytes, value: Bytes) {
        let shard = self.shard_of(&key);
        self.upsert(key.clone(), value);
        self.cover(key.clone(), next_key(&key));
        self.evict(shard);
    }

    fn insert_scan(&mut self, from: &Bytes, results: &[(Bytes, Bytes)], admitted: usize) {
        let admitted = admitted.min(results.len());
        if results.is_empty() {
            self.cover(from.clone(), next_key(from));
            return;
        }
        let mut seg_start = from.clone();
        let mut i = 0;
        while i < admitted {
            // One shard's share of the admitted prefix: entries, then the
            // part of the coverage inside the shard's key space, then that
            // shard's evictions.
            let shard = self.shard_of(&results[i].0);
            while i < admitted && self.shard_of(&results[i].0) == shard {
                self.upsert(results[i].0.clone(), results[i].1.clone());
                i += 1;
            }
            let seg_end = if i >= admitted {
                next_key(&results[admitted - 1].0)
            } else {
                self.boundaries[shard].clone()
            };
            let lower = match shard {
                0 => seg_start.clone(),
                s => seg_start.clone().max(self.boundaries[s - 1].clone()),
            };
            self.cover(lower, seg_end.clone());
            self.evict(shard);
            seg_start = seg_end;
        }
    }

    fn on_write(&mut self, key: &Bytes, value: Option<&Bytes>) {
        let shard = self.shard_of(key);
        match value {
            Some(v) => {
                if self.interval_of(key).is_some() {
                    self.upsert(key.clone(), v.clone());
                    self.evict(shard);
                }
            }
            None => {
                if let Some(old) = self.entries.remove(key) {
                    self.shards[shard].used -= Self::charge(key, &old);
                    self.shards[shard].lru.retain(|k| k != key);
                }
            }
        }
    }

    fn set_capacity(&mut self, capacity: usize) {
        for shard in 0..self.shards.len() {
            self.shards[shard].capacity = capacity / self.shards.len();
            self.evict(shard);
        }
    }

    fn get_point(&mut self, key: &Bytes) -> PointLookup {
        if let Some(v) = self.entries.get(key).cloned() {
            self.touch(key);
            return PointLookup::Hit(v);
        }
        if self.interval_of(key).is_some() {
            PointLookup::NegativeHit
        } else {
            PointLookup::Miss
        }
    }

    fn get_range_partial(
        &mut self,
        from: &Bytes,
        n: usize,
    ) -> (Vec<(Bytes, Bytes)>, Option<Bytes>) {
        if n == 0 {
            return (Vec::new(), None);
        }
        let Some((_, end)) = self.interval_of(from).cloned() else {
            return (Vec::new(), Some(from.clone()));
        };
        let out: Vec<(Bytes, Bytes)> = self
            .entries
            .range(from.clone()..end.clone())
            .take(n)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (k, _) in &out {
            self.touch(k);
        }
        let continuation = (out.len() < n).then_some(end);
        (out, continuation)
    }
}

/// The slot ids a shard's policy has been told are resident.
type Tracked = Arc<Mutex<BTreeSet<u32>>>;

/// Wraps a shard's policy and keeps the set of slot ids it has been told
/// are resident, so the test can hold it against the slab.
struct Audited {
    inner: LruPolicy<u32>,
    tracked: Tracked,
}

impl Policy<u32> for Audited {
    fn on_insert(&mut self, key: &u32) {
        assert!(
            self.tracked.lock().insert(*key),
            "slot {key} inserted twice"
        );
        self.inner.on_insert(key);
    }
    fn on_hit(&mut self, key: &u32) {
        assert!(
            self.tracked.lock().contains(key),
            "hit on untracked slot {key}"
        );
        self.inner.on_hit(key);
    }
    fn victim(&mut self) -> Option<u32> {
        let victim = self.inner.victim()?;
        assert!(self.tracked.lock().remove(&victim));
        Some(victim)
    }
    fn on_external_remove(&mut self, key: &u32) {
        assert!(
            self.tracked.lock().remove(key),
            "removed untracked slot {key}"
        );
        self.inner.on_external_remove(key);
    }
    fn name(&self) -> &'static str {
        "audited-lru"
    }
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("k{k:03}"))
}

#[derive(Debug, Clone)]
enum Op {
    InsertPoint(u16, u8),
    /// From key, length, percentage of the result admitted.
    InsertScan(u16, u8, u8),
    Write(u16, u8),
    Delete(u16),
    SetCapacity(u16),
    GetPoint(u16),
    GetRange(u16, u8),
}

const KEYS: u16 = 160;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::InsertPoint(k, v)),
        3 => (0..KEYS, 0u8..24, any::<u8>()).prop_map(|(k, n, a)| Op::InsertScan(k, n, a)),
        2 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::Write(k, v)),
        2 => (0..KEYS).prop_map(Op::Delete),
        1 => (200u16..6000).prop_map(Op::SetCapacity),
        4 => (0..KEYS).prop_map(Op::GetPoint),
        3 => (0..KEYS, 0u8..24).prop_map(|(k, n)| Op::GetRange(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn shard_matches_naive_reference(
        seed_keys in proptest::collection::btree_set(0..KEYS, 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..250),
        shards in 1usize..4,
        capacity in 300usize..6000,
    ) {
        // The database the scans read: a subset of the key space, so
        // scans see gaps and `from` is often absent.
        let mut db: BTreeMap<Bytes, Bytes> = seed_keys
            .into_iter()
            .map(|k| (key(k), Bytes::from(format!("seed{k}"))))
            .collect();
        let boundaries: Vec<Bytes> = match shards {
            1 => vec![],
            2 => vec![key(80)],
            _ => vec![key(50), key(110)],
        };
        let audits: Arc<Mutex<Vec<Tracked>>> = Arc::default();
        let for_factory = audits.clone();
        let cache = RangeCache::with_shards(
            capacity,
            boundaries.clone(),
            Box::new(move || {
                let tracked = Tracked::default();
                for_factory.lock().push(tracked.clone());
                Box::new(Audited { inner: LruPolicy::new(), tracked })
            }),
        );
        let mut reference = Reference::new(capacity, boundaries);

        for op in ops {
            match op.clone() {
                Op::InsertPoint(k, v) => {
                    // Only what a read could have returned is admitted.
                    let value = db.entry(key(k)).or_insert_with(|| Bytes::from(format!("p{v}"))).clone();
                    cache.insert_point(key(k), value.clone());
                    reference.insert_point(key(k), value);
                }
                Op::InsertScan(k, n, admit) => {
                    let from = key(k);
                    let results: Vec<(Bytes, Bytes)> = db
                        .range(from.clone()..)
                        .take(n as usize)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    let admitted = results.len() * (admit as usize % 101) / 100;
                    cache.insert_scan(&from, &results, admitted);
                    reference.insert_scan(&from, &results, admitted);
                }
                Op::Write(k, v) => {
                    let value = Bytes::from(format!("w{v}-{}", "x".repeat(v as usize % 40)));
                    db.insert(key(k), value.clone());
                    cache.on_write(&key(k), Some(&value));
                    reference.on_write(&key(k), Some(&value));
                }
                Op::Delete(k) => {
                    db.remove(&key(k));
                    cache.on_write(&key(k), None);
                    reference.on_write(&key(k), None);
                }
                Op::SetCapacity(c) => {
                    cache.set_capacity(c as usize);
                    reference.set_capacity(c as usize);
                }
                Op::GetPoint(k) => {
                    prop_assert_eq!(cache.get_point(&key(k)), reference.get_point(&key(k)), "{:?}", op);
                }
                Op::GetRange(k, n) => {
                    let got = cache.get_range_partial(&key(k), n as usize);
                    let want = reference.get_range_partial(&key(k), n as usize);
                    prop_assert_eq!(got, want, "{:?}", op);
                }
            }

            // Same residents (so every operation evicted the same
            // entries), same bytes, same counters; and each shard's four
            // structures agree with one another.
            cache.check_invariants();
            let mut resident: Vec<(Bytes, Bytes)> = Vec::new();
            for (shard, tracked) in cache.shards.iter().zip(audits.lock().iter()) {
                let shard = shard.lock();
                let in_slab: BTreeSet<u32> = shard.slab.iter().map(|(id, _)| id).collect();
                prop_assert_eq!(&in_slab, &*tracked.lock(), "policy and slab disagree after {:?}", op);
                resident.extend(shard.ordered.iter().map(|(k, &slot)| (k.clone(), shard.slab.get(slot).value.clone())));
            }
            let want: Vec<(Bytes, Bytes)> = reference.entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(resident, want, "resident sets differ after {:?}", op);
            prop_assert_eq!(cache.used(), reference.shards.iter().map(|s| s.used).sum::<usize>());
            prop_assert_eq!(cache.stats().evictions, reference.evictions, "evictions after {:?}", op);
        }

        // Every key's verdict and every partial scan, over the key space
        // and the keys between (`k…x` sorts between `k…` and its successor).
        for k in 0..KEYS {
            for probe in [key(k), Bytes::from(format!("k{k:03}x"))] {
                prop_assert_eq!(cache.get_point(&probe), reference.get_point(&probe), "point {:?}", probe);
                let got = cache.get_range_partial(&probe, 7);
                let want = reference.get_range_partial(&probe, 7);
                prop_assert_eq!(got, want, "range from {:?}", probe);
            }
        }
    }
}
