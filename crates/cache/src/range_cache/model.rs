//! Model equivalence: the shard (slab + hash index + ordered index +
//! slot-id policy) must answer exactly like a naive reference that keeps a
//! `BTreeMap` of entries and, per shard, a list of covered intervals and an
//! LRU queue of keys, and applies the coverage rules of the module header
//! by linear search: a resident entry covers its own key, an eviction
//! splits the interval it falls in and keeps a side only if a resident key
//! lies in it, and past the cap every interval without a resident key is
//! forgotten — intervals, never entries. Compared after every operation:
//! point verdicts, partial-scan prefixes and continuation keys, the
//! resident set (hence which entries each operation evicted), byte
//! accounting and counters. Two properties ride on the same operations:
//! only the policy, a delete or `clear` removes an entry, and the segment
//! map stays within the resident entries plus the negatives made so far.

use super::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

struct RefShard {
    /// Resident keys, least recently used first.
    lru: VecDeque<Bytes>,
    /// What scans and deletes covered inside this shard's key space:
    /// disjoint, non-touching intervals `[start, end)`, sorted.
    covered: Vec<(Bytes, Bytes)>,
    used: usize,
    capacity: usize,
}

struct Reference {
    boundaries: Vec<Bytes>,
    entries: BTreeMap<Bytes, Bytes>,
    shards: Vec<RefShard>,
    evictions: u64,
    /// Entries removed by deletes and `clear`.
    invalidations: u64,
    /// Intervals forgotten past the cap.
    forgotten: u64,
}

impl Reference {
    fn new(capacity: usize, boundaries: Vec<Bytes>) -> Self {
        let n = boundaries.len() + 1;
        Reference {
            shards: (0..n)
                .map(|_| RefShard {
                    lru: VecDeque::new(),
                    covered: Vec::new(),
                    used: 0,
                    capacity: capacity / n,
                })
                .collect(),
            boundaries,
            entries: BTreeMap::new(),
            evictions: 0,
            invalidations: 0,
            forgotten: 0,
        }
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        self.boundaries.iter().filter(|b| b.as_ref() <= key).count()
    }

    fn charge(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + ENTRY_OVERHEAD
    }

    fn interval_of(&self, key: &[u8]) -> Option<&(Bytes, Bytes)> {
        self.shards[self.shard_of(key)]
            .covered
            .iter()
            .find(|(s, e)| s.as_ref() <= key && key < e.as_ref())
    }

    fn holds_resident(&self, start: &Bytes, end: &Bytes) -> bool {
        start < end
            && self
                .entries
                .range(start.clone()..end.clone())
                .next()
                .is_some()
    }

    /// Covers `[start, end)`, which lies inside `shard`'s key space.
    fn cover(&mut self, shard: usize, mut start: Bytes, mut end: Bytes) {
        if start >= end {
            return;
        }
        let covered = &mut self.shards[shard].covered;
        covered.retain(|(s, e)| {
            let joins = *s <= end && *e >= start;
            if joins {
                start = start.clone().min(s.clone());
                end = end.clone().max(e.clone());
            }
            !joins
        });
        covered.push((start, end));
        covered.sort();
        self.forget_past_cap(shard);
    }

    /// Past the cap, forgets every interval no resident key lies in.
    fn forget_past_cap(&mut self, shard: usize) {
        let cap = self.shards[shard].capacity / ENTRY_OVERHEAD;
        if self.shards[shard].covered.len() <= cap {
            return;
        }
        let covered = std::mem::take(&mut self.shards[shard].covered);
        let before = covered.len();
        let kept: Vec<_> = covered
            .into_iter()
            .filter(|(s, e)| self.holds_resident(s, e))
            .collect();
        self.forgotten += (before - kept.len()) as u64;
        self.shards[shard].covered = kept;
    }

    /// `key` was evicted: splits the interval around it, keeping a side
    /// only if a resident key lies in it.
    fn uncover(&mut self, shard: usize, key: &Bytes) {
        let covered = &self.shards[shard].covered;
        let Some(i) = covered.iter().position(|(s, e)| s <= key && key < e) else {
            return;
        };
        let (s, e) = self.shards[shard].covered.remove(i);
        let right = next_key(key);
        for (s, e) in [(s, key.clone()), (right, e)] {
            if self.holds_resident(&s, &e) {
                self.shards[shard].covered.push((s, e));
            }
        }
        self.shards[shard].covered.sort();
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
            self.uncover(shard, &victim);
            self.evictions += 1;
        }
        self.forget_past_cap(shard);
    }

    fn insert_point(&mut self, key: Bytes, value: Bytes) {
        let shard = self.shard_of(&key);
        self.upsert(key, value);
        self.evict(shard);
    }

    fn insert_scan(&mut self, from: &Bytes, results: &[(Bytes, Bytes)], admitted: usize) {
        let admitted = admitted.min(results.len());
        if results.is_empty() {
            self.cover(self.shard_of(from), from.clone(), next_key(from));
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
            // `from` may lie in an earlier shard than the first result.
            let lower = match shard {
                0 => seg_start,
                s => seg_start.max(self.boundaries[s - 1].clone()),
            };
            self.cover(shard, lower, seg_end.clone());
            self.evict(shard);
            seg_start = seg_end;
        }
    }

    fn on_write(&mut self, key: &Bytes, value: Option<&Bytes>) {
        let shard = self.shard_of(key);
        match value {
            Some(v) => {
                if self.entries.contains_key(key) || self.interval_of(key).is_some() {
                    self.upsert(key.clone(), v.clone());
                    self.evict(shard);
                }
            }
            None => {
                if let Some(old) = self.entries.remove(key) {
                    self.shards[shard].used -= Self::charge(key, &old);
                    self.shards[shard].lru.retain(|k| k != key);
                    self.invalidations += 1;
                    // The key stays covered, now as absent.
                    if self.interval_of(key).is_none() {
                        self.cover(shard, key.clone(), next_key(key));
                    }
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

    fn clear(&mut self) {
        self.invalidations += self.entries.len() as u64;
        self.entries.clear();
        for shard in &mut self.shards {
            shard.lru.clear();
            shard.covered.clear();
            shard.used = 0;
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
        let mut out: Vec<(Bytes, Bytes)> = Vec::new();
        let mut current = from.clone();
        // Coverage is contiguous while each step starts inside an interval
        // or on a resident key.
        let continuation = loop {
            if out.len() >= n {
                break None;
            }
            if let Some((_, end)) = self.interval_of(&current).cloned() {
                let inside = self.entries.range(current..end.clone());
                out.extend(
                    inside
                        .take(n - out.len())
                        .map(|(k, v)| (k.clone(), v.clone())),
                );
                current = end;
            } else if let Some(v) = self.entries.get(&current) {
                out.push((current.clone(), v.clone()));
                current = next_key(&current);
            } else {
                break Some(current);
            }
        };
        for (k, _) in &out {
            self.touch(k);
        }
        (out, continuation)
    }
}

/// The slot ids a shard's policy has been told are resident.
type Tracked = Arc<Mutex<BTreeSet<u32>>>;

/// Wraps a shard's policy and keeps the set of slot ids it has been told
/// are resident, so the test can hold it against the slab.
struct Audited {
    inner: SlotLruPolicy,
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
    /// Deletes the key, or (flag set) the first resident key from it on:
    /// a delete only leaves a negative behind where an entry was.
    Delete(u16, bool),
    SetCapacity(u16),
    Clear,
    GetPoint(u16),
    GetRange(u16, u8),
}

const KEYS: u16 = 160;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        16 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::InsertPoint(k, v)),
        12 => (0..KEYS, 0u8..24, any::<u8>()).prop_map(|(k, n, a)| Op::InsertScan(k, n, a)),
        3 => (0..KEYS).prop_map(|k| Op::InsertScan(k, 0, 0)),
        8 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::Write(k, v)),
        8 => (0..KEYS, any::<bool>()).prop_map(|(k, resident)| Op::Delete(k, resident)),
        4 => (200u16..6000).prop_map(Op::SetCapacity),
        1 => Just(Op::Clear),
        16 => (0..KEYS).prop_map(Op::GetPoint),
        12 => (0..KEYS, 0u8..24).prop_map(|(k, n)| Op::GetRange(k, n)),
    ]
}

/// A cache and the reference side by side over one database, plus what the
/// two bounding properties count.
struct Pair {
    /// The database the scans read: a subset of the key space, so scans
    /// see gaps and `from` is often absent.
    db: BTreeMap<Bytes, Bytes>,
    cache: RangeCache,
    reference: Reference,
    audits: Arc<Mutex<Vec<Tracked>>>,
    /// Entries that left through a delete or `clear`.
    removed_by_writes: u64,
    /// Deletes and empty-scan fills: what can leave an entry-less segment.
    negatives_made: usize,
}

impl Pair {
    fn new(seed_keys: BTreeSet<u16>, shards: usize, capacity: usize) -> Self {
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
                Box::new(Audited {
                    inner: SlotLruPolicy::new(),
                    tracked,
                })
            }),
        );
        Pair {
            db: seed_keys
                .into_iter()
                .map(|k| (key(k), Bytes::from(format!("seed{k}"))))
                .collect(),
            cache,
            reference: Reference::new(capacity, boundaries),
            audits,
            removed_by_writes: 0,
            negatives_made: 0,
        }
    }

    /// Applies `op` to both sides; lookups must agree.
    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        let Pair {
            db,
            cache,
            reference,
            ..
        } = self;
        let len_before = cache.len();
        match *op {
            Op::InsertPoint(k, v) => {
                // Only what a read could have returned is admitted.
                let value = db
                    .entry(key(k))
                    .or_insert_with(|| Bytes::from(format!("p{v}")))
                    .clone();
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
                self.negatives_made += results.is_empty() as usize;
            }
            Op::Write(k, v) => {
                let value = Bytes::from(format!("w{v}-{}", "x".repeat(v as usize % 40)));
                db.insert(key(k), value.clone());
                cache.on_write(&key(k), Some(&value));
                reference.on_write(&key(k), Some(&value));
            }
            Op::Delete(k, resident) => {
                let first_resident = reference.entries.range(key(k)..).next();
                let target = match first_resident {
                    Some((found, _)) if resident => found.clone(),
                    _ => key(k),
                };
                db.remove(&target);
                cache.on_write(&target, None);
                reference.on_write(&target, None);
                self.negatives_made += 1;
                self.removed_by_writes += (len_before - cache.len()) as u64;
            }
            Op::SetCapacity(c) => {
                cache.set_capacity(c as usize);
                reference.set_capacity(c as usize);
            }
            Op::Clear => {
                cache.clear();
                reference.clear();
                self.removed_by_writes += len_before as u64;
            }
            Op::GetPoint(k) => {
                prop_assert_eq!(
                    cache.get_point(&key(k)),
                    reference.get_point(&key(k)),
                    "{:?}",
                    op
                );
            }
            Op::GetRange(k, n) => {
                let got = cache.get_range_partial(&key(k), n as usize);
                let want = reference.get_range_partial(&key(k), n as usize);
                prop_assert_eq!(got, want, "{:?}", op);
            }
        }
        cache.check_invariants();
        Ok(())
    }

    /// Same residents (so every operation evicted the same entries), same
    /// bytes, same counters; and the policy tracks what the slab holds.
    fn same_state(&self, op: &Op) -> Result<(), TestCaseError> {
        let Pair {
            cache, reference, ..
        } = self;
        let mut resident: Vec<(Bytes, Bytes)> = Vec::new();
        for (shard, tracked) in cache.shards.iter().zip(self.audits.lock().iter()) {
            let shard = shard.lock();
            let in_slab: BTreeSet<u32> = shard.slab.iter().map(|(id, _)| id).collect();
            prop_assert_eq!(
                &in_slab,
                &*tracked.lock(),
                "policy and slab disagree after {:?}",
                op
            );
            resident.extend(
                shard
                    .slab
                    .iter()
                    .map(|(_, e)| (e.key.clone().into(), e.value.clone())),
            );
        }
        // The slab lists its entries in slot order.
        resident.sort();
        let want: Vec<(Bytes, Bytes)> = reference
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(resident, want, "resident sets differ after {:?}", op);
        prop_assert_eq!(
            cache.used(),
            reference.shards.iter().map(|s| s.used).sum::<usize>()
        );
        let stats = cache.stats();
        prop_assert_eq!(
            stats.evictions,
            reference.evictions,
            "evictions after {:?}",
            op
        );
        prop_assert_eq!(
            stats.invalidations,
            reference.invalidations,
            "invalidations after {:?}",
            op
        );
        prop_assert_eq!(
            cache.segment_count(),
            reference
                .shards
                .iter()
                .map(|s| s.covered.len())
                .sum::<usize>(),
            "segments after {:?}",
            op
        );
        prop_assert_eq!(
            cache.coverage_dropped(),
            reference.forgotten,
            "coverage dropped after {:?}",
            op
        );
        Ok(())
    }
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
        let mut pair = Pair::new(seed_keys, shards, capacity);
        for op in &ops {
            pair.apply(op)?;
            pair.same_state(op)?;
        }

        // Every key's verdict and every partial scan, over the key space
        // and the keys between (`k…x` sorts between `k…` and its successor).
        let Pair { cache, reference, .. } = &mut pair;
        for k in 0..KEYS {
            for probe in [key(k), Bytes::from(format!("k{k:03}x"))] {
                prop_assert_eq!(cache.get_point(&probe), reference.get_point(&probe), "point {:?}", probe);
                let got = cache.get_range_partial(&probe, 7);
                let want = reference.get_range_partial(&probe, 7);
                prop_assert_eq!(got, want, "range from {:?}", probe);
            }
        }
    }

    /// Every entry that was inserted is resident, was evicted by the
    /// policy, or was removed by a delete or `clear` — nothing else (not
    /// the coverage backstop, not a merge, not a resize) removes one.
    #[test]
    fn only_the_policy_and_deletes_remove_entries(
        seed_keys in proptest::collection::btree_set(0..KEYS, 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..250),
        shards in 1usize..4,
        capacity in 300usize..6000,
    ) {
        let mut pair = Pair::new(seed_keys, shards, capacity);
        for op in &ops {
            pair.apply(op)?;
            let stats = pair.cache.stats();
            prop_assert_eq!(stats.invalidations, pair.removed_by_writes, "after {:?}", op);
            prop_assert_eq!(
                stats.inserts - stats.evictions - stats.invalidations,
                pair.cache.len() as u64,
                "after {:?}",
                op
            );
        }
    }

    /// The segment map is bounded by what is resident: each segment holds
    /// an entry of its own, or is a negative a delete or an empty scan
    /// left behind.
    #[test]
    fn segments_are_bounded_by_entries_and_negatives(
        seed_keys in proptest::collection::btree_set(0..KEYS, 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..250),
        shards in 1usize..4,
        capacity in 300usize..6000,
    ) {
        let mut pair = Pair::new(seed_keys, shards, capacity);
        for op in &ops {
            pair.apply(op)?;
            prop_assert!(
                pair.cache.segment_count() <= pair.cache.len() + pair.negatives_made,
                "{} segments, {} entries, {} negatives made, after {:?}",
                pair.cache.segment_count(), pair.cache.len(), pair.negatives_made, op
            );
        }
    }
}
