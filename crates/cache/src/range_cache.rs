//! Result-based range cache (Wang et al., ICDE '24; paper Section 2.2).
//!
//! Caches query *results* — individual key-value pairs — decoupled from
//! the physical block layout, so entries survive compaction. Each entry
//! lives in one slab slot, found by key through a hash index (point
//! lookups, O(1), no allocation) and by slot id through the eviction policy
//! (see DESIGN.md). Alongside the entries, the cache tracks **covered
//! segments**: maximal key intervals `[start, end)` within which *every
//! live key of the database* is resident. A resident entry covers its own
//! key, `[k, k⁺)`, without a segment; segments record what scans and
//! deletes established. An ordered index finds, in key order, exactly the
//! entries inside a segment — the only place scans, splits and the
//! backstop look — so an entry no segment covers (every point fill outside
//! scanned ranges) costs no B-tree node. Coverage is what makes range
//! lookups answerable from cache:
//!
//! - a scan `(from, n)` hits iff, walking coverage from `from`, `n` entries
//!   are found without leaving covered territory (a partial hit still
//!   requires the full LSM seek, so it counts as a miss — exactly the
//!   behaviour the paper describes for Range Cache);
//! - a point lookup inside coverage is answerable even when the key is
//!   absent (a *negative hit*: the key provably does not exist).
//!
//! Coverage stays sound under mutation, and only the eviction policy (or a
//! delete, or `clear`) ever removes an entry:
//! - admitted scan results cover `[from, last_admitted⁺)`;
//! - writes inside coverage upsert the entry; deletes drop the entry but
//!   keep the key covered (covered absence);
//! - evicting an entry `k` splits its segment at `k`, and a side — `[s, k)`
//!   or `[k⁺, e)` — survives only if it still holds a resident entry: a
//!   fragment without one protects nothing a client asks for, and dropping
//!   coverage is always sound. The empty gap between two evicted
//!   neighbours is therefore not remembered.
//!
//! So every segment holds at least one resident entry, or is a negative a
//! delete or an empty scan left behind, and the segment map is bounded by
//! the entries the byte budget holds plus those negatives — which a
//! backstop forgets (coverage only, never an entry) past a cap.
//!
//! For multi-client use the key space is partitioned into shards, each with
//! its own lock (paper Section 4.4); scans that exhaust a shard's coverage
//! at its upper boundary continue into the next shard.

#[cfg(test)]
mod model;
mod slots;

use crate::container::CacheStats;
use crate::policy::{Policy, SlotLruPolicy};
use adcache_obs::{CacheStructure, Counter, Event, EvictionCause, Gauge, Obs};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use slots::{Entry, HashIndex, Slab};
use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Per-entry bookkeeping overhead added to the byte charge.
const ENTRY_OVERHEAD: usize = 48;

/// Outcome of a point lookup against the range cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointLookup {
    /// The key is resident; here is its value.
    Hit(Bytes),
    /// The key lies inside a covered segment but has no entry: it provably
    /// does not exist in the database.
    NegativeHit,
    /// The cache cannot answer.
    Miss,
}

/// Outcome of a range lookup against the range cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeLookup {
    /// The full result was served from coverage.
    Hit(Vec<(Bytes, Bytes)>),
    /// Coverage ran out before `n` entries were collected; the caller must
    /// fall back to a full LSM scan.
    Miss,
}

/// Factory producing one eviction policy per shard. The policy orders the
/// shard's 4-byte slot ids, which are recycled; policies with eviction
/// history are told each entry's lasting identity through
/// [`Policy::on_insert_as`].
pub type RangePolicyFactory = Box<dyn Fn() -> Box<dyn Policy<u32>> + Send + Sync>;

/// The immediate successor of `k` in byte order, so `[k, next_key(k))`
/// contains `k` alone: `k` and a zero byte, built in its one allocation.
fn next_key(k: &[u8]) -> Bytes {
    let mut next = BytesMut::zeroed(k.len() + 1);
    next[..k.len()].copy_from_slice(k);
    next.freeze()
}

/// One lock's worth of the cache. A resident entry lives in one slab slot
/// and is reached through `index` (by key bytes, point probes) and
/// `policy` (by slot id, recency), and through `ordered` (by key order;
/// scans, splits and the backstop) when a segment covers it. The key's
/// bytes exist once; slab and `ordered` share them through a 16-byte
/// handle each, and a bit beside each slot says whether `ordered` holds it.
struct Shard {
    slab: Slab,
    index: HashIndex,
    /// Keys the index's hashes; random per shard, since keys come from
    /// clients.
    hasher: RandomState,
    /// The resident keys some segment covers, in order, each with its slot
    /// id; an entry outside every segment is its own coverage and needs no
    /// place in key order.
    ordered: BTreeMap<Arc<[u8]>, u32>,
    /// Covered segments: start -> end (end exclusive), disjoint, sorted.
    /// Only what scans and deletes established: a resident entry covers
    /// its own key without a segment.
    segments: BTreeMap<Bytes, Bytes>,
    policy: Box<dyn Policy<u32>>,
    capacity: usize,
    used: usize,
    evictions: Counter,
    /// Entries removed by a delete or `clear`; nothing else but the policy
    /// removes one.
    invalidations: u64,
    inserts: u64,
    /// Segments the backstop forgot.
    coverage_dropped: Counter,
    obs: Option<SegmentsGauge>,
}

impl Shard {
    fn new(capacity: usize, policy: Box<dyn Policy<u32>>) -> Self {
        Shard {
            slab: Slab::new(),
            index: HashIndex::new(),
            hasher: RandomState::new(),
            ordered: BTreeMap::new(),
            segments: BTreeMap::new(),
            policy,
            capacity,
            used: 0,
            evictions: Counter::new(),
            invalidations: 0,
            inserts: 0,
            coverage_dropped: Counter::new(),
            obs: None,
        }
    }

    fn charge_of(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + ENTRY_OVERHEAD
    }

    /// The slot holding `key`'s entry, if resident.
    fn find(&self, key: &[u8]) -> Option<u32> {
        self.find_hashed(self.hasher.hash_one(key), key)
    }

    fn find_hashed(&self, hash: u64, key: &[u8]) -> Option<u32> {
        self.index
            .find(hash, |slot| *self.slab.get(slot).key == *key)
    }

    /// The covered segment containing `key`, if any.
    fn segment_covering(&self, key: &[u8]) -> Option<(&Bytes, &Bytes)> {
        let (s, e) = self
            .segments
            .range::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()?;
        (e.as_ref() > key).then_some((s, e))
    }

    /// Admits `key` or replaces its value; returns its slot.
    fn upsert_entry(&mut self, key: Bytes, value: Bytes) -> u32 {
        let hash = self.hasher.hash_one(&key[..]);
        match self.find_hashed(hash, &key) {
            Some(slot) => {
                self.update_entry(slot, value);
                slot
            }
            None => self.insert_entry(hash, key.into(), value),
        }
    }

    /// Replaces the value of the resident entry in `slot`.
    fn update_entry(&mut self, slot: u32, value: Bytes) {
        let entry = self.slab.get_mut(slot);
        self.used = self.used - entry.value.len() + value.len();
        entry.value = value;
        self.policy.on_hit(&slot);
    }

    /// Admits `key`, which hashes to `hash` and is not resident, outside
    /// `ordered`; returns its slot.
    fn insert_entry(&mut self, hash: u64, key: Arc<[u8]>, value: Bytes) -> u32 {
        self.used += Self::charge_of(&key, &value);
        let slot = self.slab.insert(Entry { key, value });
        self.index.insert(hash, slot);
        self.policy.on_insert_as(&slot, hash);
        self.inserts += 1;
        slot
    }

    /// Puts the entry in `slot`, which a segment covers or is about to,
    /// into `ordered` unless it is there already (no search then).
    fn enter_ordered(&mut self, slot: u32) {
        if !self.slab.is_ordered(slot) {
            self.slab.mark_ordered(slot);
            self.ordered.insert(self.slab.get(slot).key.clone(), slot);
        }
    }

    /// Takes the entry in `slot` out of the slab and the indexes that hold
    /// it. An eviction comes from the policy, which has already forgotten
    /// the slot; any other removal tells it.
    fn remove_entry(&mut self, slot: u32, via_eviction: bool) -> Entry {
        let (entry, ordered) = self.slab.remove(slot);
        self.index
            .remove(self.hasher.hash_one(&entry.key[..]), slot);
        if ordered {
            self.ordered.remove(&entry.key);
        }
        self.used -= Self::charge_of(&entry.key, &entry.value);
        if via_eviction {
            self.evictions.inc();
        } else {
            self.policy.on_external_remove(&slot);
            self.invalidations += 1;
        }
        entry
    }

    /// Merges `[start, end)` into the segment set.
    fn add_segment(&mut self, mut start: Bytes, mut end: Bytes) {
        if start >= end {
            return;
        }
        // Overlapping-or-touching segments all have start_key <= end; take
        // them from the back while they still reach our start.
        while let Some((s, e)) = self
            .segments
            .range::<Bytes, _>((Bound::Unbounded, Bound::Included(&end)))
            .next_back()
        {
            if *e < start {
                break;
            }
            let s = s.clone();
            let (s, e) = self.segments.remove_entry(&s).expect("just found");
            start = start.min(s);
            end = end.max(e);
        }
        self.segments.insert(start, end);
        self.prune_segments();
    }

    /// Splits coverage at `key` (called when `key`'s entry is evicted): of
    /// `[s, key)` and `[key⁺, e)`, a side stays covered only while a
    /// resident entry lies in it. An entry no segment covers leaves
    /// nothing behind.
    fn split_at(&mut self, key: &Arc<[u8]>) {
        let Some((s, e)) = self
            .segments
            .range_mut::<[u8], _>((Bound::Unbounded, Bound::Included(&key[..])))
            .next_back()
            .filter(|(_, e)| e[..] > key[..])
        else {
            return;
        };
        // `key` itself has left `ordered`, so what lies after it lies at or
        // after `key⁺`.
        let holds_entry = |range| self.ordered.range::<[u8], _>(range).next().is_some();
        let keep_left = holds_entry((Bound::Included(&s[..]), Bound::Excluded(&key[..])));
        let keep_right = holds_entry((Bound::Excluded(&key[..]), Bound::Excluded(&e[..])));
        let end = if keep_left {
            std::mem::replace(e, key.clone().into())
        } else {
            let s = s.clone();
            self.segments.remove(&s).expect("just found")
        };
        if keep_right {
            self.segments.insert(next_key(key), end);
        }
    }

    /// Evicts down to the byte budget; returns `(entries, bytes)` evicted.
    fn evict_to_capacity(&mut self) -> (u64, u64) {
        let (ev_before, used_before) = (self.evictions.get(), self.used);
        while self.used > self.capacity {
            let Some(victim) = self.policy.victim() else {
                break;
            };
            let entry = self.remove_entry(victim, true);
            self.split_at(&entry.key);
        }
        self.prune_segments();
        (
            self.evictions.get() - ev_before,
            (used_before - self.used) as u64,
        )
    }

    /// How many segments the map may hold. Those with a resident entry
    /// stay below it by themselves: each holds a different entry, and an
    /// entry is charged more than `ENTRY_OVERHEAD` of the byte budget. The
    /// entry-less negatives that deletes and empty scans leave behind are
    /// charged nothing, and this is their only bound.
    fn segment_cap(&self) -> usize {
        self.capacity / ENTRY_OVERHEAD
    }

    /// Backstop for the segments the byte budget does not bound, run after
    /// whatever can grow the map (a new segment, a split): past the cap,
    /// forgets every segment that holds no resident entry, in one merge
    /// pass over the two ordered maps (`ordered` holds every entry inside
    /// a segment) — which always gets back under it.
    /// Forgets coverage only; entries leave through the policy.
    fn prune_segments(&mut self) {
        if self.segments.len() > self.segment_cap() {
            let before = self.segments.len();
            let mut residents = self.ordered.keys().peekable();
            self.segments.retain(|s, e| {
                while residents.next_if(|k| k[..] < s[..]).is_some() {}
                residents.peek().is_some_and(|k| k[..] < e[..])
            });
            self.coverage_dropped
                .add((before - self.segments.len()) as u64);
        }
        self.publish_segments();
    }

    /// Brings the `cache.range.segments` gauge (shared by every shard of
    /// every range cache on the handle) up to date with this shard's map.
    fn publish_segments(&mut self) {
        let now = self.segments.len();
        if let Some(obs) = self.obs.as_mut().filter(|obs| obs.published != now) {
            obs.segments.add(now as i64 - obs.published as i64);
            obs.published = now;
        }
    }

    /// Walks contiguous coverage from `*current`, appending the entries it
    /// passes to `out` and advancing `*current`, until `out` holds `n`
    /// entries or `*current` reaches `upper` (this shard's upper boundary)
    /// — both return `true` — or reaches a key nothing covers (`false`).
    fn walk(
        &mut self,
        current: &mut Bytes,
        upper: Option<&Bytes>,
        n: usize,
        out: &mut Vec<(Bytes, Bytes)>,
    ) -> bool {
        loop {
            if out.len() >= n || upper.is_some_and(|u| *current >= *u) {
                return true;
            }
            if let Some((_, seg_end)) = self.segment_covering(current) {
                let seg_end = seg_end.clone();
                let inside = (Bound::Included(&current[..]), Bound::Excluded(&seg_end[..]));
                for (k, &slot) in self.ordered.range::<[u8], _>(inside) {
                    if out.len() >= n {
                        return true;
                    }
                    out.push((k.clone().into(), self.slab.get(slot).value.clone()));
                    self.policy.on_hit(&slot);
                }
                *current = seg_end;
            } else if let Some(slot) = self.find(current) {
                // A resident entry is its own coverage: `[k, k⁺)`.
                let entry = self.slab.get(slot);
                out.push((entry.key.clone().into(), entry.value.clone()));
                self.policy.on_hit(&slot);
                if out.len() >= n {
                    return true;
                }
                *current = next_key(current);
            } else {
                return false;
            }
        }
    }

    fn check_invariants(&self) {
        // Segments disjoint and sorted.
        let mut prev_end: Option<&Bytes> = None;
        for (s, e) in &self.segments {
            assert!(s < e, "degenerate segment");
            if let Some(pe) = prev_end {
                assert!(pe <= s, "segments overlap");
            }
            prev_end = Some(e);
        }
        assert!(
            self.segments.len() <= self.segment_cap(),
            "segment map over its cap"
        );
        // Slab and hash index hold the same entries, and every entry is
        // covered: what the hash index finds is its own coverage. The
        // ordered index holds exactly the entries a segment covers, and
        // each slot's bit says whether it does. (The policy cannot be
        // asked what it tracks; it disagrees visibly: a victim that is not
        // resident panics in the slab, a resident it lost can never be
        // evicted and `used` stays above `capacity`.)
        assert_eq!(self.slab.len(), self.index.len(), "hash index size");
        let mut used = 0usize;
        let mut covered = 0usize;
        for (slot, entry) in self.slab.iter() {
            let key = &entry.key;
            assert_eq!(self.find(key), Some(slot), "hash index misses {key:?}");
            let in_segment = self.segment_covering(key).is_some();
            assert_eq!(
                self.slab.is_ordered(slot),
                in_segment,
                "ordered bit of {key:?}"
            );
            covered += in_segment as usize;
            used += Self::charge_of(key, &entry.value);
        }
        assert_eq!(used, self.used, "byte accounting drifted");
        assert_eq!(covered, self.ordered.len(), "ordered index size");
        for (key, &slot) in &self.ordered {
            assert!(
                Arc::ptr_eq(&self.slab.get(slot).key, key) && self.slab.is_ordered(slot),
                "ordered index names slot {slot} for {key:?}"
            );
        }
        assert!(self.used <= self.capacity, "over budget after eviction");
    }
}

/// A shard's handle on the `cache.range.segments` gauge: its segment map
/// changes under its own lock, several calls deep, so it publishes for
/// itself.
struct SegmentsGauge {
    /// Segments across every shard on the handle; each adds its changes.
    segments: Gauge,
    /// This shard's contribution to `segments` so far.
    published: usize,
}

/// A sharded, coverage-tracking result cache for point and range lookups.
pub struct RangeCache {
    shards: Vec<Mutex<Shard>>,
    /// Shard split points; shard `i` owns `[boundaries[i-1], boundaries[i])`.
    boundaries: Vec<Bytes>,
    hits: Counter,
    misses: Counter,
    /// Set once by `set_obs`, for eviction events.
    obs: OnceLock<Obs>,
}

impl RangeCache {
    /// A single-shard cache with LRU eviction (the configuration evaluated
    /// as "Range Cache" in the paper).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Box::new(|| Box::new(SlotLruPolicy::new())))
    }

    /// Single shard, custom eviction policy (e.g. LeCaR or Cacheus).
    pub fn with_policy(capacity: usize, factory: RangePolicyFactory) -> Self {
        Self::with_shards(capacity, Vec::new(), factory)
    }

    /// Sharded construction: `boundaries` are the ascending key-space split
    /// points; `boundaries.len() + 1` shards are created.
    pub fn with_shards(
        capacity: usize,
        boundaries: Vec<Bytes>,
        factory: RangePolicyFactory,
    ) -> Self {
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        let n = boundaries.len() + 1;
        let per_shard = capacity / n;
        RangeCache {
            shards: (0..n)
                .map(|_| Mutex::new(Shard::new(per_shard, factory())))
                .collect(),
            boundaries,
            hits: Counter::new(),
            misses: Counter::new(),
            obs: OnceLock::new(),
        }
    }

    /// Attaches an observability handle: the registry names the hit and
    /// miss cells and every shard's eviction and coverage-drop cells
    /// `cache.range.*`, and the shards publish their segments. A second
    /// call is a no-op.
    pub fn set_obs(&self, obs: Obs) {
        if self.obs.set(obs.clone()).is_err() {
            return;
        }
        obs.adopt_counter("cache.range.hits", &self.hits);
        obs.adopt_counter("cache.range.misses", &self.misses);
        for s in &self.shards {
            let mut s = s.lock();
            obs.adopt_counter("cache.range.evictions", &s.evictions);
            obs.adopt_counter("cache.range.coverage_dropped", &s.coverage_dropped);
            s.obs = Some(SegmentsGauge {
                segments: obs.gauge("cache.range.segments"),
                published: 0,
            });
            s.publish_segments();
        }
    }

    fn note_evictions(&self, cause: EvictionCause, count: u64, bytes: u64) {
        if let Some(obs) = self.obs.get().filter(|_| count > 0) {
            obs.emit(|| Event::Eviction {
                cache: CacheStructure::Range,
                cause,
                count,
                bytes,
            });
        }
    }

    fn shard_idx(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_ref() <= key)
    }

    /// Upper boundary of shard `i` (`None` for the last shard).
    fn shard_end(&self, i: usize) -> Option<&Bytes> {
        self.boundaries.get(i)
    }

    /// Point lookup. A hit is one hash probe, one slot read and one
    /// recency touch, all O(1), and allocates nothing.
    pub fn get_point(&self, key: &[u8]) -> PointLookup {
        let mut shard = self.shards[self.shard_idx(key)].lock();
        if let Some(slot) = shard.find(key) {
            let value = shard.slab.get(slot).value.clone();
            shard.policy.on_hit(&slot);
            drop(shard);
            self.hits.inc();
            return PointLookup::Hit(value);
        }
        if shard.segment_covering(key).is_some() {
            drop(shard);
            self.hits.inc();
            return PointLookup::NegativeHit;
        }
        drop(shard);
        self.misses.inc();
        PointLookup::Miss
    }

    /// Walks coverage from `from` collecting up to `n` entries. Returns the
    /// collected prefix and, when coverage ran out before `n` entries, the
    /// continuation key: the end of contiguous coverage, i.e. the exact
    /// point an LSM scan must resume from.
    fn walk_range(&self, from: &[u8], n: usize) -> (Vec<(Bytes, Bytes)>, Option<Bytes>) {
        let mut out: Vec<(Bytes, Bytes)> = Vec::with_capacity(n.min(64));
        let mut current = Bytes::copy_from_slice(from);
        loop {
            // Coverage that reaches a shard's upper boundary continues in
            // the next shard, which owns the boundary key.
            let idx = self.shard_idx(&current);
            let covered =
                self.shards[idx]
                    .lock()
                    .walk(&mut current, self.shard_end(idx), n, &mut out);
            if out.len() >= n {
                return (out, None);
            }
            if !covered {
                return (out, Some(current));
            }
        }
    }

    /// Range lookup: `n` entries from `from`, served only on full coverage.
    pub fn get_range(&self, from: &[u8], n: usize) -> RangeLookup {
        if n == 0 {
            return RangeLookup::Hit(Vec::new());
        }
        let (out, cont) = self.walk_range(from, n);
        if cont.is_none() {
            self.hits.inc();
            RangeLookup::Hit(out)
        } else {
            self.misses.inc();
            RangeLookup::Miss
        }
    }

    /// Partial range lookup: serves the covered prefix from cache and
    /// returns the continuation key for the LSM tail scan. A complete
    /// answer counts as a hit; anything partial counts as a miss (the
    /// caller still pays the LSM seek, per the paper), but the prefix's
    /// data blocks are saved.
    pub fn get_range_partial(&self, from: &[u8], n: usize) -> (Vec<(Bytes, Bytes)>, Option<Bytes>) {
        if n == 0 {
            return (Vec::new(), None);
        }
        let (out, cont) = self.walk_range(from, n);
        if cont.is_none() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        (out, cont)
    }

    /// Admits the leading `admitted_len` entries of a scan result that
    /// started at `from` (partial admission; pass `results.len()` for full
    /// admission). An empty result covers `[from, from⁺)` as a negative
    /// range.
    ///
    /// `results` must list every live key in `[from, last admitted]`, in
    /// order: the segment this makes covers that range, and an entry
    /// already resident there but missing from `results` would be left out
    /// of the key order the segment's scans walk. The engine meets it by
    /// filling while the scan still holds its read locks: no write lands
    /// in the range between the read and this call, so every key a point
    /// fill admits there meanwhile is one the scan read.
    pub fn insert_scan(&self, from: &[u8], results: &[(Bytes, Bytes)], admitted_len: usize) {
        let admitted = admitted_len.min(results.len());
        if results.is_empty() {
            let idx = self.shard_idx(from);
            let mut shard = self.shards[idx].lock();
            // `[from, from⁺)` holds one key; if it is resident, it enters
            // the key order before the segment is merged and pruned.
            if let Some(slot) = shard.find(from) {
                shard.enter_ordered(slot);
            }
            let start = Bytes::copy_from_slice(from);
            let end = next_key(from);
            shard.add_segment(start, end);
            return;
        }
        if admitted == 0 {
            return;
        }
        // Split the admitted prefix across shards; ascending lock order.
        let mut i = 0usize;
        let mut seg_start = Bytes::copy_from_slice(from);
        while i < admitted {
            let idx = self.shard_idx(&results[i].0);
            let shard_upper = self.shard_end(idx);
            let mut shard = self.shards[idx].lock();
            while i < admitted && shard_upper.is_none_or(|ub| results[i].0 < *ub) {
                let slot = shard.upsert_entry(results[i].0.clone(), results[i].1.clone());
                shard.enter_ordered(slot);
                i += 1;
            }
            // Cover this shard's part of the key space: up to the boundary
            // when more entries follow in the next shard.
            let seg_end = match shard_upper {
                Some(ub) if i < admitted => ub.clone(),
                _ => next_key(&results[i - 1].0),
            };
            shard.add_segment(std::mem::replace(&mut seg_start, seg_end.clone()), seg_end);
            let (ev_count, ev_bytes) = shard.evict_to_capacity();
            drop(shard);
            self.note_evictions(EvictionCause::Capacity, ev_count, ev_bytes);
        }
    }

    /// Admits a single point-lookup result. Outside every segment the
    /// entry is its own coverage and stays out of the key order.
    pub fn insert_point(&self, key: Bytes, value: Bytes) {
        let idx = self.shard_idx(&key);
        let mut shard = self.shards[idx].lock();
        let covered = shard.segment_covering(&key).is_some();
        let slot = shard.upsert_entry(key, value);
        if covered {
            shard.enter_ordered(slot);
        }
        let (ev_count, ev_bytes) = shard.evict_to_capacity();
        drop(shard);
        self.note_evictions(EvictionCause::Capacity, ev_count, ev_bytes);
    }

    /// Applies a write so covered ranges never serve stale data: upserts
    /// inside coverage, drops the entry on delete (coverage itself remains
    /// valid — the key is correctly absent afterwards).
    pub fn on_write(&self, key: &[u8], value: Option<&Bytes>) {
        let idx = self.shard_idx(key);
        let mut shard = self.shards[idx].lock();
        match value {
            Some(v) => {
                let hash = shard.hasher.hash_one(key);
                match shard.find_hashed(hash, key) {
                    Some(slot) => shard.update_entry(slot, v.clone()),
                    None if shard.segment_covering(key).is_some() => {
                        let slot = shard.insert_entry(hash, Arc::from(key), v.clone());
                        shard.enter_ordered(slot);
                    }
                    None => return,
                }
                let (ev_count, ev_bytes) = shard.evict_to_capacity();
                drop(shard);
                self.note_evictions(EvictionCause::Capacity, ev_count, ev_bytes);
            }
            None => {
                let Some(slot) = shard.find(key) else {
                    return;
                };
                let entry = shard.remove_entry(slot, false);
                if shard.segment_covering(key).is_none() {
                    // The entry was its own coverage. The key stays
                    // covered, now as absent — what a delete inside a
                    // segment leaves behind too.
                    let end = next_key(key);
                    shard.add_segment(entry.key.into(), end);
                }
            }
        }
    }

    /// Drops every entry and all coverage (capacity unchanged).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            let Shard { slab, policy, .. } = &mut *s;
            for (slot, _) in slab.iter() {
                policy.on_external_remove(&slot);
            }
            s.invalidations += s.slab.len() as u64;
            s.slab.clear();
            s.index.clear();
            s.ordered.clear();
            s.segments.clear();
            s.used = 0;
            s.publish_segments();
        }
    }

    /// Re-targets the total byte budget (split across shards).
    pub fn set_capacity(&self, capacity: usize) {
        let per_shard = capacity / self.shards.len();
        let mut count = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let mut s = s.lock();
            s.capacity = per_shard;
            let (ev_count, ev_bytes) = s.evict_to_capacity();
            count += ev_count;
            bytes += ev_bytes;
        }
        self.note_evictions(EvictionCause::Resize, count, bytes);
    }

    /// Total byte budget.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Bytes resident.
    pub fn used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slab.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of covered segments across shards.
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().segments.len()).sum()
    }

    /// Segments the backstop has forgotten to keep the segment map under
    /// its cap (coverage only; see `stats().invalidations` for entries).
    pub fn coverage_dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().coverage_dropped.get())
            .sum()
    }

    /// Query-level counters (one hit or miss per lookup, as the paper
    /// measures) plus entry-level insert/evict/invalidation counts.
    /// `invalidations` counts entries removed by deletes and `clear` only:
    /// every other removal is a policy eviction.
    pub fn stats(&self) -> CacheStats {
        let mut st = CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            ..CacheStats::default()
        };
        for s in &self.shards {
            let s = s.lock();
            st.inserts += s.inserts;
            st.evictions += s.evictions.get();
            st.invalidations += s.invalidations;
        }
        st
    }

    /// Panics unless every shard's slab and hash index hold the same
    /// entries, its ordered index holds exactly those a segment covers,
    /// segments are disjoint and within their cap, and the byte accounting
    /// adds up and fits the budget. For tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for s in &self.shards {
            s.lock().check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn kv(i: usize) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:04}")),
            Bytes::from(format!("val{i:04}")),
        )
    }

    fn scan_result(from: usize, n: usize) -> Vec<(Bytes, Bytes)> {
        (from..from + n).map(kv).collect()
    }

    #[test]
    fn point_hit_negative_hit_and_miss() {
        let c = RangeCache::new(1 << 20);
        // Cover keys 10..20 (keys are every index, so all present).
        c.insert_scan(&kv(10).0, &scan_result(10, 10), 10);
        assert_eq!(c.get_point(&kv(12).0), PointLookup::Hit(kv(12).1));
        // A key inside coverage but absent from the DB result: negative.
        assert_eq!(c.get_point(b"key0012x"), PointLookup::NegativeHit);
        assert_eq!(c.get_point(&kv(30).0), PointLookup::Miss);
        c.check_invariants();
    }

    #[test]
    fn range_hit_requires_full_coverage() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(10).0, &scan_result(10, 10), 10);
        match c.get_range(&kv(10).0, 10) {
            RangeLookup::Hit(v) => {
                assert_eq!(v.len(), 10);
                assert_eq!(v[0], kv(10));
                assert_eq!(v[9], kv(19));
            }
            RangeLookup::Miss => panic!("full coverage must hit"),
        }
        // Interior start works too.
        match c.get_range(&kv(15).0, 5) {
            RangeLookup::Hit(v) => assert_eq!(v.len(), 5),
            RangeLookup::Miss => panic!(),
        }
        // Asking past coverage is a miss (partial hit = miss).
        assert_eq!(c.get_range(&kv(15).0, 10), RangeLookup::Miss);
        assert_eq!(c.get_range(&kv(50).0, 1), RangeLookup::Miss);
        c.check_invariants();
    }

    #[test]
    fn overlapping_scans_merge_coverage() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(10).0, &scan_result(10, 10), 10);
        c.insert_scan(&kv(18).0, &scan_result(18, 10), 10);
        assert_eq!(c.segment_count(), 1, "overlapping coverage must merge");
        match c.get_range(&kv(10).0, 18) {
            RangeLookup::Hit(v) => assert_eq!(v.len(), 18),
            RangeLookup::Miss => panic!("merged coverage must serve the union"),
        }
        c.check_invariants();
    }

    #[test]
    fn partial_admission_covers_only_prefix() {
        let c = RangeCache::new(1 << 20);
        let results = scan_result(0, 64);
        c.insert_scan(&results[0].0, &results, 20);
        assert_eq!(c.len(), 20);
        match c.get_range(&kv(0).0, 20) {
            RangeLookup::Hit(v) => assert_eq!(v.len(), 20),
            RangeLookup::Miss => panic!("admitted prefix must hit"),
        }
        assert_eq!(c.get_range(&kv(0).0, 21), RangeLookup::Miss);
        c.check_invariants();
    }

    #[test]
    fn eviction_splits_coverage() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(0).0, &scan_result(0, 10), 10);
        // Evict by shrinking capacity to ~5 entries' worth.
        let per_entry = 7 + 7 + 48;
        c.set_capacity(5 * per_entry);
        assert!(c.len() <= 5);
        assert!(c.segment_count() >= 1);
        // Whatever remains must still answer correctly (hits only on
        // still-covered keys, never stale data).
        for i in 0..10 {
            match c.get_point(&kv(i).0) {
                PointLookup::Hit(v) => assert_eq!(v, kv(i).1),
                PointLookup::NegativeHit => panic!("evicted key {i} must not be negative"),
                PointLookup::Miss => {}
            }
        }
        c.check_invariants();
    }

    #[test]
    fn eviction_keeps_only_the_sides_that_hold_an_entry() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(0).0, &scan_result(0, 10), 10);
        // Make 4 and 5 the two least recently used, then evict exactly them.
        for i in (0..4).chain(6..10) {
            c.get_point(&kv(i).0);
        }
        c.set_capacity(8 * (7 + 7 + 48));
        assert_eq!(c.len(), 8);
        assert_eq!(c.get_point(&kv(4).0), PointLookup::Miss);
        assert_eq!(c.get_point(&kv(5).0), PointLookup::Miss);
        // `[key0000, key0004)` and `[key0005⁺, key0009⁺)` hold entries; the
        // empty gap between the two evicted neighbours is not kept.
        assert_eq!(c.segment_count(), 2);
        assert_eq!(c.get_point(b"key0004x"), PointLookup::Miss);
        assert_eq!(c.get_point(b"key0003x"), PointLookup::NegativeHit);
        // So once both are back as points, a scan across them stops at the
        // gap (it ran through when the gap was remembered).
        c.set_capacity(1 << 20);
        c.insert_point(kv(4).0, kv(4).1);
        c.insert_point(kv(5).0, kv(5).1);
        let (prefix, cont) = c.get_range_partial(&kv(0).0, 10);
        assert_eq!(prefix.len(), 5);
        assert_eq!(cont, Some(next_key(&kv(4).0)));
        // Evicting the last entry of a side takes the side with it.
        c.clear();
        c.insert_scan(&kv(0).0, &scan_result(0, 3), 3);
        c.set_capacity(7 + 7 + 48);
        assert_eq!((c.len(), c.segment_count()), (1, 1));
        c.set_capacity(0);
        assert_eq!((c.len(), c.segment_count()), (0, 0));
        c.check_invariants();
    }

    #[test]
    fn backstop_forgets_negatives_never_entries() {
        // Room for 20 entries of 62 bytes, hence a cap of 25 segments.
        let c = RangeCache::new(20 * (7 + 7 + 48));
        for i in 0..10 {
            c.insert_point(kv(i).0, kv(i).1);
        }
        // Empty scans leave entry-less negatives until the cap is passed...
        for i in 0..25 {
            c.insert_scan(format!("nokey{i:02}").as_bytes(), &[], 0);
        }
        assert_eq!((c.segment_count(), c.coverage_dropped()), (25, 0));
        assert_eq!(c.get_point(b"nokey07"), PointLookup::NegativeHit);
        // ...then all of them go, and nothing else does.
        c.insert_scan(b"nokey25", &[], 0);
        assert_eq!((c.segment_count(), c.coverage_dropped()), (0, 26));
        assert_eq!(c.get_point(b"nokey07"), PointLookup::Miss);
        assert_eq!(c.len(), 10);
        for i in 0..10 {
            assert_eq!(c.get_point(&kv(i).0), PointLookup::Hit(kv(i).1));
        }
        // A segment that holds an entry survives the sweep; a delete
        // removes its entry and counts as an invalidation, the sweep as none.
        c.insert_scan(&kv(20).0, &scan_result(20, 2), 2);
        for i in 0..10 {
            c.on_write(&kv(i).0, None);
        }
        for i in 30..50 {
            c.insert_scan(format!("nokey{i:02}").as_bytes(), &[], 0);
        }
        assert!(c.coverage_dropped() > 26);
        assert_eq!(c.get_point(&kv(21).0), PointLookup::Hit(kv(21).1));
        assert_eq!(c.get_point(b"key0020x"), PointLookup::NegativeHit);
        let st = c.stats();
        assert_eq!((st.invalidations, st.evictions, c.len()), (10, 0, 2));
        c.check_invariants();
    }

    #[test]
    fn coverage_metrics_follow_every_shard() {
        let factory: RangePolicyFactory = Box::new(|| Box::new(SlotLruPolicy::new()));
        let c = RangeCache::with_shards(40 * 62, vec![b("key0010")], factory);
        c.insert_scan(&kv(0).0, &scan_result(0, 4), 4);
        // Attached late: what is already covered is published on attach.
        let obs = Obs::enabled();
        c.set_obs(obs.clone());
        let segments = obs.gauge("cache.range.segments");
        let dropped = || {
            let reg = obs.registry().unwrap();
            reg.counter_value("cache.range.coverage_dropped")
        };
        assert_eq!(segments.get(), 1);
        c.insert_scan(&kv(8).0, &scan_result(8, 4), 4);
        assert_eq!((c.segment_count(), segments.get()), (3, 3));
        // Past a shard's cap of 25: its negatives go, counted.
        for i in 0..30 {
            c.insert_scan(format!("nokey{i:02}").as_bytes(), &[], 0);
        }
        assert_eq!(segments.get(), c.segment_count() as i64);
        assert_eq!(dropped(), c.coverage_dropped());
        assert!(dropped() > 0);
        c.clear();
        assert_eq!(segments.get(), 0);
    }

    #[test]
    fn writes_inside_coverage_stay_fresh() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(0).0, &scan_result(0, 10), 10);
        // Overwrite a covered key.
        c.on_write(&kv(3).0, Some(&b("updated")));
        assert_eq!(c.get_point(&kv(3).0), PointLookup::Hit(b("updated")));
        // Insert a brand-new key inside coverage.
        c.on_write(b"key0003x", Some(&b("fresh")));
        assert_eq!(c.get_point(b"key0003x"), PointLookup::Hit(b("fresh")));
        // The new key appears in range results.
        match c.get_range(&kv(3).0, 3) {
            RangeLookup::Hit(v) => {
                assert_eq!(v[0].0, kv(3).0);
                assert_eq!(v[1].0.as_ref(), b"key0003x");
                assert_eq!(v[2].0, kv(4).0);
            }
            RangeLookup::Miss => panic!(),
        }
        // Delete a covered key: negative afterwards, and scans skip it.
        c.on_write(&kv(5).0, None);
        assert_eq!(c.get_point(&kv(5).0), PointLookup::NegativeHit);
        match c.get_range(&kv(4).0, 3) {
            RangeLookup::Hit(v) => {
                let keys: Vec<&[u8]> = v.iter().map(|(k, _)| k.as_ref()).collect();
                assert_eq!(keys, vec![&kv(4).0[..], &kv(6).0[..], &kv(7).0[..]]);
            }
            RangeLookup::Miss => panic!(),
        }
        // Writes outside coverage are ignored.
        c.on_write(b"zzz", Some(&b("x")));
        assert_eq!(c.get_point(b"zzz"), PointLookup::Miss);
        c.check_invariants();
    }

    #[test]
    fn empty_scan_result_caches_negatively() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(b"nokeyhere", &[], 0);
        assert_eq!(c.get_point(b"nokeyhere"), PointLookup::NegativeHit);
        c.check_invariants();
    }

    #[test]
    fn insert_point_enables_point_hits() {
        let c = RangeCache::new(1 << 20);
        c.insert_point(kv(7).0, kv(7).1);
        assert_eq!(c.get_point(&kv(7).0), PointLookup::Hit(kv(7).1));
        assert_eq!(c.get_point(&kv(8).0), PointLookup::Miss);
        // A degenerate single-key segment also answers 1-length scans.
        match c.get_range(&kv(7).0, 1) {
            RangeLookup::Hit(v) => assert_eq!(v.len(), 1),
            RangeLookup::Miss => panic!(),
        }
        c.check_invariants();
    }

    #[test]
    fn point_entries_a_scan_returns_become_walkable() {
        let c = RangeCache::new(1 << 20);
        // Two point entries, outside every segment, hence out of key order.
        c.insert_point(kv(1).0, kv(1).1);
        c.insert_point(kv(3).0, kv(3).1);
        assert!(c.shards[0].lock().ordered.is_empty());
        // A scan over them updates both; the segment it makes must walk
        // through them as through the entries it adds.
        c.insert_scan(&kv(0).0, &scan_result(0, 5), 5);
        assert_eq!(c.shards[0].lock().ordered.len(), 5);
        let (prefix, cont) = c.get_range_partial(&kv(0).0, 5);
        assert_eq!((prefix, cont), (scan_result(0, 5), None));
        assert_eq!(c.stats().hits, 1);
        c.check_invariants();
    }

    #[test]
    fn an_empty_scan_over_a_resident_point_keeps_it_walkable() {
        let c = RangeCache::new(1 << 20);
        c.insert_point(kv(5).0, kv(5).1);
        c.insert_scan(&kv(5).0, &[], 0);
        assert_eq!(c.segment_count(), 1);
        let (prefix, cont) = c.get_range_partial(&kv(5).0, 2);
        assert_eq!(prefix, vec![kv(5)]);
        assert_eq!(cont, Some(next_key(&kv(5).0)));
        assert_eq!(c.get_range(&kv(5).0, 1), RangeLookup::Hit(vec![kv(5)]));
        c.check_invariants();
    }

    #[test]
    fn evicting_a_point_only_entry_leaves_key_order_and_segments_alone() {
        let c = RangeCache::new(1 << 20);
        // Least recently used first: the point entry outside coverage.
        c.insert_point(kv(50).0, kv(50).1);
        c.insert_scan(&kv(10).0, &scan_result(10, 4), 4);
        c.insert_point(kv(51).0, kv(51).1);
        let snapshot = |c: &RangeCache| {
            let shard = c.shards[0].lock();
            let ordered: Vec<(Arc<[u8]>, u32)> = shard
                .ordered
                .iter()
                .map(|(k, &slot)| (k.clone(), slot))
                .collect();
            (ordered, shard.segments.clone())
        };
        let before = snapshot(&c);
        assert_eq!(before.0.len(), 4, "only the scanned entries are ordered");
        c.set_capacity(5 * (7 + 7 + 48));
        assert_eq!((c.len(), c.stats().evictions), (5, 1));
        assert_eq!(snapshot(&c), before);
        assert_eq!(c.get_point(&kv(50).0), PointLookup::Miss);
        assert_eq!(c.get_point(&kv(51).0), PointLookup::Hit(kv(51).1));
        c.check_invariants();
    }

    #[test]
    fn sharded_cache_serves_cross_boundary_scans() {
        let factory: RangePolicyFactory = Box::new(|| Box::new(SlotLruPolicy::new()));
        let c = RangeCache::with_shards(1 << 20, vec![b("key0005"), b("key0010")], factory);
        // Scan result spanning all three shards.
        c.insert_scan(&kv(0).0, &scan_result(0, 15), 15);
        assert!(c.segment_count() >= 3, "coverage split across shards");
        match c.get_range(&kv(0).0, 15) {
            RangeLookup::Hit(v) => {
                assert_eq!(v.len(), 15);
                for (i, (k, _)) in v.iter().enumerate() {
                    assert_eq!(k, &kv(i).0);
                }
            }
            RangeLookup::Miss => panic!("cross-shard coverage must serve"),
        }
        // Point lookups land in the right shard.
        assert_eq!(c.get_point(&kv(7).0), PointLookup::Hit(kv(7).1));
        c.check_invariants();
    }

    #[test]
    fn stats_count_queries_not_entries() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(0).0, &scan_result(0, 16), 16);
        c.get_range(&kv(0).0, 16); // 1 hit even though 16 entries touched
        c.get_range(&kv(100).0, 4); // 1 miss
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.inserts, 16);
    }

    #[test]
    fn partial_lookup_returns_prefix_and_continuation() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(10).0, &scan_result(10, 8), 8);
        // Fully covered request.
        let (out, cont) = c.get_range_partial(&kv(10).0, 8);
        assert_eq!(out.len(), 8);
        assert!(cont.is_none());
        // Longer request: prefix + continuation at the coverage end, which
        // is the successor bound of the last cached key.
        let (out, cont) = c.get_range_partial(&kv(10).0, 20);
        assert_eq!(out.len(), 8);
        let cont = cont.unwrap();
        assert!(cont.as_ref() > kv(17).0.as_ref() && cont.as_ref() <= kv(18).0.as_ref());
        // Uncovered start: empty prefix, continuation = from.
        let (out, cont) = c.get_range_partial(&kv(50).0, 4);
        assert!(out.is_empty());
        assert_eq!(cont.unwrap(), kv(50).0);
        // n = 0 short-circuits.
        let (out, cont) = c.get_range_partial(&kv(10).0, 0);
        assert!(out.is_empty() && cont.is_none());
        c.check_invariants();
    }

    #[test]
    fn partial_lookup_plus_tail_reconstructs_full_scan() {
        // Simulate the engine's composed path: cached prefix + "LSM" tail
        // inserted at the continuation must produce growing coverage that
        // eventually serves the whole scan.
        let c = RangeCache::new(1 << 20);
        let full: Vec<(Bytes, Bytes)> = scan_result(0, 64);
        c.insert_scan(&full[0].0, &full[..16], 16);
        let (prefix, cont) = c.get_range_partial(&full[0].0, 64);
        assert_eq!(prefix.len(), 16);
        let cont = cont.unwrap();
        // "LSM scan" of the tail = everything at/after the continuation.
        let tail: Vec<(Bytes, Bytes)> = full.iter().filter(|(k, _)| *k >= cont).cloned().collect();
        assert_eq!(prefix.len() + tail.len(), 64, "no gap, no overlap");
        c.insert_scan(&cont, &tail, tail.len());
        match c.get_range(&full[0].0, 64) {
            RangeLookup::Hit(v) => assert_eq!(v, full),
            RangeLookup::Miss => panic!("merged coverage must serve the full scan"),
        }
        c.check_invariants();
    }

    #[test]
    fn clear_empties_everything() {
        let c = RangeCache::new(1 << 20);
        c.insert_scan(&kv(0).0, &scan_result(0, 32), 32);
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.used(), 0);
        assert_eq!(c.get_point(&kv(3).0), PointLookup::Miss);
        // Reusable afterwards.
        c.insert_scan(&kv(0).0, &scan_result(0, 4), 4);
        assert_eq!(c.len(), 4);
        c.check_invariants();
    }

    #[test]
    fn capacity_shrink_keeps_invariants() {
        let c = RangeCache::new(1 << 20);
        for start in (0..500).step_by(50) {
            c.insert_scan(&kv(start).0, &scan_result(start, 30), 30);
        }
        c.set_capacity(2000);
        assert!(c.used() <= 2000);
        c.check_invariants();
        // Everything still answers without panicking.
        for i in (0..500).step_by(7) {
            let _ = c.get_point(&kv(i).0);
            let _ = c.get_range(&kv(i).0, 5);
        }
        c.check_invariants();
    }
}
