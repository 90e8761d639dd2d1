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
//! deletes established. Each segment lists the slot ids of exactly the
//! entries inside it, in key order — the only place scans, splits and the
//! backstop look — so an entry no segment covers (every point fill outside
//! scanned ranges) costs nothing beyond its slot. Coverage is what makes
//! range lookups answerable from cache:
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
use crate::policy::{Policy, SlotClockPolicy};
use adcache_lsm::heap;
use adcache_obs::{Counter, Gauge, Obs};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use slots::{Entry, HashIndex, Slab, SlotKey};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::ops::Bound;

/// Per-entry bookkeeping overhead added to the byte charge.
const ENTRY_OVERHEAD: usize = 48;

/// What a range cache holds, for the memory ledger
/// ([`RangeCache::footprint`]): the charge by term, and the heap bytes of
/// each structure, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeFootprint {
    /// Charged bytes: keys, values and a fixed overhead per entry.
    pub charged: usize,
    /// Σ key length.
    pub key_bytes: usize,
    /// Σ length of the keys too long to lie in place, each an allocation
    /// of its own; the rest of `key_bytes` lies in the slab's slots.
    pub shared_key_bytes: usize,
    /// Σ value length.
    pub value_bytes: usize,
    /// Heap bytes of the keys too long to lie in place, one allocation
    /// each. A key stored in place takes none: its bytes are part of its
    /// slot.
    pub key_heap: usize,
    /// Heap bytes of the values were each one allocation of its own, as
    /// a copied value is; a view of a buffer another structure keeps takes
    /// none of them.
    pub value_heap: usize,
    /// Slab chunks (in-place keys included) and their covered bits.
    pub slab: usize,
    /// The hash index's buckets.
    pub hash_index: usize,
    /// The segments' lists of the slot ids they cover: four bytes per
    /// covered entry, and the lists' spare capacity.
    pub segment_slots: usize,
    /// Covered segments: map nodes and bound keys.
    pub segments: usize,
    /// The eviction policy's bookkeeping.
    pub policy: usize,
}

impl RangeFootprint {
    /// Adds `other`'s terms to these.
    pub fn add(&mut self, other: &RangeFootprint) {
        self.charged += other.charged;
        self.key_bytes += other.key_bytes;
        self.shared_key_bytes += other.shared_key_bytes;
        self.value_bytes += other.value_bytes;
        self.key_heap += other.key_heap;
        self.value_heap += other.value_heap;
        self.slab += other.slab;
        self.hash_index += other.hash_index;
        self.segment_slots += other.segment_slots;
        self.segments += other.segments;
        self.policy += other.policy;
    }
}

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
/// [`Policy::on_insert`].
pub type RangePolicyFactory = Box<dyn Fn() -> Box<dyn Policy> + Send + Sync>;

/// The immediate successor of `k` in byte order, so `[k, next_key(k))`
/// contains `k` alone: `k` and a zero byte, built in its one allocation.
fn next_key(k: &[u8]) -> Bytes {
    let mut next = BytesMut::zeroed(k.len() + 1);
    next[..k.len()].copy_from_slice(k);
    next.freeze()
}

/// A covered interval `[start, end)`, keyed by `start` in the shard's map.
struct Segment {
    end: Bytes,
    /// The slot ids of the resident entries inside, in key order.
    slots: Vec<u32>,
}

/// The segment containing `key`, if any, with its start.
fn covering<'a>(
    segments: &'a BTreeMap<Bytes, Segment>,
    key: &[u8],
) -> Option<(&'a Bytes, &'a Segment)> {
    let (s, seg) = segments
        .range::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
        .next_back()?;
    (seg.end.as_ref() > key).then_some((s, seg))
}

/// [`covering`], for a change to the segment.
fn covering_mut<'a>(
    segments: &'a mut BTreeMap<Bytes, Segment>,
    key: &[u8],
) -> Option<(&'a Bytes, &'a mut Segment)> {
    let (s, seg) = segments
        .range_mut::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
        .next_back()?;
    (seg.end.as_ref() > key).then_some((s, seg))
}

/// How many of the key-ordered `slots` hold a key below `key`.
fn slots_below(slab: &Slab, slots: &[u32], key: &[u8]) -> usize {
    slots.partition_point(|&s| *slab.get(s).key < *key)
}

/// The one list of two key-ordered slot lists; an entry on both is on it
/// once. The shorter list is spliced into the longer where their keys
/// interleave, so a scan that extends a long segment costs what it adds.
fn merge_slots(slab: &Slab, a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    let (mut base, other) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let (Some(&first), Some(&last)) = (other.first(), other.last()) else {
        return base;
    };
    let key = |slot: u32| &*slab.get(slot).key;
    let lo = slots_below(slab, &base, key(first));
    let hi = lo + base[lo..].partition_point(|&s| key(s) <= key(last));
    // Two sorted runs: the sort merges them.
    let mut merged: Vec<u32> = base[lo..hi].iter().chain(&other).copied().collect();
    merged.sort_by(|&x, &y| key(x).cmp(key(y)));
    merged.dedup();
    base.splice(lo..hi, merged);
    base
}

/// What a walk has found so far: the keys end to end in one buffer, and
/// each value beside where its key ends. One per thread, reused, so that a
/// walk allocates only what it returns: the result and one buffer for all
/// its keys.
#[derive(Default)]
struct Found {
    keys: Vec<u8>,
    entries: Vec<(usize, Bytes)>,
}

thread_local! {
    static FOUND: RefCell<Found> = RefCell::default();
}

/// Entries' worth of room [`Found`] keeps between walks; a longer walk's
/// room is given back.
const FOUND_KEPT: usize = 1024;

impl Found {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn push(&mut self, key: &[u8], value: Bytes) {
        self.keys.extend_from_slice(key);
        self.entries.push((self.keys.len(), value));
    }

    /// The entries found, each key a slice of one new buffer, in a vector
    /// with room for at least `capacity`; leaves `self` empty.
    fn take(&mut self, capacity: usize) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::with_capacity(capacity.max(self.len()));
        if !self.entries.is_empty() {
            let keys = Bytes::copy_from_slice(&self.keys);
            let mut start = 0;
            for (end, value) in self.entries.drain(..) {
                out.push((keys.slice(start..end), value));
                start = end;
            }
        }
        self.keys.clear();
        self.keys.shrink_to(FOUND_KEPT * slots::IN_PLACE);
        self.entries.shrink_to(FOUND_KEPT);
        out
    }
}

/// One lock's worth of the cache. A resident entry lives in one slab slot
/// and is reached through `index` (by key bytes, point probes) and
/// `policy` (by slot id, use), and through the list of the segment
/// that covers it, if one does (by key order; scans, splits and the
/// backstop). The key's bytes exist once, in its slot or, when longer than
/// a slot holds, in one allocation of its own. A bit beside each slot says
/// whether a segment lists it.
struct Shard {
    slab: Slab,
    index: HashIndex,
    /// Keys the index's hashes; random per shard, since keys come from
    /// clients.
    hasher: RandomState,
    /// Covered segments by start: disjoint, sorted, each listing the
    /// resident entries inside it. Only what scans and deletes
    /// established: a resident entry covers its own key without a segment.
    segments: BTreeMap<Bytes, Segment>,
    policy: Box<dyn Policy>,
    capacity: usize,
    used: usize,
    /// Σ key and value lengths, the length of the keys stored out of
    /// place, and the heap bytes of those keys and of the values as
    /// allocations of their own: the ledger's variable terms.
    key_bytes: usize,
    shared_key_bytes: usize,
    value_bytes: usize,
    key_heap: usize,
    value_heap: usize,
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
    fn new(capacity: usize, policy: Box<dyn Policy>) -> Self {
        Shard {
            slab: Slab::new(),
            index: HashIndex::new(),
            hasher: RandomState::new(),
            segments: BTreeMap::new(),
            policy,
            capacity,
            used: 0,
            key_bytes: 0,
            shared_key_bytes: 0,
            value_bytes: 0,
            key_heap: 0,
            value_heap: 0,
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

    /// Admits `key` or replaces its value; returns its slot and whether
    /// the entry is new. A new entry is on no segment's list yet.
    fn upsert_entry(&mut self, key: Bytes, value: Bytes) -> (u32, bool) {
        let hash = self.hasher.hash_one(&key[..]);
        match self.find_hashed(hash, &key) {
            Some(slot) => {
                self.update_entry(slot, value);
                (slot, false)
            }
            None => (self.insert_entry(hash, SlotKey::new(key), value), true),
        }
    }

    /// Replaces the value of the resident entry in `slot`.
    fn update_entry(&mut self, slot: u32, value: Bytes) {
        let entry = self.slab.get_mut(slot);
        self.used = self.used - entry.value.len() + value.len();
        self.value_bytes = self.value_bytes - entry.value.len() + value.len();
        self.value_heap =
            self.value_heap - heap::arc_bytes(entry.value.len()) + heap::arc_bytes(value.len());
        entry.value = value;
        self.policy.on_hit(slot);
    }

    /// Admits `key`, which hashes to `hash` and is not resident, on no
    /// segment's list; returns its slot.
    fn insert_entry(&mut self, hash: u64, key: SlotKey, value: Bytes) -> u32 {
        let entry = Entry { key, value };
        self.used += Self::charge_of(&entry.key, &entry.value);
        self.note_payload(&entry, true);
        let slot = self.slab.insert(entry);
        self.index.insert(hash, slot);
        self.policy.on_insert(slot, hash);
        self.inserts += 1;
        slot
    }

    /// Adds (`admitted`) or takes away an entry's key and value from the
    /// ledger's payload terms.
    fn note_payload(&mut self, entry: &Entry, admitted: bool) {
        let (key, value) = (&entry.key, &entry.value);
        let shared = key.shared().map_or(0, |k| k.len());
        let terms = [
            (&mut self.key_bytes, key.len()),
            (&mut self.shared_key_bytes, shared),
            (&mut self.value_bytes, value.len()),
            (&mut self.key_heap, key.heap_bytes()),
            (&mut self.value_heap, heap::arc_bytes(value.len())),
        ];
        for (term, n) in terms {
            if admitted {
                *term += n;
            } else {
                *term -= n;
            }
        }
    }

    /// This shard's terms of a [`RangeFootprint`].
    fn footprint(&self) -> RangeFootprint {
        let (mut segment_keys, mut segment_slots) = (0, 0);
        for (s, seg) in &self.segments {
            segment_keys += heap::arc_bytes(s.len()) + heap::arc_bytes(seg.end.len());
            segment_slots += heap::vec(&seg.slots);
        }
        RangeFootprint {
            charged: self.used,
            key_bytes: self.key_bytes,
            shared_key_bytes: self.shared_key_bytes,
            value_bytes: self.value_bytes,
            key_heap: self.key_heap,
            value_heap: self.value_heap,
            slab: self.slab.heap_bytes(),
            hash_index: self.index.heap_bytes(),
            segment_slots,
            segments: heap::btree_map(&self.segments) + segment_keys,
            policy: self.policy.heap_bytes(),
        }
    }

    /// Lists the new entry in `slot` on the segment that covers its key,
    /// if one does.
    fn enter_segment(&mut self, slot: u32) {
        let key = &*self.slab.get(slot).key;
        if let Some((_, seg)) = covering_mut(&mut self.segments, key) {
            let at = slots_below(&self.slab, &seg.slots, key);
            seg.slots.insert(at, slot);
            self.slab.mark_covered(slot);
        }
    }

    /// Takes the entry in `slot`, which a segment lists, off that list;
    /// the segment still covers its key.
    fn leave_segment(&mut self, slot: u32) {
        let key = &*self.slab.get(slot).key;
        let (_, seg) = covering_mut(&mut self.segments, key).expect("a listed entry is covered");
        let at = slots_below(&self.slab, &seg.slots, key);
        debug_assert_eq!(seg.slots[at], slot);
        seg.slots.remove(at);
    }

    /// Takes the entry in `slot` out of the slab and the hash index; a
    /// segment that lists it has already let it go. An eviction comes from
    /// the policy, which has already forgotten the slot; any other removal
    /// tells it.
    fn remove_entry(&mut self, slot: u32, via_eviction: bool) {
        let entry = self.slab.remove(slot);
        self.index
            .remove(self.hasher.hash_one(&entry.key[..]), slot);
        self.used -= Self::charge_of(&entry.key, &entry.value);
        self.note_payload(&entry, false);
        if via_eviction {
            self.evictions.inc();
        } else {
            self.policy.on_external_remove(slot);
            self.invalidations += 1;
        }
    }

    /// Merges `[start, end)`, inside which the entries in `slots` (in key
    /// order) lie, into the segment set. Every resident entry in the range
    /// must be on `slots` or on a segment it merges with.
    fn add_segment(&mut self, mut start: Bytes, mut end: Bytes, mut slots: Vec<u32>) {
        if start >= end {
            return;
        }
        for &slot in &slots {
            self.slab.mark_covered(slot);
        }
        // Overlapping-or-touching segments all have start_key <= end; take
        // them from the back while they still reach our start.
        while let Some((s, seg)) = self
            .segments
            .range::<Bytes, _>((Bound::Unbounded, Bound::Included(&end)))
            .next_back()
        {
            if seg.end < start {
                break;
            }
            let s = s.clone();
            let (s, seg) = self.segments.remove_entry(&s).expect("just found");
            start = start.min(s);
            end = end.max(seg.end);
            slots = merge_slots(&self.slab, slots, seg.slots);
        }
        self.segments.insert(start, Segment { end, slots });
        self.prune_segments();
    }

    /// Splits coverage at the entry in `slot`, which a segment lists and
    /// which is being evicted: of `[s, key)` and `[key⁺, e)`, a side stays
    /// covered only while a resident entry lies in it.
    fn split_at(&mut self, slot: u32) {
        let key = &*self.slab.get(slot).key;
        let (s, seg) = covering_mut(&mut self.segments, key).expect("a listed entry is covered");
        let at = slots_below(&self.slab, &seg.slots, key);
        debug_assert_eq!(seg.slots[at], slot);
        let right = seg.slots.split_off(at + 1);
        seg.slots.pop();
        if seg.slots.capacity() > 4 * seg.slots.len() {
            seg.slots.shrink_to(2 * seg.slots.len());
        }
        let end = if seg.slots.is_empty() {
            let s = s.clone();
            self.segments.remove(&s).expect("just found").end
        } else {
            std::mem::replace(&mut seg.end, Bytes::copy_from_slice(key))
        };
        if !right.is_empty() {
            let start = next_key(key);
            self.segments.insert(start, Segment { end, slots: right });
        }
    }

    /// Evicts down to the byte budget.
    fn evict_to_capacity(&mut self) {
        while self.used > self.capacity {
            let Some(victim) = self.policy.victim() else {
                break;
            };
            if self.slab.is_covered(victim) {
                self.split_at(victim);
            }
            self.remove_entry(victim, true);
        }
        self.prune_segments();
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
    /// forgets every segment that lists no resident entry — which always
    /// gets back under it. Forgets coverage only; entries leave through the
    /// policy.
    fn prune_segments(&mut self) {
        if self.segments.len() > self.segment_cap() {
            let before = self.segments.len();
            self.segments.retain(|_, seg| !seg.slots.is_empty());
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

    /// Walks contiguous coverage from `*at` (`from` while `None`), adding
    /// the entries it passes to `found` and advancing `*at`, until `found`
    /// holds `n` entries or `*at` reaches `upper` (this shard's upper
    /// boundary) — both return `true` — or reaches a key nothing covers
    /// (`false`).
    fn walk(
        &mut self,
        from: &[u8],
        at: &mut Option<Bytes>,
        upper: Option<&Bytes>,
        n: usize,
        found: &mut Found,
    ) -> bool {
        loop {
            let current = at.as_deref().unwrap_or(from);
            if found.len() >= n || upper.is_some_and(|u| *current >= u[..]) {
                return true;
            }
            if let Some((_, seg)) = covering(&self.segments, current) {
                let first = slots_below(&self.slab, &seg.slots, current);
                for &slot in &seg.slots[first..] {
                    if found.len() >= n {
                        return true;
                    }
                    let entry = self.slab.get(slot);
                    found.push(&entry.key, entry.value.clone());
                    self.policy.on_hit(slot);
                }
                *at = Some(seg.end.clone());
            } else if let Some(slot) = self.find(current) {
                // A resident entry is its own coverage: `[k, k⁺)`.
                found.push(current, self.slab.get(slot).value.clone());
                self.policy.on_hit(slot);
                if found.len() >= n {
                    return true;
                }
                *at = Some(next_key(current));
            } else {
                return false;
            }
        }
    }

    fn check_invariants(&self) {
        // Segments disjoint and sorted, each listing its entries in key
        // order.
        let mut prev_end: Option<&Bytes> = None;
        let mut listed = 0usize;
        for (s, seg) in &self.segments {
            assert!(*s < seg.end, "degenerate segment");
            if let Some(pe) = prev_end {
                assert!(pe <= s, "segments overlap");
            }
            prev_end = Some(&seg.end);
            let keys: Vec<&[u8]> = seg.slots.iter().map(|&k| &*self.slab.get(k).key).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "list out of order");
            assert!(
                keys.iter().all(|k| s[..] <= **k && **k < seg.end[..]),
                "segment [{s:?}, {:?}) lists a key outside it",
                seg.end
            );
            listed += keys.len();
        }
        assert!(
            self.segments.len() <= self.segment_cap(),
            "segment map over its cap"
        );
        // Slab and hash index hold the same entries, and every entry is
        // covered: what the hash index finds is its own coverage. The
        // segments list exactly the entries inside them, and each slot's
        // bit says whether one does. (The policy cannot be asked what it
        // tracks; it disagrees visibly: a victim that is not resident
        // panics in the slab, a resident it lost can never be evicted and
        // `used` stays above `capacity`.)
        assert_eq!(self.slab.len(), self.index.len(), "hash index size");
        let mut used = 0usize;
        let mut covered = 0usize;
        let (mut key_bytes, mut shared_key_bytes, mut key_heap) = (0, 0, 0);
        for (slot, entry) in self.slab.iter() {
            let key = &entry.key[..];
            assert_eq!(self.find(key), Some(slot), "hash index misses {key:?}");
            let in_segment = covering(&self.segments, key).is_some();
            assert_eq!(
                self.slab.is_covered(slot),
                in_segment,
                "covered bit of {key:?}"
            );
            assert_eq!(
                entry.key.shared().is_some(),
                key.len() > slots::IN_PLACE,
                "{key:?} is stored out of place while it fits, or the reverse"
            );
            key_bytes += key.len();
            shared_key_bytes += entry.key.shared().map_or(0, |k| k.len());
            key_heap += entry.key.heap_bytes();
            covered += in_segment as usize;
            used += Self::charge_of(key, &entry.value);
        }
        assert_eq!(used, self.used, "byte accounting drifted");
        assert_eq!(
            (key_bytes, shared_key_bytes, key_heap),
            (self.key_bytes, self.shared_key_bytes, self.key_heap),
            "key terms drifted"
        );
        assert_eq!(covered, listed, "segment lists size");
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
}

impl RangeCache {
    /// A single-shard cache that evicts by [`SlotClockPolicy`] (the
    /// configuration evaluated as "Range Cache" in the paper, which runs
    /// LRU there).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Box::new(|| Box::new(SlotClockPolicy::new())))
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
        }
    }

    /// Attaches an observability handle: the registry names the hit and
    /// miss cells and every shard's eviction and coverage-drop cells
    /// `cache.range.*`, and the shards publish their segments. A second
    /// call is a no-op.
    pub fn set_obs(&self, obs: Obs) {
        if self.shards[0].lock().obs.is_some() {
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

    fn shard_idx(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_ref() <= key)
    }

    /// Upper boundary of shard `i` (`None` for the last shard).
    fn shard_end(&self, i: usize) -> Option<&Bytes> {
        self.boundaries.get(i)
    }

    /// Point lookup. A hit is one hash probe, one slot read and one
    /// counter bump in the policy, all O(1), and allocates nothing.
    pub fn get_point(&self, key: &[u8]) -> PointLookup {
        let mut shard = self.shards[self.shard_idx(key)].lock();
        if let Some(slot) = shard.find(key) {
            let value = shard.slab.get(slot).value.clone();
            shard.policy.on_hit(slot);
            drop(shard);
            self.hits.inc();
            return PointLookup::Hit(value);
        }
        if covering(&shard.segments, key).is_some() {
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
    /// point an LSM scan must resume from. A walk that finds every entry
    /// allocates two things: the vector it returns and one buffer that all
    /// its keys are slices of.
    fn walk_range(&self, from: &[u8], n: usize) -> (Vec<(Bytes, Bytes)>, Option<Bytes>) {
        FOUND.with_borrow_mut(|found| {
            // Empty unless an earlier walk on this thread panicked.
            found.keys.clear();
            found.entries.clear();
            let mut at: Option<Bytes> = None;
            let complete = loop {
                // Coverage that reaches a shard's upper boundary continues
                // in the next shard, which owns the boundary key.
                let idx = self.shard_idx(at.as_deref().unwrap_or(from));
                let covered =
                    self.shards[idx]
                        .lock()
                        .walk(from, &mut at, self.shard_end(idx), n, found);
                if found.len() >= n {
                    break true;
                }
                if !covered {
                    break false;
                }
            };
            if complete {
                (found.take(0), None)
            } else {
                // Room for the tail the caller reads from the tree.
                let cont = at.unwrap_or_else(|| Bytes::copy_from_slice(from));
                (found.take(n.min(64)), Some(cont))
            }
        })
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
    /// already resident there but missing from `results` would be left off
    /// the list of entries the segment's scans walk. The engine meets it by
    /// filling while the scan still holds its read locks: no write lands
    /// in the range between the read and this call, so every key a point
    /// fill admits there meanwhile is one the scan read.
    pub fn insert_scan(&self, from: &[u8], results: &[(Bytes, Bytes)], admitted_len: usize) {
        let admitted = admitted_len.min(results.len());
        if results.is_empty() {
            let idx = self.shard_idx(from);
            let mut shard = self.shards[idx].lock();
            // `[from, from⁺)` holds one key; if it is resident, the segment
            // lists it.
            let slots = shard.find(from).into_iter().collect();
            let start = Bytes::copy_from_slice(from);
            let end = next_key(from);
            shard.add_segment(start, end, slots);
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
            let mut slots = Vec::new();
            while i < admitted && shard_upper.is_none_or(|ub| results[i].0 < *ub) {
                let (key, value) = &results[i];
                slots.push(shard.upsert_entry(key.clone(), value.clone()).0);
                i += 1;
            }
            // Cover this shard's part of the key space: up to the boundary
            // when more entries follow in the next shard.
            let seg_end = match shard_upper {
                Some(ub) if i < admitted => ub.clone(),
                _ => next_key(&results[i - 1].0),
            };
            let start = std::mem::replace(&mut seg_start, seg_end.clone());
            shard.add_segment(start, seg_end, slots);
            shard.evict_to_capacity();
        }
    }

    /// Admits a single point-lookup result. Outside every segment the
    /// entry is its own coverage and goes on no list.
    pub fn insert_point(&self, key: Bytes, value: Bytes) {
        let idx = self.shard_idx(&key);
        let mut shard = self.shards[idx].lock();
        let (slot, new) = shard.upsert_entry(key, value);
        if new {
            shard.enter_segment(slot);
        }
        shard.evict_to_capacity();
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
                    None if covering(&shard.segments, key).is_some() => {
                        let slot = shard.insert_entry(hash, SlotKey::copy_of(key), v.clone());
                        shard.enter_segment(slot);
                    }
                    None => return,
                }
                shard.evict_to_capacity();
            }
            None => {
                let Some(slot) = shard.find(key) else {
                    return;
                };
                if shard.slab.is_covered(slot) {
                    shard.leave_segment(slot);
                    shard.remove_entry(slot, false);
                } else {
                    // The entry was its own coverage. The key stays
                    // covered, now as absent — what a delete inside a
                    // segment leaves behind too.
                    shard.remove_entry(slot, false);
                    let end = next_key(key);
                    shard.add_segment(Bytes::copy_from_slice(key), end, Vec::new());
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
                policy.on_external_remove(slot);
            }
            s.invalidations += s.slab.len() as u64;
            s.slab.clear();
            s.index.clear();
            s.segments.clear();
            s.used = 0;
            (s.key_bytes, s.shared_key_bytes, s.value_bytes) = (0, 0, 0);
            (s.key_heap, s.value_heap) = (0, 0);
            s.publish_segments();
        }
    }

    /// Re-targets the total byte budget (split across shards).
    pub fn set_capacity(&self, capacity: usize) {
        let per_shard = capacity / self.shards.len();
        for s in &self.shards {
            let mut s = s.lock();
            s.capacity = per_shard;
            s.evict_to_capacity();
        }
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

    /// What the cache holds, for the memory ledger, summed over shards.
    pub fn footprint(&self) -> RangeFootprint {
        let mut sum = RangeFootprint::default();
        for s in &self.shards {
            sum.add(&s.lock().footprint());
        }
        sum
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
    /// entries, its segments list exactly the entries inside them in key
    /// order, segments are disjoint and within their cap, and the byte
    /// accounting adds up and fits the budget. For tests.
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

    /// Entries on some segment's list, over every shard.
    fn listed(c: &RangeCache) -> usize {
        let shards = c.shards.iter().map(|s| s.lock());
        shards
            .map(|s| {
                s.segments
                    .values()
                    .map(|seg| seg.slots.len())
                    .sum::<usize>()
            })
            .sum()
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

    /// Entries hit twice outlive one-off scan fills of as many entries as
    /// the cache holds: the fills enter at a use count of 0 and go first,
    /// where an LRU pushes out every entry the cache held before them.
    #[test]
    fn hot_points_outlive_a_cache_sized_scan_fill() {
        const HELD: usize = 64;
        let c = RangeCache::new(HELD * (7 + 7 + ENTRY_OVERHEAD));
        for i in 0..HELD {
            let (k, v) = kv(i);
            c.insert_point(k, v);
        }
        let hot = [3, 17, 40, 63];
        for _ in 0..2 {
            for i in hot {
                assert_eq!(c.get_point(&kv(i).0), PointLookup::Hit(kv(i).1));
            }
        }
        for first in (1000..1000 + HELD).step_by(16) {
            c.insert_scan(&kv(first).0, &scan_result(first, 16), 16);
        }
        assert_eq!((c.len(), c.stats().evictions), (HELD, HELD as u64));
        for i in hot {
            assert_eq!(
                c.get_point(&kv(i).0),
                PointLookup::Hit(kv(i).1),
                "hot key {i}"
            );
        }
        c.check_invariants();
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
        let factory: RangePolicyFactory = Box::new(|| Box::new(SlotClockPolicy::new()));
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
        // Two point entries, outside every segment, hence on no list.
        c.insert_point(kv(1).0, kv(1).1);
        c.insert_point(kv(3).0, kv(3).1);
        assert_eq!(listed(&c), 0);
        // A scan over them updates both; the segment it makes must walk
        // through them as through the entries it adds.
        c.insert_scan(&kv(0).0, &scan_result(0, 5), 5);
        assert_eq!(listed(&c), 5);
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
            let segments = shard.segments.iter();
            let segments = segments.map(|(s, seg)| (s.clone(), seg.end.clone(), seg.slots.clone()));
            segments.collect::<Vec<_>>()
        };
        let before = snapshot(&c);
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].2.len(), 4, "only the scanned entries are listed");
        c.set_capacity(5 * (7 + 7 + 48));
        assert_eq!((c.len(), c.stats().evictions), (5, 1));
        assert_eq!(snapshot(&c), before);
        assert_eq!(c.get_point(&kv(50).0), PointLookup::Miss);
        assert_eq!(c.get_point(&kv(51).0), PointLookup::Hit(kv(51).1));
        c.check_invariants();
    }

    #[test]
    fn sharded_cache_serves_cross_boundary_scans() {
        let factory: RangePolicyFactory = Box::new(|| Box::new(SlotClockPolicy::new()));
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
