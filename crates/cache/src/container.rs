//! A byte-charged LRU cache container.
//!
//! [`ChargedCache`] holds the entries, their recency order and the byte
//! budget of the block and KV caches. Capacity can be re-set at runtime —
//! the mechanism behind AdCache's dynamic cache boundary — and shrinking
//! evicts immediately until the new budget holds.

use crate::policy::RecencyList;
use adcache_lsm::heap;
use adcache_obs::Counter;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Counters exposed by every cache in this crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Entries evicted by policy decision.
    pub evictions: u64,
    /// Entries dropped by invalidation or explicit removal. For the range
    /// cache these are write-invalidations only — entries a delete or
    /// `clear` removed; its coverage backstop forgets segments, never
    /// entries, and counts them in `RangeCache::coverage_dropped`.
    pub invalidations: u64,
}

/// The live cells behind a [`CacheStats`]: what a cache counts, once, and
/// what its `set_obs` names in the registry.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Lookups that found a resident entry.
    pub hits: Counter,
    /// Lookups that found nothing.
    pub misses: Counter,
    /// Entries admitted.
    pub inserts: Counter,
    /// Entries evicted by policy decision.
    pub evictions: Counter,
    /// Entries dropped by invalidation or explicit removal.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Hit rate over all lookups, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded LRU map from `K` to `V` where each entry carries an
/// explicit byte charge.
///
/// One hash map finds a key's node; the node holds the entry and sits on a
/// recency list, least recently used first, so a hit is one probe and a
/// victim none. Freed nodes are recycled, so the node vectors are as long
/// as the largest resident set seen.
pub struct ChargedCache<K, V> {
    index: HashMap<K, u32>,
    /// The entries by node number; `None` while a node is free.
    nodes: Vec<Option<Node<K, V>>>,
    recency: RecencyList,
    capacity: usize,
    used: usize,
    stats: CacheCounters,
}

struct Node<K, V> {
    key: K,
    value: V,
    charge: usize,
}

impl<K: Clone + Eq + Hash, V> ChargedCache<K, V> {
    /// Creates a cache bounded at `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        ChargedCache {
            index: HashMap::new(),
            nodes: Vec::new(),
            recency: RecencyList::new(),
            capacity,
            used: 0,
            stats: CacheCounters::default(),
        }
    }

    fn node(&self, i: u32) -> &Node<K, V> {
        self.nodes[i as usize]
            .as_ref()
            .expect("indexed node is resident")
    }

    /// Looks up `key`, updating recency on hit and the hit/miss counters.
    /// Like the lookups below it takes any borrowed form of the key, so a
    /// `Bytes`-keyed cache is probed with a `&[u8]` and no owned copy.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.index.get(key) {
            Some(&i) => {
                self.stats.hits.inc();
                self.recency.touch(i);
                Some(&self.node(i).value)
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Looks up without touching recency or counters (for introspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        Some(&self.node(i).value)
    }

    /// Whether `key` is resident (no side effects).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.contains_key(key)
    }

    /// Inserts `key -> value` charged at `charge` bytes as the most recently
    /// used entry, evicting as needed. Returns the evicted entries, led by
    /// the value `key` replaced, if any. An entry larger than the whole
    /// capacity is refused (returned back as the sole "evicted" item).
    pub fn insert(&mut self, key: K, value: V, charge: usize) -> Vec<(K, V)> {
        if charge > self.capacity {
            return vec![(key, value)];
        }
        let mut evicted = Vec::new();
        self.stats.inserts.inc();
        self.used += charge;
        match self.index.get(&key) {
            Some(&i) => {
                let node = self.nodes[i as usize].as_mut().expect("resident");
                self.used -= std::mem::replace(&mut node.charge, charge);
                evicted.push((key, std::mem::replace(&mut node.value, value)));
                self.recency.touch(i);
            }
            None => {
                let i = self.recency.push_new();
                self.index.insert(key.clone(), i);
                let node = Some(Node { key, value, charge });
                match self.nodes.get_mut(i as usize) {
                    Some(free) => *free = node,
                    None => self.nodes.push(node),
                }
            }
        }
        self.evict_to_capacity(&mut evicted);
        evicted
    }

    /// Frees node `i`, which is resident and already out of the index.
    fn release(&mut self, i: u32) -> Node<K, V> {
        self.recency.release(i);
        let node = self.nodes[i as usize].take().expect("resident");
        self.used -= node.charge;
        node
    }

    /// Evicts least recently used entries into `evicted` until the charge
    /// fits the capacity.
    fn evict_to_capacity(&mut self, evicted: &mut Vec<(K, V)>) {
        while self.used > self.capacity {
            let Some(i) = self.recency.pop_lru() else {
                break;
            };
            let node = self.release(i);
            self.index.remove(&node.key);
            self.stats.evictions.inc();
            evicted.push((node.key, node.value));
        }
    }

    /// Removes `key` (invalidation path). Returns the value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.index.remove(key)?;
        self.stats.invalidations.inc();
        Some(self.release(i).value)
    }

    /// Removes every entry matching `pred`, returning how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut doomed = Vec::new();
        self.index.retain(|k, &mut i| {
            keep(k) || {
                doomed.push(i);
                false
            }
        });
        for &i in &doomed {
            self.release(i);
            self.stats.invalidations.inc();
        }
        doomed.len()
    }

    /// Re-targets the byte budget, evicting down to it when shrinking.
    /// Returns the evicted entries.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(K, V)> {
        self.capacity = capacity;
        let mut evicted = Vec::new();
        self.evict_to_capacity(&mut evicted);
        evicted
    }

    /// Current byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let c = &self.stats;
        CacheStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            inserts: c.inserts.get(),
            evictions: c.evictions.get(),
            invalidations: c.invalidations.get(),
        }
    }

    /// The live counter cells.
    pub fn counters(&self) -> &CacheCounters {
        &self.stats
    }

    /// What the cache holds, for the memory ledger. `heap_of` gives an
    /// entry's `(payload, other)` heap bytes; the index, the nodes and the
    /// recency links are added to the second.
    pub fn footprint(&self, heap_of: impl Fn(&K, &V) -> (usize, usize)) -> CacheFootprint {
        let mut f = CacheFootprint {
            charged: self.used,
            payload_heap: 0,
            structure_heap: heap::hash_map(&self.index)
                + heap::vec(&self.nodes)
                + self.recency.heap_bytes(),
        };
        for node in self.nodes.iter().flatten() {
            let (payload, other) = heap_of(&node.key, &node.value);
            f.payload_heap += payload;
            f.structure_heap += other;
        }
        f
    }
}

/// What a [`ChargedCache`] holds, for the memory ledger, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheFootprint {
    /// Charged bytes.
    pub charged: usize,
    /// Heap bytes of the cached payloads (values, block buffers) were each
    /// one allocation of its own.
    pub payload_heap: usize,
    /// Heap bytes of everything else: index, nodes, links, keys, handles.
    pub structure_heap: usize,
}

impl CacheFootprint {
    /// Adds `other`'s terms to these.
    pub fn add(&mut self, other: &CacheFootprint) {
        self.charged += other.charged;
        self.payload_heap += other.payload_heap;
        self.structure_heap += other.structure_heap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> ChargedCache<u32, String> {
        ChargedCache::new(cap)
    }

    #[test]
    fn insert_get_and_stats() {
        let mut c = cache(100);
        assert!(c.insert(1, "a".into(), 10).is_empty());
        assert_eq!(c.get(&1), Some(&"a".to_string()));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.used(), 10);
    }

    #[test]
    fn eviction_respects_byte_budget_and_lru_order() {
        let mut c = cache(30);
        c.insert(1, "a".into(), 10);
        c.insert(2, "b".into(), 10);
        c.insert(3, "c".into(), 10);
        c.get(&1); // 1 becomes MRU
        let evicted = c.insert(4, "d".into(), 20);
        // Need to free 20 bytes: victims are 2 then 3.
        let keys: Vec<u32> = evicted.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3]);
        assert!(c.contains(&1) && c.contains(&4));
        assert_eq!(c.used(), 30);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut c = cache(10);
        let refused = c.insert(1, "big".into(), 11);
        assert_eq!(refused.len(), 1);
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_replaces_charge() {
        let mut c = cache(100);
        c.insert(1, "a".into(), 10);
        c.insert(1, "b".into(), 30);
        assert_eq!(c.used(), 30);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&"b".to_string()));
    }

    #[test]
    fn shrink_capacity_evicts_down() {
        let mut c = cache(100);
        for k in 0..10u32 {
            c.insert(k, format!("{k}"), 10);
        }
        let evicted = c.set_capacity(35);
        assert_eq!(evicted.len(), 7, "must evict down to 3 entries");
        assert_eq!(c.used(), 30);
        assert_eq!(c.capacity(), 35);
        // Survivors are the most recent.
        assert!(c.contains(&9) && c.contains(&8) && c.contains(&7));
    }

    #[test]
    fn grow_capacity_keeps_entries() {
        let mut c = cache(20);
        c.insert(1, "a".into(), 10);
        c.insert(2, "b".into(), 10);
        assert!(c.set_capacity(100).is_empty());
        assert_eq!(c.len(), 2);
        c.insert(3, "c".into(), 50);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn remove_and_retain() {
        let mut c = cache(100);
        for k in 0..5u32 {
            c.insert(k, format!("{k}"), 10);
        }
        assert_eq!(c.remove(&2), Some("2".to_string()));
        assert_eq!(c.remove(&2), None);
        let dropped = c.retain(|k| *k % 2 == 0);
        assert_eq!(dropped, 2); // 1 and 3
        assert_eq!(c.len(), 2); // 0 and 4
        assert_eq!(c.used(), 20);
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn zero_capacity_admits_nothing() {
        let mut c = cache(0);
        c.insert(1, "a".into(), 1);
        assert!(c.is_empty());
    }
}
