//! A byte-charged cache container with pluggable eviction.
//!
//! [`ChargedCache`] owns the resident map and the byte budget; a
//! [`Policy`] chooses victims. Capacity can be re-set at runtime — the
//! mechanism behind AdCache's dynamic cache boundary — and shrinking evicts
//! immediately until the new budget holds.

use crate::policy::Policy;
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

/// A capacity-bounded map from `K` to `V` where each entry carries an
/// explicit byte charge.
pub struct ChargedCache<K, V> {
    map: HashMap<K, (V, usize)>,
    policy: Box<dyn Policy<K>>,
    capacity: usize,
    used: usize,
    stats: CacheCounters,
}

impl<K: Clone + Eq + Hash, V> ChargedCache<K, V> {
    /// Creates a cache bounded at `capacity` bytes.
    pub fn new(capacity: usize, policy: Box<dyn Policy<K>>) -> Self {
        ChargedCache {
            map: HashMap::new(),
            policy,
            capacity,
            used: 0,
            stats: CacheCounters::default(),
        }
    }

    /// Looks up `key`, updating recency on hit and the hit/miss counters.
    /// Like the lookups below it takes any borrowed form of the key, so a
    /// `Bytes`-keyed cache is probed with a `&[u8]` and no owned copy.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.map.get_key_value(key) {
            Some((k, (v, _))) => {
                self.stats.hits.inc();
                self.policy.on_hit(k);
                Some(v)
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Looks up without touching recency or counters (for introspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Whether `key` is resident (no side effects).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Inserts `key -> value` charged at `charge` bytes, evicting as needed.
    /// Returns the evicted entries. An entry larger than the whole capacity
    /// is refused (returned back as the sole "evicted" item).
    pub fn insert(&mut self, key: K, value: V, charge: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        if charge > self.capacity {
            // Refuse oversized entries outright.
            evicted.push((key, value));
            return evicted;
        }
        if let Some((old_v, old_charge)) = self.map.remove(&key) {
            self.used -= old_charge;
            self.policy.on_external_remove(&key);
            evicted.push((key.clone(), old_v));
        }
        self.stats.inserts.inc();
        self.used += charge;
        self.map.insert(key.clone(), (value, charge));
        self.policy.on_insert(&key);
        while self.used > self.capacity {
            let Some(victim) = self.policy.victim() else {
                break;
            };
            if let Some((v, c)) = self.map.remove(&victim) {
                self.used -= c;
                self.stats.evictions.inc();
                evicted.push((victim, v));
            }
        }
        evicted
    }

    /// Removes `key` (invalidation path). Returns the value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (k, (v, c)) = self.map.remove_entry(key)?;
        self.used -= c;
        self.policy.on_external_remove(&k);
        self.stats.invalidations.inc();
        Some(v)
    }

    /// Removes every entry matching `pred`, returning how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let doomed: Vec<K> = self.map.keys().filter(|k| !keep(k)).cloned().collect();
        let n = doomed.len();
        for k in doomed {
            self.remove(&k);
        }
        n
    }

    /// Re-targets the byte budget, evicting down to it when shrinking.
    /// Returns the evicted entries.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(K, V)> {
        self.capacity = capacity;
        let mut evicted = Vec::new();
        while self.used > self.capacity {
            let Some(victim) = self.policy.victim() else {
                break;
            };
            if let Some((v, c)) = self.map.remove(&victim) {
                self.used -= c;
                self.stats.evictions.inc();
                evicted.push((victim, v));
            }
        }
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
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LruPolicy;

    fn cache(cap: usize) -> ChargedCache<u32, String> {
        ChargedCache::new(cap, Box::new(LruPolicy::new()))
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
