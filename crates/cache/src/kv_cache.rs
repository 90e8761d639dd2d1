//! Point-result (key-value) cache — RocksDB's Row Cache analogue.
//!
//! Stores individual key-value pairs decoupled from the on-disk block
//! layout, so entries survive compactions. Only point lookups can hit it;
//! scans bypass it entirely (the paper's "KV Cache" baseline, Section 5.1).

use crate::container::{CacheStats, ChargedCache};
use crate::policy::{LruPolicy, Policy};
use adcache_obs::{CacheStructure, Event, EvictionCause, Obs};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Per-entry bookkeeping overhead added to the byte charge.
const ENTRY_OVERHEAD: usize = 32;

/// A thread-safe key-value result cache.
pub struct KvCache {
    inner: Mutex<ChargedCache<Bytes, Bytes>>,
    /// Set once by `set_obs`, for eviction events.
    obs: OnceLock<Obs>,
}

impl KvCache {
    /// Creates an LRU-managed cache bounded at `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Box::new(LruPolicy::new()))
    }

    /// Creates a cache with a custom eviction policy.
    pub fn with_policy(capacity: usize, policy: Box<dyn Policy<Bytes>>) -> Self {
        KvCache {
            inner: Mutex::new(ChargedCache::new(capacity, policy)),
            obs: OnceLock::new(),
        }
    }

    /// Attaches an observability handle: the registry names the cache's
    /// hit, miss and eviction cells `cache.kv.*`, and eviction events flow
    /// into it. A second call is a no-op.
    pub fn set_obs(&self, obs: Obs) {
        if self.obs.set(obs.clone()).is_err() {
            return;
        }
        let inner = self.inner.lock();
        let c = inner.counters();
        obs.adopt_counter("cache.kv.hits", &c.hits);
        obs.adopt_counter("cache.kv.misses", &c.misses);
        obs.adopt_counter("cache.kv.evictions", &c.evictions);
    }

    fn note_evictions(
        &self,
        cause: EvictionCause,
        inserted: Option<&Bytes>,
        mut evicted: &[(Bytes, Bytes)],
    ) {
        // A same-key replacement (or an oversized refusal bounced back) is
        // not a policy eviction.
        while let (Some(ins), Some((k, _))) = (inserted, evicted.first()) {
            if k == ins {
                evicted = &evicted[1..];
            } else {
                break;
            }
        }
        if evicted.is_empty() {
            return;
        }
        if let Some(obs) = self.obs.get() {
            obs.emit(|| Event::Eviction {
                cache: CacheStructure::Kv,
                cause,
                count: evicted.len() as u64,
                bytes: evicted
                    .iter()
                    .map(|(k, v)| (k.len() + v.len() + ENTRY_OVERHEAD) as u64)
                    .sum(),
            });
        }
    }

    /// Looks up a point result.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.inner.lock().get(key).cloned()
    }

    /// Admits a point result.
    pub fn insert(&self, key: Bytes, value: Bytes) {
        let charge = key.len() + value.len() + ENTRY_OVERHEAD;
        let key_probe = key.clone();
        let evicted = self.inner.lock().insert(key, value, charge);
        self.note_evictions(EvictionCause::Capacity, Some(&key_probe), &evicted);
    }

    /// Applies a write: overwrites a resident entry or drops it on delete,
    /// so the cache never serves stale data.
    pub fn on_write(&self, key: &[u8], value: Option<&Bytes>) {
        let mut inner = self.inner.lock();
        match value {
            Some(v) if inner.contains(key) => {
                let charge = key.len() + v.len() + ENTRY_OVERHEAD;
                inner.insert(Bytes::copy_from_slice(key), v.clone(), charge);
            }
            Some(_) => {}
            None => {
                inner.remove(key);
            }
        }
    }

    /// Drops every resident entry (capacity unchanged).
    pub fn clear(&self) {
        self.inner.lock().retain(|_| false);
    }

    /// Re-targets the byte budget.
    pub fn set_capacity(&self, capacity: usize) {
        let evicted = self.inner.lock().set_capacity(capacity);
        self.note_evictions(EvictionCause::Resize, None, &evicted);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Bytes resident.
    pub fn used(&self) -> usize {
        self.inner.lock().used()
    }

    /// Byte budget.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_roundtrip() {
        let c = KvCache::new(1 << 16);
        assert!(c.get(b"k").is_none());
        c.insert(Bytes::from_static(b"k"), Bytes::from_static(b"v"));
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn writes_update_and_deletes_invalidate() {
        let c = KvCache::new(1 << 16);
        c.insert(Bytes::from_static(b"k"), Bytes::from_static(b"v1"));
        c.on_write(b"k", Some(&Bytes::from_static(b"v2")));
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v2");
        c.on_write(b"k", None);
        assert!(c.get(b"k").is_none());
        // Writes to non-resident keys do not admit.
        c.on_write(b"other", Some(&Bytes::from_static(b"x")));
        assert!(c.get(b"other").is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let c = KvCache::new(3 * (1 + 1 + 32));
        for (k, v) in [("a", "1"), ("b", "2"), ("c", "3")] {
            c.insert(
                Bytes::copy_from_slice(k.as_bytes()),
                Bytes::copy_from_slice(v.as_bytes()),
            );
        }
        c.get(b"a");
        c.insert(Bytes::from_static(b"d"), Bytes::from_static(b"4"));
        assert!(c.get(b"b").is_none(), "LRU victim must be b");
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"d").is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_resize() {
        let c = KvCache::new(1 << 16);
        for i in 0..100u32 {
            c.insert(Bytes::from(format!("k{i}")), Bytes::from(vec![0u8; 100]));
        }
        c.set_capacity(500);
        assert!(c.used() <= 500);
        assert!(c.len() <= 4);
    }
}
