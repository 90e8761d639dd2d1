//! Sharded block cache (RocksDB-style).
//!
//! Caches decoded data blocks keyed by `(file, block_no)`. Because keys are
//! physical, compactions invalidate every cached block of the files they
//! delete — the structural weakness of block caching that motivates the
//! paper (Section 2.2). The cache registers as a [`CompactionListener`] to
//! perform exactly that sweep.
//!
//! Lookups go through a [`ScopedBlockProvider`], created per query, which
//! carries an optional *admission budget*: AdCache's partial scan admission
//! applied at block granularity (paper Section 3.4, closing note) — after
//! the budget is consumed, further misses still read from storage but are
//! not admitted.

use crate::container::{CacheStats, ChargedCache};
use crate::policy::{LruPolicy, Policy};
use adcache_lsm::compaction::{CompactionEvent, CompactionListener};
use adcache_lsm::sstable::{decode_stored_block_at, BlockProvider, TableMeta};
use adcache_lsm::{Block, BlockRef, FileId, Result, Storage};
use adcache_obs::{CacheStructure, Event, EvictionCause, Obs};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Factory producing one eviction policy per shard.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn Policy<BlockRef>> + Send + Sync>;

fn evicted_block_bytes(evicted: &[(BlockRef, Arc<Block>)]) -> u64 {
    evicted.iter().map(|(_, b)| b.encoded_len() as u64).sum()
}

/// A sharded, byte-charged cache of decoded SSTable blocks.
pub struct BlockCache {
    shards: Vec<Mutex<ChargedCache<BlockRef, Arc<Block>>>>,
    /// Set once by `set_obs`; absent, every event hook is one relaxed load
    /// and an untaken branch.
    obs: OnceLock<Obs>,
    decode_failures: AtomicU64,
}

fn shard_of(key: &BlockRef, n: usize) -> usize {
    // Mix file and block number; files are few so spread blocks too.
    let h = key
        .file
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((key.block_no as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    (h >> 32) as usize % n
}

impl BlockCache {
    /// Creates a cache with `capacity` total bytes split over `shards`
    /// LRU-managed shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_policy(capacity, shards, Box::new(|| Box::new(LruPolicy::new())))
    }

    /// Creates a cache with a custom per-shard eviction policy.
    pub fn with_policy(capacity: usize, shards: usize, factory: PolicyFactory) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity / shards;
        BlockCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ChargedCache::new(per_shard, factory())))
                .collect(),
            obs: OnceLock::new(),
            decode_failures: AtomicU64::new(0),
        }
    }

    /// Attaches an observability handle: the registry names every shard's
    /// counter cells `cache.block.*`, and eviction events flow into it from
    /// now on. A second call is a no-op.
    pub fn set_obs(&self, obs: Obs) {
        if self.obs.set(obs.clone()).is_err() {
            return;
        }
        for s in &self.shards {
            let s = s.lock();
            let c = s.counters();
            for (name, cell) in [
                ("cache.block.hits", &c.hits),
                ("cache.block.misses", &c.misses),
                ("cache.block.inserts", &c.inserts),
                ("cache.block.evictions", &c.evictions),
                ("cache.block.invalidations", &c.invalidations),
            ] {
                obs.adopt_counter(name, cell);
            }
        }
    }

    /// Re-targets the total byte budget (split evenly across shards),
    /// evicting overflow immediately. Returns how many blocks were evicted.
    pub fn set_capacity(&self, capacity: usize) -> usize {
        let per_shard = capacity / self.shards.len();
        let mut count = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let evicted = s.lock().set_capacity(per_shard);
            count += evicted.len() as u64;
            bytes += evicted_block_bytes(&evicted);
        }
        if let Some(obs) = self.obs.get().filter(|_| count > 0) {
            obs.emit(|| Event::Eviction {
                cache: CacheStructure::Block,
                cause: EvictionCause::Resize,
                count,
                bytes,
            });
        }
        count as usize
    }

    /// Total byte budget.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Bytes currently resident.
    pub fn used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used()).sum()
    }

    /// Resident block count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across shards.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in &self.shards {
            let st = s.lock().stats();
            agg.hits += st.hits;
            agg.misses += st.misses;
            agg.inserts += st.inserts;
            agg.evictions += st.evictions;
            agg.invalidations += st.invalidations;
        }
        agg
    }

    /// Drops every resident block (capacity unchanged).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().retain(|_| false);
        }
    }

    /// Drops every cached block belonging to `files`. Returns the number of
    /// blocks invalidated.
    pub fn invalidate(&self, files: &[FileId]) -> usize {
        let mut dropped = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let mut shard = s.lock();
            let before = shard.used() as u64;
            dropped += shard.retain(|k| !files.contains(&k.file)) as u64;
            bytes += before - shard.used() as u64;
        }
        if let Some(obs) = self.obs.get().filter(|_| dropped > 0) {
            obs.emit(|| Event::BlockCacheInvalidation {
                files: files.len() as u64,
                blocks_dropped: dropped,
            });
            obs.emit(|| Event::Eviction {
                cache: CacheStructure::Block,
                cause: EvictionCause::Invalidation,
                count: dropped,
                bytes,
            });
        }
        dropped as usize
    }

    /// Directly admits a decoded block (warm-up paths and layer benchmarks).
    pub fn insert_block(&self, key: BlockRef, block: Arc<Block>) {
        let charge = block.encoded_len();
        let evicted = self.shards[shard_of(&key, self.shards.len())]
            .lock()
            .insert(key, block, charge);
        self.note_insert(&key, &evicted);
    }

    /// Event bookkeeping shared by the admission paths. Entries in
    /// `evicted` carrying the inserted key itself (same-key replacement, or
    /// an oversized refusal bounced straight back) are not policy evictions.
    fn note_insert(&self, inserted: &BlockRef, mut evicted: &[(BlockRef, Arc<Block>)]) {
        let Some(obs) = self.obs.get() else { return };
        while let Some((k, _)) = evicted.first() {
            if k == inserted {
                evicted = &evicted[1..];
            } else {
                break;
            }
        }
        if !evicted.is_empty() {
            obs.emit(|| Event::Eviction {
                cache: CacheStructure::Block,
                cause: EvictionCause::Capacity,
                count: evicted.len() as u64,
                bytes: evicted_block_bytes(evicted),
            });
        }
    }

    /// Blocks that failed checksum/decode verification on load and were
    /// therefore refused admission (the owning file's cached blocks are
    /// invalidated each time).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures.load(Ordering::Relaxed)
    }

    /// Looks up a block without admission side effects (tests/metrics).
    pub fn peek(&self, key: &BlockRef) -> Option<Arc<Block>> {
        self.shards[shard_of(key, self.shards.len())]
            .lock()
            .peek(key)
            .cloned()
    }

    /// A per-query provider with unlimited admission.
    pub fn provider(&self) -> ScopedBlockProvider<'_> {
        ScopedBlockProvider {
            cache: self,
            admit_remaining: AtomicUsize::new(usize::MAX),
        }
    }

    /// A per-query provider that admits at most `budget` missed blocks
    /// (partial scan admission at block granularity).
    pub fn provider_with_budget(&self, budget: usize) -> ScopedBlockProvider<'_> {
        ScopedBlockProvider {
            cache: self,
            admit_remaining: AtomicUsize::new(budget),
        }
    }

    fn get_or_load(
        &self,
        meta: &TableMeta,
        block_no: u32,
        storage: &dyn Storage,
        admit: &AtomicUsize,
    ) -> Result<Arc<Block>> {
        let key = BlockRef::new(meta.id, block_no);
        let shard = &self.shards[shard_of(&key, self.shards.len())];
        if let Some(block) = shard.lock().get(&key).cloned() {
            return Ok(block);
        }
        // Miss: fetch outside the shard lock (the device read dominates).
        let stored = storage.read_block(meta.id, block_no)?;
        let block = match decode_stored_block_at(meta.id, block_no, stored) {
            Ok(b) => Arc::new(b),
            Err(e) => {
                // Containment: a block that failed checksum/decode is never
                // admitted, and anything previously cached from the same
                // file is suspect — drop it so a corrupt device region
                // cannot keep serving stale decodes from memory.
                self.decode_failures.fetch_add(1, Ordering::Relaxed);
                self.invalidate(&[meta.id]);
                if let Some(obs) = self.obs.get() {
                    obs.emit(|| Event::BlockQuarantined {
                        file: meta.id,
                        block: block_no as u64,
                    });
                }
                return Err(e);
            }
        };
        let budget = admit.load(Ordering::Relaxed);
        if budget > 0 {
            admit.store(budget.saturating_sub(1), Ordering::Relaxed);
            let charge = block.encoded_len();
            let evicted = shard.lock().insert(key, block.clone(), charge);
            self.note_insert(&key, &evicted);
        }
        Ok(block)
    }
}

/// Per-query view of a [`BlockCache`] carrying the admission budget.
pub struct ScopedBlockProvider<'a> {
    cache: &'a BlockCache,
    admit_remaining: AtomicUsize,
}

impl ScopedBlockProvider<'_> {
    /// Remaining admission budget.
    pub fn remaining_budget(&self) -> usize {
        self.admit_remaining.load(Ordering::Relaxed)
    }
}

impl BlockProvider for ScopedBlockProvider<'_> {
    fn block(&self, meta: &TableMeta, block_no: u32, storage: &dyn Storage) -> Result<Arc<Block>> {
        self.cache
            .get_or_load(meta, block_no, storage, &self.admit_remaining)
    }

    fn invalidate_files(&self, files: &[FileId]) {
        self.cache.invalidate(files);
    }
}

impl CompactionListener for BlockCache {
    fn on_compaction(&self, event: &CompactionEvent) {
        self.invalidate(&event.obsolete_files);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_lsm::sstable::TableBuilder;
    use adcache_lsm::{MemStorage, Options};

    fn table(storage: &dyn Storage, id: FileId, n: usize) -> Arc<TableMeta> {
        let mut b = TableBuilder::new(id, &Options::small(), storage).unwrap();
        for i in 0..n {
            let k = format!("t{id}-k{i:05}");
            b.add_value(k.as_bytes(), Some(format!("v{i}").as_bytes()))
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn caches_blocks_and_avoids_repeat_io() {
        let storage = MemStorage::new();
        let meta = table(&storage, 1, 500);
        let cache = BlockCache::new(1 << 20, 4);
        let p = cache.provider();
        p.block(&meta, 0, &storage).unwrap();
        assert_eq!(storage.stats().reads(), 1);
        p.block(&meta, 0, &storage).unwrap();
        assert_eq!(
            storage.stats().reads(),
            1,
            "second access must hit the cache"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(cache.used() > 0);
    }

    #[test]
    fn eviction_under_byte_pressure() {
        let storage = MemStorage::new();
        let meta = table(&storage, 1, 2000);
        // Budget of ~2 blocks (blocks are ~512 B in Options::small()).
        let cache = BlockCache::new(1100, 1);
        let p = cache.provider();
        for b in 0..meta.num_blocks.min(10) {
            p.block(&meta, b, &storage).unwrap();
        }
        assert!(cache.len() <= 2);
        assert!(cache.stats().evictions > 0);
        assert!(cache.used() <= cache.capacity());
    }

    #[test]
    fn compaction_invalidates_only_obsolete_files() {
        let storage = MemStorage::new();
        let m1 = table(&storage, 1, 300);
        let m2 = table(&storage, 2, 300);
        let cache = BlockCache::new(1 << 20, 4);
        let p = cache.provider();
        p.block(&m1, 0, &storage).unwrap();
        p.block(&m2, 0, &storage).unwrap();
        assert_eq!(cache.len(), 2);
        cache.on_compaction(&CompactionEvent {
            from_level: 0,
            to_level: 1,
            obsolete_files: vec![1],
            new_files: vec![3],
            blocks_read: 0,
            blocks_written: 0,
            trivial_move: false,
        });
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(&BlockRef::new(2, 0)).is_some());
        assert!(cache.peek(&BlockRef::new(1, 0)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn admission_budget_limits_fills_but_not_reads() {
        let storage = MemStorage::new();
        let meta = table(&storage, 1, 2000);
        let cache = BlockCache::new(1 << 20, 1);
        let p = cache.provider_with_budget(2);
        for b in 0..6u32 {
            p.block(&meta, b, &storage).unwrap();
        }
        assert_eq!(storage.stats().reads(), 6, "reads always served");
        assert_eq!(cache.len(), 2, "only the budget is admitted");
        assert_eq!(p.remaining_budget(), 0);
        // Budget does not block cache *hits*.
        p.block(&meta, 0, &storage).unwrap();
        assert_eq!(storage.stats().reads(), 6);
    }

    #[test]
    fn set_capacity_shrinks_immediately() {
        let storage = MemStorage::new();
        let meta = table(&storage, 1, 2000);
        let cache = BlockCache::new(1 << 20, 2);
        let p = cache.provider();
        for b in 0..10u32 {
            p.block(&meta, b, &storage).unwrap();
        }
        let before = cache.len();
        assert!(before >= 8);
        let evicted = cache.set_capacity(1024);
        assert!(evicted > 0);
        assert!(cache.used() <= 1024);
    }

    #[test]
    fn corrupt_block_is_never_admitted_and_file_is_purged() {
        use adcache_lsm::{FaultPlan, FaultStorage, LsmError};

        let storage = Arc::new(MemStorage::new());
        let meta = table(storage.as_ref(), 1, 500);
        let faulty = FaultStorage::new(storage, 99, FaultPlan::none());
        let cache = BlockCache::new(1 << 20, 4);
        let p = cache.provider();
        // Warm the cache with a clean block from the same file.
        p.block(&meta, 0, &faulty).unwrap();
        assert_eq!(cache.len(), 1);

        // Every subsequent device read returns a bit-flipped copy.
        faulty.set_plan(FaultPlan {
            bit_flip: 1.0,
            ..FaultPlan::none()
        });
        let err = p.block(&meta, 1, &faulty).unwrap_err();
        assert!(matches!(err, LsmError::Corruption(_)), "got {err:?}");
        assert!(
            cache.is_empty(),
            "corrupt block must not be admitted and the file's blocks purged"
        );
        assert_eq!(cache.decode_failures(), 1);

        // Containment, not collapse: once the device reads clean again the
        // same cache keeps serving and admitting.
        faulty.set_plan(FaultPlan::none());
        p.block(&meta, 1, &faulty).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_cache_passes_reads_through() {
        let storage = MemStorage::new();
        let meta = table(&storage, 1, 100);
        let cache = BlockCache::new(0, 1);
        let p = cache.provider();
        p.block(&meta, 0, &storage).unwrap();
        p.block(&meta, 0, &storage).unwrap();
        assert_eq!(storage.stats().reads(), 2);
        assert!(cache.is_empty());
    }
}
