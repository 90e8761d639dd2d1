//! Per-tenant cache partitions.
//!
//! Multi-tenant serving means isolation: one shared LRU lets any hot (or
//! hostile) tenant evict everyone else's working set. This module
//! partitions the engine's cache budget into shared-nothing per-tenant
//! sub-caches — each tenant owns its own block cache, result caches, and
//! tenant-salted admission sketch — so eviction pressure from tenant A
//! structurally *cannot* touch tenant B's entries: there is no shared
//! policy state to pressure. The split across tenants starts equal; at
//! every tuning-window close it follows demand — each tenant's share of
//! the window's operations — above a guarded minimum share per tenant
//! ([`guarded_shares`]).
//!
//! [`Partition`] is the unit of isolation. The engine keeps one per
//! registered tenant plus the default partition serving tenant
//! [`DEFAULT_TENANT`], which legacy (pre-`Auth`) connections map to —
//! a single-tenant engine therefore behaves exactly as before this
//! module existed (one partition, share 1.0).

use crate::controller::CacheDecision;
use crate::engine::{EngineConfig, Strategy};
use adcache_cache::{
    BlockCache, CacheusPolicy, KvCache, LeCaRPolicy, PointAdmission, RangeCache, SlotLruPolicy,
};
use adcache_lsm::splitmix64;
use adcache_obs::{Counter, Gauge, Obs};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifies a tenant on the wire and in the engine.
pub type TenantId = u32;

/// The tenant that legacy (pre-`Auth`) connections serve.
pub const DEFAULT_TENANT: TenantId = 0;

/// The sketch salt for `tenant` (0 for the default tenant, preserving
/// the single-tenant engine's unsalted epoch-0 behavior), derived from its
/// id so hash collisions engineered against one tenant's sketch don't
/// transfer.
pub fn tenant_salt(tenant: TenantId) -> u64 {
    if tenant == DEFAULT_TENANT {
        0
    } else {
        splitmix64(0x7E4A_4A17 ^ tenant as u64)
    }
}

/// Floor-guaranteed share split: every tenant receives `min_share`
/// outright and the remaining headroom is distributed proportionally to
/// `weights`. The result always sums to 1 and every entry is at least
/// the (feasible) minimum; when `min_share · n > 1` the floor is
/// infeasible and the split degrades to equal shares, as it does when
/// every weight is zero.
pub fn guarded_shares(weights: &[f64], min_share: f64) -> Vec<f64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let min = min_share.clamp(0.0, 1.0 / n as f64);
    let head = 1.0 - min * n as f64;
    let sum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if sum <= 0.0 || head <= 0.0 {
        return vec![1.0 / n as f64; n];
    }
    weights
        .iter()
        .map(|w| min + head * w.max(0.0) / sum)
        .collect()
}

/// One tenant's shared-nothing slice of the cache layer: its own block
/// cache, result caches, and salted admission sketch, sized by the
/// tenant's share of the engine's total budget.
///
/// Isolation is structural, not policy: partitions share no LRU lists,
/// no sketch counters, and no capacity accounting, so nothing tenant A
/// does can select one of tenant B's entries for eviction. The only
/// cross-partition traffic is key-targeted write invalidation (tenants
/// share one keyspace, so a write to `k` must update every partition
/// that cached `k` — coherence, not capacity pressure).
pub struct Partition {
    tenant: TenantId,
    pub(crate) block_cache: Option<Arc<BlockCache>>,
    pub(crate) kv_cache: Option<KvCache>,
    pub(crate) range_cache: Option<RangeCache>,
    pub(crate) point_admission: Option<Mutex<PointAdmission>>,
    /// Current byte budget (share × engine total).
    budget: AtomicUsize,
    /// Current share of the engine total, in `[0, 1]`.
    share: RwLock<f64>,
    hits: Counter,
    misses: Counter,
    ops: AtomicU64,
    /// `ops` at the last [`window_ops`](Self::window_ops) call.
    mark_ops: AtomicU64,
    /// `cache.tenant.<id>.bytes`, set once by `attach_obs`.
    bytes_gauge: OnceLock<Gauge>,
}

impl Partition {
    /// Builds the partition's cache structures per the engine strategy,
    /// sized to `budget` bytes split by `ratio` (range-cache fraction,
    /// AdCache only) and gated at `threshold` (point admission).
    pub(crate) fn build(
        tenant: TenantId,
        cfg: &EngineConfig,
        budget: usize,
        ratio: f64,
        threshold: f64,
    ) -> Self {
        let mut block_cache = None;
        let mut kv_cache = None;
        let mut range_cache = None;
        let mut point_admission = None;
        match cfg.strategy {
            Strategy::RocksDbBlock => {
                block_cache = Some(Arc::new(BlockCache::new(budget, cfg.block_shards)));
            }
            Strategy::KvCache => {
                kv_cache = Some(KvCache::new(budget));
            }
            Strategy::RangeCache => {
                range_cache = Some(RangeCache::with_shards(
                    budget,
                    cfg.range_boundaries.clone(),
                    Box::new(|| Box::new(SlotLruPolicy::new())),
                ));
            }
            Strategy::RangeCacheLeCaR => {
                range_cache = Some(RangeCache::with_shards(
                    budget,
                    cfg.range_boundaries.clone(),
                    Box::new(|| Box::new(LeCaRPolicy::new())),
                ));
            }
            Strategy::RangeCacheCacheus => {
                range_cache = Some(RangeCache::with_shards(
                    budget,
                    cfg.range_boundaries.clone(),
                    Box::new(|| Box::new(CacheusPolicy::new())),
                ));
            }
            Strategy::AdCache => {
                block_cache = Some(Arc::new(BlockCache::new(
                    (budget as f64 * (1.0 - ratio)) as usize,
                    cfg.block_shards,
                )));
                range_cache = Some(RangeCache::with_shards(
                    (budget as f64 * ratio) as usize,
                    cfg.range_boundaries.clone(),
                    Box::new(|| Box::new(SlotLruPolicy::new())),
                ));
                let mut adm =
                    PointAdmission::with_guard(cfg.expected_keys, threshold, cfg.sketch_guard);
                let salt = tenant_salt(tenant);
                if salt != 0 {
                    adm.resalt(salt);
                }
                point_admission = Some(Mutex::new(adm));
            }
        }
        Partition {
            tenant,
            block_cache,
            kv_cache,
            range_cache,
            point_admission,
            budget: AtomicUsize::new(budget),
            share: RwLock::new(0.0),
            hits: Counter::new(),
            misses: Counter::new(),
            ops: AtomicU64::new(0),
            mark_ops: AtomicU64::new(0),
            bytes_gauge: OnceLock::new(),
        }
    }

    /// The tenant this partition serves.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The partition's current share of the engine's cache budget.
    pub fn share(&self) -> f64 {
        *self.share.read()
    }

    pub(crate) fn set_share(&self, share: f64) {
        *self.share.write() = share;
    }

    /// The partition's current byte budget.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Resident bytes across the partition's cache structures.
    pub fn used_bytes(&self) -> usize {
        self.block_cache.as_ref().map_or(0, |c| c.used())
            + self.range_cache.as_ref().map_or(0, |c| c.used())
            + self.kv_cache.as_ref().map_or(0, |c| c.used())
    }

    /// Result-cache `(hits, misses)` charged to the tenant since
    /// construction.
    pub fn hit_counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Operations the tenant has issued since construction.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Resizes the partition to `budget` bytes, split by `ratio` for
    /// AdCache (range fraction); single-structure strategies give the
    /// whole budget to their one cache.
    pub(crate) fn resize(&self, budget: usize, ratio: f64) {
        self.budget.store(budget, Ordering::Relaxed);
        match (&self.block_cache, &self.range_cache) {
            (Some(bc), Some(rc)) => {
                let range_bytes = (budget as f64 * ratio) as usize;
                bc.set_capacity(budget - range_bytes);
                rc.set_capacity(range_bytes);
            }
            (Some(bc), None) => {
                bc.set_capacity(budget);
            }
            (None, Some(rc)) => rc.set_capacity(budget),
            (None, None) => {}
        }
        if let Some(kv) = &self.kv_cache {
            kv.set_capacity(budget);
        }
        self.publish_bytes();
    }

    /// Wires the partition's caches and per-tenant telemetry to `obs`: the
    /// registry names the hit and miss cells `cache.tenant.<id>.*`. A
    /// second call is a no-op.
    pub(crate) fn attach_obs(&self, obs: &Obs) {
        let tenant = self.tenant;
        if self
            .bytes_gauge
            .set(obs.gauge(&format!("cache.tenant.{tenant}.bytes")))
            .is_err()
        {
            return;
        }
        obs.adopt_counter(&format!("cache.tenant.{tenant}.hits"), &self.hits);
        obs.adopt_counter(&format!("cache.tenant.{tenant}.misses"), &self.misses);
        if let Some(bc) = &self.block_cache {
            bc.set_obs(obs.clone());
        }
        if let Some(rc) = &self.range_cache {
            rc.set_obs(obs.clone());
        }
        if let Some(kv) = &self.kv_cache {
            kv.set_obs(obs.clone());
        }
        if let Some(adm) = &self.point_admission {
            adm.lock().set_obs(obs.clone());
        }
        self.publish_bytes();
    }

    /// Charges a result-cache hit to the tenant.
    pub(crate) fn note_hit(&self) {
        self.hits.inc();
    }

    /// Charges a result-cache miss to the tenant.
    pub(crate) fn note_miss(&self) {
        self.misses.inc();
    }

    /// Charges one operation (read or write) to the tenant.
    pub(crate) fn note_op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the partition's resident bytes to its gauge.
    pub(crate) fn publish_bytes(&self) {
        if let Some(bytes) = self.bytes_gauge.get() {
            bytes.set(self.used_bytes() as i64);
        }
    }

    /// Drains the operations charged to the tenant since the previous
    /// call: its demand over the window the call closes.
    pub(crate) fn window_ops(&self) -> u64 {
        let ops = self.ops.load(Ordering::Relaxed);
        ops - self.mark_ops.swap(ops, Ordering::Relaxed)
    }

    /// Applies the controller's admission retune to this partition.
    pub(crate) fn apply_admission(&self, d: &CacheDecision) {
        if let Some(adm) = &self.point_admission {
            adm.lock().set_threshold(d.point_threshold);
        }
    }

    /// Empties the partition's caches, preserving capacities.
    pub(crate) fn clear(&self) {
        if let Some(bc) = &self.block_cache {
            bc.clear();
        }
        if let Some(rc) = &self.range_cache {
            rc.clear();
        }
        if let Some(kv) = &self.kv_cache {
            kv.clear();
        }
        self.publish_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_salts_are_distinct_and_default_is_unsalted() {
        assert_eq!(tenant_salt(DEFAULT_TENANT), 0);
        let salts: Vec<u64> = (1..32).map(tenant_salt).collect();
        for (i, &a) in salts.iter().enumerate() {
            assert_ne!(a, 0);
            for &b in &salts[i + 1..] {
                assert_ne!(a, b, "tenant salts must be distinct");
            }
        }
    }

    #[test]
    fn partition_window_drains_deltas() {
        let cfg = EngineConfig::new(Strategy::AdCache, 1 << 20);
        let p = Partition::build(3, &cfg, 1 << 20, 0.5, 0.0);
        p.note_op();
        p.note_op();
        assert_eq!(p.window_ops(), 2);
        assert_eq!(p.window_ops(), 0, "window must drain");
        p.note_op();
        assert_eq!(p.window_ops(), 1);
        assert_eq!(p.ops(), 3, "the drain leaves the lifetime count");
    }

    #[test]
    fn guarded_shares_respects_floor_and_sum() {
        let s = guarded_shares(&[100.0, 1.0, 0.0], 0.2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for &x in &s {
            assert!(x >= 0.2 - 1e-9);
        }
        // Infeasible floor degrades to equal shares.
        let s = guarded_shares(&[9.0, 1.0], 0.9);
        assert_eq!(s, vec![0.5, 0.5]);
        // Zero weights degrade to equal shares.
        let s = guarded_shares(&[0.0, 0.0], 0.1);
        assert_eq!(s, vec![0.5, 0.5]);
        assert!(guarded_shares(&[], 0.1).is_empty());
    }
}
