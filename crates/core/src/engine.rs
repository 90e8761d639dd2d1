//! The cached database engine: LSM-tree + cache strategy wiring.
//!
//! [`CachedDb`] implements the paper's query-handling path (Figure 5):
//! a query first consults the range cache, then the engine (memtable →
//! block cache → disk); retrieved results flow back through the cache-fill
//! path subject to admission control. Six configurations — the five
//! baselines of Section 5.1 plus AdCache itself — share this one engine,
//! differing only in which caches exist and how admission behaves.

use crate::controller::CacheDecision;
use crate::stats::{Counters, Snapshot, WindowSummary};
use crate::tenant::{Partition, TenantId, TenantWindow, DEFAULT_TENANT};
use adcache_cache::{BlockCache, PointLookup, RangeCache, ScanAdmission};
use adcache_lsm::{DirectProvider, Entry, Key, Options, Result, Storage, StripedDb, Value};
use adcache_obs::{AdmissionOutcome, AdmissionReason, CacheStructure, Counter, Event, Gauge, Obs};
use adcache_rl::{ShareAgent, TenantFeatures};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// The cache configuration under evaluation (paper Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// RocksDB's default: all memory in a block cache.
    RocksDbBlock,
    /// A pure key-value (row) result cache; scans bypass it.
    KvCache,
    /// Range Cache with LRU eviction (Wang et al.).
    RangeCache,
    /// Range Cache with LeCaR eviction.
    RangeCacheLeCaR,
    /// Range Cache with Cacheus eviction.
    RangeCacheCacheus,
    /// AdCache: dynamic block/range partitioning + admission control.
    AdCache,
}

impl Strategy {
    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::RocksDbBlock => "rocksdb-block",
            Strategy::KvCache => "kv-cache",
            Strategy::RangeCache => "range-cache",
            Strategy::RangeCacheLeCaR => "range-lecar",
            Strategy::RangeCacheCacheus => "range-cacheus",
            Strategy::AdCache => "adcache",
        }
    }

    /// All six evaluated strategies, in the paper's presentation order.
    pub fn all() -> [Strategy; 6] {
        [
            Strategy::RocksDbBlock,
            Strategy::KvCache,
            Strategy::RangeCache,
            Strategy::RangeCacheLeCaR,
            Strategy::RangeCacheCacheus,
            Strategy::AdCache,
        ]
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which cache strategy to instantiate.
    pub strategy: Strategy,
    /// Total cache memory budget in bytes (block + result caches share it).
    pub total_cache_bytes: usize,
    /// Shard count for the block cache and (via boundaries) range cache.
    pub block_shards: usize,
    /// Key-space split points for range-cache sharding (empty = 1 shard).
    pub range_boundaries: Vec<Bytes>,
    /// Expected distinct hot keys (sizes the admission sketch).
    pub expected_keys: usize,
    /// Whether the admission sketch's anomaly guard is armed (auto reset +
    /// re-salt when saturation/decay telemetry looks adversarial).
    pub sketch_guard: bool,
    /// Guaranteed minimum share of the cache budget per registered
    /// tenant: the share arbiter can never starve a tenant below this
    /// fraction (clamped to `1/n` when infeasible for `n` tenants).
    pub min_tenant_share: f64,
    /// Whether registering a tenant creates a shared-nothing cache
    /// partition for it. Off = tenants are labels only: every tenant
    /// shares the default partition and no share arbitration runs (the
    /// `tenantcheck` drill's defenses-off baseline).
    pub tenant_partitioning: bool,
}

impl EngineConfig {
    /// Single-client configuration with one shard everywhere.
    pub fn new(strategy: Strategy, total_cache_bytes: usize) -> Self {
        EngineConfig {
            strategy,
            total_cache_bytes,
            block_shards: 1,
            range_boundaries: Vec::new(),
            expected_keys: 100_000,
            sketch_guard: true,
            min_tenant_share: 0.1,
            tenant_partitioning: true,
        }
    }
}

/// The engine's observability handle plus the counters and gauges only
/// telemetry keeps (no engine statistic counts admission verdicts or
/// boundary moves), resolved once on attach so the admission paths never
/// touch the registry lock; absent until `set_obs`.
struct EngineObsHooks {
    obs: Obs,
    admission_accepts: Counter,
    admission_rejects: Counter,
    admission_partials: Counter,
    boundary_resizes: Counter,
    boundary_block_bytes: Gauge,
    boundary_range_bytes: Gauge,
    tenant_resizes: Counter,
}

impl EngineObsHooks {
    fn new(obs: Obs) -> Self {
        EngineObsHooks {
            admission_accepts: obs.counter("core.admission.accepts"),
            admission_rejects: obs.counter("core.admission.rejects"),
            admission_partials: obs.counter("core.admission.partials"),
            boundary_resizes: obs.counter("core.boundary.resizes"),
            boundary_block_bytes: obs.gauge("core.boundary.block_bytes"),
            boundary_range_bytes: obs.gauge("core.boundary.range_bytes"),
            tenant_resizes: obs.counter("core.tenant.resizes"),
            obs,
        }
    }

    /// Journals one admission verdict and bumps the matching counter.
    fn admission(
        &self,
        cache: CacheStructure,
        outcome: AdmissionOutcome,
        reason: AdmissionReason,
        requested: u64,
        admitted: u64,
    ) {
        match outcome {
            AdmissionOutcome::Accept => &self.admission_accepts,
            AdmissionOutcome::Reject => &self.admission_rejects,
            AdmissionOutcome::Partial => &self.admission_partials,
        }
        .inc();
        self.obs.emit(|| Event::Admission {
            cache,
            outcome,
            reason,
            requested,
            admitted,
        });
    }
}

/// An LSM-tree fronted by the configured cache strategy. The tree itself
/// is a [`StripedDb`]: N keyspace stripes with independent write paths
/// (one stripe, synchronous maintenance by default).
///
/// The cache layer is tenant-partitioned (see [`crate::tenant`]): every
/// registered tenant owns a shared-nothing [`Partition`] sized by its
/// share of `total_cache_bytes`, and legacy single-tenant callers run
/// entirely inside the default partition (tenant 0, share 1.0), which
/// preserves the pre-tenant behavior bit for bit.
pub struct CachedDb {
    db: StripedDb,
    strategy: Strategy,
    /// Tenant 0's partition — the whole cache layer until other tenants
    /// register. Kept out of the map so the legacy fast path never takes
    /// the registry lock.
    default_partition: Arc<Partition>,
    /// Non-default tenant partitions, keyed by tenant id.
    tenants: RwLock<BTreeMap<TenantId, Arc<Partition>>>,
    /// The learned share arbiter; rebuilt when the tenant set changes.
    share_agent: Mutex<Option<ShareAgent>>,
    /// Construction parameters retained for late tenant registration.
    cfg: EngineConfig,
    scan_admission: RwLock<ScanAdmission>,
    total_cache_bytes: usize,
    /// Cached entries-per-block estimate, refreshed once per window.
    b_estimate: RwLock<f64>,
    /// The last applied range ratio (boundary hysteresis).
    applied_ratio: RwLock<f64>,
    counters: Counters,
    obs: OnceLock<EngineObsHooks>,
}

impl CachedDb {
    /// Builds the engine over `storage` with the given strategy.
    pub fn new(opts: Options, storage: Arc<dyn Storage>, cfg: EngineConfig) -> Result<Self> {
        let db = StripedDb::new(opts, storage)?;
        Self::from_tree(db, cfg)
    }

    /// Builds the engine over a durable tree: the WAL and manifest in
    /// `meta_dir` make the store recoverable across restarts (see
    /// [`StripedDb::with_durability`]).
    pub fn with_durability(
        opts: Options,
        storage: Arc<dyn Storage>,
        meta_dir: impl Into<std::path::PathBuf>,
        cfg: EngineConfig,
    ) -> Result<Self> {
        let db = StripedDb::with_durability(opts, storage, meta_dir)?;
        Self::from_tree(db, cfg)
    }

    /// [`CachedDb::with_durability`] over an explicit [`adcache_lsm::MetaFs`],
    /// so crash drills can interpose a simulated write-back cache under the
    /// WAL and manifest (see [`StripedDb::with_durability_fs`]).
    pub fn with_durability_fs(
        opts: Options,
        storage: Arc<dyn Storage>,
        meta_dir: impl Into<std::path::PathBuf>,
        fs: Arc<dyn adcache_lsm::MetaFs>,
        cfg: EngineConfig,
    ) -> Result<Self> {
        let db = StripedDb::with_durability_fs(opts, storage, meta_dir, fs)?;
        Self::from_tree(db, cfg)
    }

    /// Wraps an already-constructed (possibly recovered) striped tree with
    /// the cache strategy.
    pub fn from_tree(db: StripedDb, cfg: EngineConfig) -> Result<Self> {
        let total = cfg.total_cache_bytes;
        // Start at the default even split; the controller moves it.
        let d = CacheDecision::default();
        let default_partition = Arc::new(Partition::build(
            DEFAULT_TENANT,
            &cfg,
            total,
            d.range_ratio,
            d.point_threshold,
        ));
        default_partition.set_share(1.0);
        // Compactions must sweep stale blocks out of the block cache.
        if let Some(bc) = &default_partition.block_cache {
            db.add_compaction_listener(bc.clone());
        }
        Ok(CachedDb {
            db,
            strategy: cfg.strategy,
            default_partition,
            tenants: RwLock::new(BTreeMap::new()),
            share_agent: Mutex::new(None),
            scan_admission: RwLock::new(ScanAdmission::default()),
            total_cache_bytes: total,
            b_estimate: RwLock::new(4.0),
            applied_ratio: RwLock::new(CacheDecision::default().range_ratio),
            counters: Counters::default(),
            obs: OnceLock::new(),
            cfg,
        })
    }

    /// Attaches an observability handle to the engine and every layer
    /// below it: the LSM-tree (flush/compaction/WAL events) and each cache
    /// structure the strategy instantiated. A second call is a no-op.
    pub fn set_obs(&self, obs: Obs) {
        if self.obs.set(EngineObsHooks::new(obs.clone())).is_err() {
            return;
        }
        self.db.set_obs(obs.clone());
        self.for_each_partition(|part| part.attach_obs(&obs));
        // Publish the current boundary position so live views see it
        // before the first controller decision moves it.
        if let Some(h) = self.obs.get() {
            let ratio = *self.applied_ratio.read();
            let range_bytes = (self.total_cache_bytes as f64 * ratio) as usize;
            h.boundary_range_bytes.set(range_bytes as i64);
            h.boundary_block_bytes
                .set((self.total_cache_bytes - range_bytes) as i64);
        }
    }

    /// The attached observability handle (disabled when none was attached).
    pub fn obs(&self) -> Obs {
        self.obs.get().map(|h| h.obs.clone()).unwrap_or_default()
    }

    /// The strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The underlying striped LSM-tree (read-only experiment
    /// introspection).
    pub fn db(&self) -> &StripedDb {
        &self.db
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The default tenant's block cache, when the strategy has one.
    pub fn block_cache(&self) -> Option<&BlockCache> {
        self.default_partition.block_cache.as_deref()
    }

    /// The default tenant's range cache, when the strategy has one.
    pub fn range_cache(&self) -> Option<&RangeCache> {
        self.default_partition.range_cache.as_ref()
    }

    /// Auto-resets the admission sketch's anomaly guard has performed,
    /// summed over every tenant partition (0 when the strategy has no
    /// point admission).
    pub fn sketch_resets(&self) -> u64 {
        let mut resets = 0;
        self.for_each_partition(|p| {
            if let Some(adm) = &p.point_admission {
                resets += adm.lock().resets();
            }
        });
        resets
    }

    /// Visits the default tenant's partition, then every registered
    /// tenant's in tenant-id order, under the registry's read lock and
    /// without allocating: this is on the path of every write. `f` must
    /// not register tenants.
    fn for_each_partition(&self, mut f: impl FnMut(&Partition)) {
        f(&self.default_partition);
        for part in self.tenants.read().values() {
            f(part);
        }
    }

    /// The same partitions as an owned list, for the tenant-management
    /// calls that hold them across a registry change.
    fn all_partitions(&self) -> Vec<Arc<Partition>> {
        let mut v = vec![self.default_partition.clone()];
        v.extend(self.tenants.read().values().cloned());
        v
    }

    /// The partition serving `tenant` (the default partition for tenant
    /// 0 and for tenants never registered — unregistered traffic is
    /// legacy traffic, not a fresh partition). Takes the registry's read
    /// lock and clones an `Arc`: resolve once per session and hand the
    /// result to the `*_in` operations, as the server does at `AUTH`.
    pub fn partition_for(&self, tenant: TenantId) -> Arc<Partition> {
        if tenant == DEFAULT_TENANT {
            return self.default_partition.clone();
        }
        self.tenants
            .read()
            .get(&tenant)
            .cloned()
            .unwrap_or_else(|| self.default_partition.clone())
    }

    /// Registers `tenant`, creating its shared-nothing partition (with a
    /// tenant-salted admission sketch) and rebalancing all shares to the
    /// equal split. Idempotent; tenant 0 always exists.
    pub fn register_tenant(&self, tenant: TenantId) {
        if tenant == DEFAULT_TENANT
            || !self.cfg.tenant_partitioning
            || self.tenants.read().contains_key(&tenant)
        {
            return;
        }
        let threshold = self
            .default_partition
            .point_admission
            .as_ref()
            .map_or(CacheDecision::default().point_threshold, |adm| {
                adm.lock().threshold()
            });
        let part = Arc::new(Partition::build(
            tenant,
            &self.cfg,
            0,
            *self.applied_ratio.read(),
            threshold,
        ));
        if let Some(bc) = &part.block_cache {
            self.db.add_compaction_listener(bc.clone());
        }
        if let Some(h) = self.obs.get() {
            part.attach_obs(&h.obs);
        }
        {
            let mut map = self.tenants.write();
            if map.contains_key(&tenant) {
                return; // lost a registration race; keep the winner
            }
            map.insert(tenant, part);
        }
        // The tenant set changed: restart arbitration from equal shares.
        *self.share_agent.lock() = None;
        let parts = self.all_partitions();
        let equal: Vec<(TenantId, f64)> = parts
            .iter()
            .map(|p| (p.tenant(), 1.0 / parts.len() as f64))
            .collect();
        self.set_tenant_shares(&equal);
    }

    /// The registered tenant ids (including the default tenant).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.all_partitions().iter().map(|p| p.tenant()).collect()
    }

    /// Applies a share split across tenant partitions. Shares are passed
    /// through the guarded floor ([`adcache_rl::guarded_shares`]): they
    /// are renormalized to sum to 1 with every tenant kept at or above
    /// the configured minimum, then each partition is resized to
    /// `share × total_cache_bytes` (block/range split by the current
    /// boundary ratio). Tenants absent from `want` keep their current
    /// share as the weight. Emits one `TenantShareResized` per tenant.
    pub fn set_tenant_shares(&self, want: &[(TenantId, f64)]) {
        let parts = self.all_partitions();
        let weights: Vec<f64> = parts
            .iter()
            .map(|p| {
                want.iter()
                    .find(|(t, _)| *t == p.tenant())
                    .map_or(p.share(), |&(_, w)| w)
            })
            .collect();
        let shares = adcache_rl::guarded_shares(&weights, self.cfg.min_tenant_share);
        let ratio = *self.applied_ratio.read();
        for (part, &share) in parts.iter().zip(&shares) {
            let budget = (self.total_cache_bytes as f64 * share) as usize;
            part.set_share(share);
            part.resize(budget, ratio);
            if let Some(h) = self.obs.get() {
                h.tenant_resizes.inc();
                h.obs.emit(|| Event::TenantShareResized {
                    tenant: part.tenant() as u64,
                    share,
                    bytes: budget as u64,
                });
            }
        }
    }

    /// One share-arbitration step: drains each tenant's activity window,
    /// feeds hit-rate/footprint/demand features to the learned arbiter,
    /// and applies the new split. With fewer than two tenants this is a
    /// no-op report. Returns the `(tenant, share)` split in force.
    pub fn rebalance_tenants(&self) -> Vec<(TenantId, f64)> {
        let parts = self.all_partitions();
        if parts.len() < 2 {
            return parts.iter().map(|p| (p.tenant(), p.share())).collect();
        }
        let windows: Vec<TenantWindow> = parts.iter().map(|p| p.window()).collect();
        let ids: Vec<TenantId> = parts.iter().map(|p| p.tenant()).collect();
        let shares = {
            let mut slot = self.share_agent.lock();
            let rebuild = !matches!(&*slot, Some(a) if a.ids() == ids.as_slice());
            if rebuild {
                let mut agent = ShareAgent::new(ids, self.cfg.min_tenant_share);
                for p in &parts {
                    agent.seed_share(p.tenant(), p.share());
                }
                *slot = Some(agent);
            }
            let agent = slot.as_mut().expect("agent just installed");
            let feats: Vec<TenantFeatures> = windows
                .iter()
                .map(|w| TenantFeatures {
                    tenant: w.tenant,
                    hit_rate: if w.hits + w.misses == 0 {
                        0.0
                    } else {
                        w.hits as f64 / (w.hits + w.misses) as f64
                    },
                    occupancy: if w.budget_bytes == 0 {
                        1.0
                    } else {
                        (w.used_bytes as f64 / w.budget_bytes as f64).min(1.0)
                    },
                    ops: w.ops,
                })
                .collect();
            agent.observe(&feats)
        };
        self.set_tenant_shares(&shares);
        shares
    }

    /// Per-tenant statistics (share, budget, residency, hit counters),
    /// in tenant-id order.
    pub fn tenant_reports(&self) -> Vec<TenantStatsReport> {
        self.all_partitions()
            .iter()
            .map(|p| {
                let (hits, misses) = p.hit_counters();
                TenantStatsReport {
                    tenant: p.tenant(),
                    share: p.share(),
                    budget_bytes: p.budget() as u64,
                    used_bytes: p.used_bytes() as u64,
                    hits,
                    misses,
                    ops: p.ops(),
                }
            })
            .collect()
    }

    /// [`get_in`](Self::get_in) the default tenant's partition.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_in(&self.default_partition, key)
    }

    /// Point lookup along the paper's query-handling path, served from —
    /// and charged to — `part` (see [`partition_for`](Self::partition_for);
    /// resolve it once per session, not per operation).
    pub fn get_in(&self, part: &Partition, key: &[u8]) -> Result<Option<Value>> {
        self.counters.add_point();
        part.note_op();
        if let Some(answer) = self.probe_point_caches(part, key) {
            part.note_hit();
            return Ok(answer);
        }
        part.note_miss();
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        // The fill runs before the stripe's read lock drops, so no write to
        // `key` can commit between the read and the fill and be undone by it.
        let fill = |found: Option<&Value>| {
            if let Some(v) = found {
                self.fill_point_caches(part, key, v);
            }
        };
        let result = match &part.block_cache {
            Some(bc) => self.db.get_then(key, &bc.provider(), fill),
            None => self.db.get_then(key, &DirectProvider, fill),
        };
        // Graceful degradation: a failed read is charged as a miss (the
        // controller must see a failing device as expensive, not as a
        // quiet window) and the error propagates to the caller.
        result.inspect_err(|_| self.counters.add_failed_read())
    }

    /// [`multi_get_in`](Self::multi_get_in) the default tenant's partition.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Value>>> {
        self.multi_get_in(&self.default_partition, keys)
    }

    /// Batched point lookup: probes `part`'s caches per key, then reads all
    /// misses from the LSM-tree in **one** grouped call
    /// ([`StripedDb::multi_get`]) that takes each stripe's read lock once
    /// per group instead of once per key. Results are positional:
    /// `out[i]` answers `keys[i]`. Counter and admission semantics per
    /// key match [`get_in`](Self::get_in); a failed grouped read is charged
    /// as one failed read and fails the whole batch.
    pub fn multi_get_in(&self, part: &Partition, keys: &[&[u8]]) -> Result<Vec<Option<Value>>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            self.counters.add_point();
            part.note_op();
            match self.probe_point_caches(part, key) {
                Some(answer) => {
                    part.note_hit();
                    out[i] = answer;
                }
                None => {
                    part.note_miss();
                    miss_idx.push(i);
                }
            }
        }
        if miss_idx.is_empty() {
            return Ok(out);
        }
        self.counters
            .cache_misses
            .fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
        let miss_keys: Vec<&[u8]> = miss_idx.iter().map(|&i| keys[i]).collect();
        // As in `get_in`: each stripe group fills under its read lock.
        let fill = |group: &[&[u8]], found: &[Option<Value>]| {
            for (key, value) in group.iter().zip(found) {
                if let Some(v) = value {
                    self.fill_point_caches(part, key, v);
                }
            }
        };
        let result = match &part.block_cache {
            Some(bc) => self.db.multi_get_then(&miss_keys, &bc.provider(), fill),
            None => self.db.multi_get_then(&miss_keys, &DirectProvider, fill),
        };
        let values = result.inspect_err(|_| self.counters.add_failed_read())?;
        for (&i, value) in miss_idx.iter().zip(values) {
            out[i] = value;
        }
        Ok(out)
    }

    /// Probes the partition's range and KV caches for `key`.
    /// `Some(answer)` is a hit (including a negative hit: `Some(None)`);
    /// `None` means both caches missed and the LSM-tree must be read.
    fn probe_point_caches(&self, part: &Partition, key: &[u8]) -> Option<Option<Value>> {
        if let Some(rc) = &part.range_cache {
            match rc.get_point(key) {
                PointLookup::Hit(v) => {
                    self.counters.range_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Some(v));
                }
                PointLookup::NegativeHit => {
                    self.counters.range_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(None);
                }
                PointLookup::Miss => {}
            }
        }
        if let Some(kv) = &part.kv_cache {
            if let Some(v) = kv.get(key) {
                self.counters.kv_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Some(v));
            }
        }
        None
    }

    /// The cache-fill path for a point read that reached the LSM-tree and
    /// found a value: point admission gates the range cache, the KV cache
    /// admits unconditionally. Runs under the key's stripe read lock.
    fn fill_point_caches(&self, part: &Partition, key: &[u8], v: &Value) {
        #[cfg(test)]
        tests::fill_pause::pause_at(key);
        // One owned copy of the key, made when the first cache admits it
        // and shared by the second.
        let mut owned: Option<Bytes> = None;
        let mut owned_key = || {
            owned
                .get_or_insert_with(|| Bytes::copy_from_slice(key))
                .clone()
        };
        if let Some(rc) = &part.range_cache {
            let (admit, reason) = match &part.point_admission {
                Some(adm) => {
                    let admit = adm.lock().admit(key);
                    let reason = if admit {
                        AdmissionReason::FrequencyAtThreshold
                    } else {
                        AdmissionReason::FrequencyBelowThreshold
                    };
                    (admit, reason)
                }
                None => (true, AdmissionReason::Unconditional),
            };
            if let Some(h) = self.obs.get() {
                let outcome = if admit {
                    AdmissionOutcome::Accept
                } else {
                    AdmissionOutcome::Reject
                };
                h.admission(CacheStructure::Range, outcome, reason, 1, admit as u64);
            }
            if admit {
                rc.insert_point(owned_key(), v.clone());
            }
        }
        if let Some(kv) = &part.kv_cache {
            if let Some(h) = self.obs.get() {
                h.admission(
                    CacheStructure::Kv,
                    AdmissionOutcome::Accept,
                    AdmissionReason::Unconditional,
                    1,
                    1,
                );
            }
            kv.insert(owned_key(), v.clone());
        }
        part.publish_bytes();
    }

    /// [`scan_in`](Self::scan_in) the default tenant's partition.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<(Key, Value)>> {
        self.scan_in(&self.default_partition, from, limit)
    }

    /// Range scan along the query-handling path, served from `part`.
    ///
    /// The range cache serves whatever covered prefix it holds; the tail is
    /// read from the LSM-tree starting exactly at the coverage end (a
    /// partial hit still pays the seek, per the paper, but the prefix's
    /// data blocks are saved). The fill path applies partial admission to
    /// the freshly-read tail, so repeated overlapping scans grow coverage
    /// incrementally — "overlapping scans naturally accelerate this
    /// process" (Section 3.4).
    pub fn scan_in(
        &self,
        part: &Partition,
        from: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>> {
        self.counters.add_scan(limit);
        part.note_op();
        let (mut results, continuation) = match &part.range_cache {
            Some(rc) => rc.get_range_partial(from, limit),
            None => (Vec::new(), Some(Bytes::copy_from_slice(from))),
        };
        let Some(cont_key) = continuation else {
            self.counters.range_hits.fetch_add(1, Ordering::Relaxed);
            part.note_hit();
            self.counters
                .entries_returned
                .fetch_add(results.len() as u64, Ordering::Relaxed);
            return Ok(results);
        };
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        part.note_miss();
        let remaining = limit - results.len();
        let admission = *self.scan_admission.read();
        // The fill runs before the scan's locks drop, so no write can commit
        // between the read and the fill and then be undone by it.
        let fill = |tail: &[(Key, Value)]| {
            if let Some(rc) = &part.range_cache {
                let admitted = if self.strategy == Strategy::AdCache {
                    admission.admitted_len(tail.len())
                } else {
                    tail.len()
                };
                if let Some(h) = self.obs.get() {
                    if !tail.is_empty() {
                        let (outcome, reason) = if self.strategy != Strategy::AdCache {
                            (AdmissionOutcome::Accept, AdmissionReason::Unconditional)
                        } else if admitted == 0 {
                            (AdmissionOutcome::Reject, AdmissionReason::ScanZeroLength)
                        } else if admitted >= tail.len() {
                            (
                                AdmissionOutcome::Accept,
                                AdmissionReason::ScanWithinFullLimit,
                            )
                        } else {
                            (AdmissionOutcome::Partial, AdmissionReason::ScanPartialSlope)
                        };
                        h.admission(
                            CacheStructure::Range,
                            outcome,
                            reason,
                            tail.len() as u64,
                            admitted.min(tail.len()) as u64,
                        );
                    }
                }
                rc.insert_scan(&cont_key, tail, admitted);
                part.publish_bytes();
            }
        };
        let tail = match &part.block_cache {
            Some(bc) => {
                // AdCache also applies partial admission at block
                // granularity (Section 3.4 closing note): misses beyond the
                // budget are read but not admitted.
                let provider = if self.strategy == Strategy::AdCache {
                    let b = self.b_estimate.read().max(1.0);
                    let admitted_entries = admission.admitted_len(remaining);
                    let seek_blocks = self.db.num_runs().max(1);
                    let budget = (admitted_entries as f64 / b).ceil() as usize + seek_blocks;
                    bc.provider_with_budget(budget)
                } else {
                    bc.provider()
                };
                self.db.scan_then(&cont_key, remaining, &provider, fill)
            }
            None => self
                .db
                .scan_then(&cont_key, remaining, &DirectProvider, fill),
        };
        results.extend(tail.inspect_err(|_| self.counters.add_failed_read())?);
        self.counters
            .entries_returned
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }

    /// Propagates applied writes, in order, to every partition's result
    /// caches: tenants share one keyspace, so coherence is key-targeted and
    /// global, while capacity pressure stays per-partition. Runs under the
    /// write lock of the stripe that applied them, so it cannot interleave
    /// with a read's fill of the same keys; a write that never reached the
    /// memtable never gets here.
    fn on_write_all(&self, applied: &[(Key, Entry)]) {
        self.for_each_partition(|part| {
            for (key, entry) in applied {
                if let Some(kv) = &part.kv_cache {
                    kv.on_write(key, entry.value());
                }
                if let Some(rc) = &part.range_cache {
                    rc.on_write(key, entry.value());
                }
            }
        });
    }

    /// [`put_in`](Self::put_in) charged to the default tenant.
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.put_in(&self.default_partition, key, value)
    }

    /// Write-through: the engine plus every partition's result caches stay
    /// consistent. The write path is shared; `part` only takes the
    /// operation in its demand accounting.
    pub fn put_in(&self, part: &Partition, key: Key, value: Value) -> Result<()> {
        part.note_op();
        self.counters.add_write();
        self.db
            .put_then(key, value, |applied| self.on_write_all(applied))
    }

    /// [`write_batch_in`](Self::write_batch_in) charged to the default
    /// tenant.
    pub fn write_batch(&self, batch: Vec<(Key, Entry)>) -> Result<()> {
        self.write_batch_in(&self.default_partition, batch)
    }

    /// Applies a batch of puts and deletes atomically per stripe (see
    /// [`StripedDb::write_batch`]): one write-lock acquisition, commit
    /// round and WAL flush per stripe instead of one per key. Every
    /// result cache stays write-through consistent, in batch order, and
    /// every operation is charged to `part`'s demand accounting.
    pub fn write_batch_in(&self, part: &Partition, batch: Vec<(Key, Entry)>) -> Result<()> {
        for _ in &batch {
            part.note_op();
        }
        self.counters
            .writes
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.db
            .write_batch_then(batch, |applied| self.on_write_all(applied))
    }

    /// [`delete_in`](Self::delete_in) charged to the default tenant.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.delete_in(&self.default_partition, key)
    }

    /// Deletes a key, invalidating every partition's result-cache entries
    /// for it; the operation is charged to `part`.
    pub fn delete_in(&self, part: &Partition, key: Key) -> Result<()> {
        part.note_op();
        self.counters.add_write();
        self.db
            .delete_then(key, |applied| self.on_write_all(applied))
    }

    /// Loads a key during the populate phase without counting it as a
    /// measured operation and without touching the caches.
    pub fn load(&self, key: Key, value: Value) -> Result<()> {
        self.db.put(key, value)
    }

    /// Boundary moves smaller than this fraction of total memory are
    /// deferred, and ratios this close to 0 or 1 snap to the extreme:
    /// resizing evicts, so micro-jitter from RL exploration must not thrash
    /// the caches (the eviction-churn concern of Section 3.5).
    const BOUNDARY_HYSTERESIS: f64 = 0.02;

    /// Applies a controller decision: moves the memory boundary and retunes
    /// the admission parameters (AdCache only; no-op otherwise).
    pub fn apply_decision(&self, d: &CacheDecision) {
        if self.strategy != Strategy::AdCache {
            return;
        }
        // Boundary hysteresis: tiny exploratory wiggles would evict for
        // nothing, so only real moves (or moves to the extremes) resize.
        let hyst = Self::BOUNDARY_HYSTERESIS;
        let mut applied = self.applied_ratio.write();
        let snapped = if d.range_ratio < hyst {
            0.0
        } else if d.range_ratio > 1.0 - hyst {
            1.0
        } else {
            d.range_ratio
        };
        let moved = (snapped - *applied).abs() >= hyst
            || (snapped != *applied && (snapped == 0.0 || snapped == 1.0));
        let range_bytes = (self.total_cache_bytes as f64 * snapped) as usize;
        let block_bytes = self.total_cache_bytes - range_bytes;
        if moved {
            *applied = snapped;
            // Every partition moves its own block/range boundary to the
            // snapped ratio at its own budget: the controller learns one
            // global boundary, tenants keep isolated capacity.
            self.for_each_partition(|part| part.resize(part.budget(), snapped));
        }
        drop(applied);
        if let Some(h) = self.obs.get() {
            if moved {
                h.boundary_resizes.inc();
                h.boundary_block_bytes.set(block_bytes as i64);
                h.boundary_range_bytes.set(range_bytes as i64);
            }
            h.obs.emit(|| Event::BoundaryResize {
                block_bytes: block_bytes as u64,
                range_bytes: range_bytes as u64,
                range_ratio: snapped,
                applied: moved,
            });
        }
        self.for_each_partition(|part| part.apply_admission(d));
        *self.scan_admission.write() = ScanAdmission::new(d.scan_a, d.scan_b);
        self.refresh_shape();
    }

    /// Empties every cache (capacities are preserved). Used between
    /// back-to-back controlled experiments on a shared engine so one
    /// candidate's warm state cannot bias the next.
    pub fn clear_caches(&self) {
        self.for_each_partition(|part| part.clear());
    }

    /// Refreshes the cached entries-per-block estimate from the live tree.
    pub fn refresh_shape(&self) {
        let (entries, blocks) = self.db.entries_and_blocks();
        if blocks > 0 {
            *self.b_estimate.write() = entries as f64 / blocks as f64;
        }
    }

    /// A full counter snapshot (window boundaries).
    pub fn snapshot(&self) -> Snapshot {
        let c = &self.counters;
        // Block-cache hit/miss totals aggregate over every tenant
        // partition so controller rewards see global pressure.
        let mut bstats = adcache_cache::CacheStats::default();
        self.for_each_partition(|part| {
            if let Some(b) = &part.block_cache {
                let s = b.stats();
                bstats.hits += s.hits;
                bstats.misses += s.misses;
            }
        });
        Snapshot {
            points: c.points.load(Ordering::Relaxed),
            scans: c.scans.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            scan_len_sum: c.scan_len_sum.load(Ordering::Relaxed),
            range_hits: c.range_hits.load(Ordering::Relaxed),
            kv_hits: c.kv_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            query_block_reads: self.db.query_block_reads(),
            block_cache_hits: bstats.hits,
            block_cache_misses: bstats.misses,
            compactions: self.db.compactions(),
            simulated_ns: self.db.storage().stats().simulated_ns(),
            failed_reads: c.failed_reads.load(Ordering::Relaxed),
        }
    }

    /// Builds the controller's observation for the window `start..now`,
    /// filling in tree shape and cache occupancy.
    pub fn window_summary(&self, start: &Snapshot) -> WindowSummary {
        let end = self.snapshot();
        let mut w = WindowSummary::from_snapshots(start, &end);
        self.refresh_shape();
        w.entries_per_block = *self.b_estimate.read();
        w.levels = self.db.num_levels().max(1);
        w.runs = self.db.num_runs();
        w.r0_max = self.db.options().l0_stop_files;
        let (mut block_used, mut block_cap) = (0usize, 0usize);
        let (mut range_used, mut range_cap) = (0usize, 0usize);
        self.for_each_partition(|part| {
            if let Some(b) = &part.block_cache {
                block_used += b.used();
                block_cap += b.capacity();
            }
            if let Some(r) = &part.range_cache {
                range_used += r.used();
                range_cap += r.capacity();
            }
        });
        w.block_occupancy = if block_cap == 0 {
            0.0
        } else {
            block_used as f64 / block_cap as f64
        };
        let dataset: u64 = self.db.level_summary().iter().map(|(_, _, b)| b).sum();
        w.cache_fraction = if dataset == 0 {
            0.0
        } else {
            (self.total_cache_bytes as f64 / dataset as f64).min(2.0)
        };
        w.range_occupancy = if range_cap == 0 {
            0.0
        } else {
            range_used as f64 / range_cap as f64
        };
        w
    }

    /// Total cache memory budget.
    pub fn total_cache_bytes(&self) -> usize {
        self.total_cache_bytes
    }

    /// The engine configuration this instance was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A serializable point-in-time statistics report covering the engine,
    /// every cache structure, and the tree shape — the payload behind the
    /// server's `STATS` opcode and the CLI `stats` command.
    pub fn stats_report(&self) -> EngineStatsReport {
        let snap = self.snapshot();
        let opts = self.db.options();
        // The wire-stable `block_cache`/`range_cache` fields keep their
        // pre-tenant meaning: the default partition's caches. Per-tenant
        // breakdown rides in the appended `tenants` list.
        let (block, range) = (
            self.default_partition.block_cache.as_deref().map(|bc| {
                let s = bc.stats();
                CacheStatsReport {
                    used_bytes: bc.used() as u64,
                    capacity_bytes: bc.capacity() as u64,
                    entries: bc.len() as u64,
                    hits: s.hits,
                    misses: s.misses,
                }
            }),
            self.default_partition.range_cache.as_ref().map(|rc| {
                let s = rc.stats();
                CacheStatsReport {
                    used_bytes: rc.used() as u64,
                    capacity_bytes: rc.capacity() as u64,
                    entries: rc.len() as u64,
                    hits: s.hits,
                    misses: s.misses,
                }
            }),
        );
        EngineStatsReport {
            strategy: self.strategy.name().into(),
            total_cache_bytes: self.total_cache_bytes as u64,
            points: snap.points,
            scans: snap.scans,
            writes: snap.writes,
            range_hits: snap.range_hits,
            kv_hits: snap.kv_hits,
            cache_misses: snap.cache_misses,
            failed_reads: snap.failed_reads,
            query_block_reads: snap.query_block_reads,
            compactions: snap.compactions,
            flushes: self.db.stats_sum(|s| s.flushes.get()),
            runs: self.db.num_runs() as u64,
            levels: self.db.num_levels() as u64,
            block_cache: block,
            range_cache: range,
            range_segments: self
                .default_partition
                .range_cache
                .as_ref()
                .map_or(0, |rc| rc.segment_count() as u64),
            stripes: self.db.num_stripes() as u64,
            block_bytes: opts.block_size as u64,
            memtable_bytes: opts.memtable_size as u64,
            sstable_bytes: opts.sstable_size as u64,
            l1_bytes: opts.l1_max_bytes as u64,
            group_commit_rounds: self.db.group_commits(),
            group_commit_batches: self.db.group_commits(),
            seals: self.db.stats_sum(|s| s.seals.get()),
            write_stalls: self.db.stats_sum(|s| s.write_stalls.get()),
            tenants: self.tenant_reports(),
        }
    }
}

/// One cache structure's slice of an [`EngineStatsReport`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStatsReport {
    /// Bytes currently held.
    pub used_bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
    /// Entries (blocks or KV pairs) currently held.
    pub entries: u64,
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses since construction.
    pub misses: u64,
}

/// One tenant partition's slice of an [`EngineStatsReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantStatsReport {
    /// Tenant id (`0` is the default tenant).
    pub tenant: u32,
    /// Arbitrated share of the total cache budget, in `[0, 1]`.
    pub share: f64,
    /// Byte budget the share currently maps to.
    pub budget_bytes: u64,
    /// Bytes resident across the tenant's caches.
    pub used_bytes: u64,
    /// Result-cache hits since construction.
    pub hits: u64,
    /// Result-cache misses since construction.
    pub misses: u64,
    /// Operations the tenant has issued.
    pub ops: u64,
}

/// A serializable engine statistics snapshot (see
/// [`CachedDb::stats_report`]). Field names are part of the server's
/// `STATS` wire payload, so renames are breaking changes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineStatsReport {
    /// Strategy name as reported by [`Strategy::name`].
    pub strategy: String,
    /// Total cache budget in bytes.
    pub total_cache_bytes: u64,
    /// Point lookups served.
    pub points: u64,
    /// Scans served.
    pub scans: u64,
    /// Writes (puts + deletes) applied.
    pub writes: u64,
    /// Queries answered by the range cache.
    pub range_hits: u64,
    /// Queries answered by the KV cache.
    pub kv_hits: u64,
    /// Queries that fell through to the LSM-tree.
    pub cache_misses: u64,
    /// Reads that failed at the storage layer.
    pub failed_reads: u64,
    /// Query-path SST block reads.
    pub query_block_reads: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Current sorted-run count.
    pub runs: u64,
    /// Current non-empty level count.
    pub levels: u64,
    /// Block-cache stats, when the strategy has one.
    pub block_cache: Option<CacheStatsReport>,
    /// Range-cache stats, when the strategy has one.
    pub range_cache: Option<CacheStatsReport>,
    /// Covered segments in that range cache; bounded by its resident
    /// entries plus the negatives deletes and empty scans left.
    pub range_segments: u64,
    /// Keyspace stripes the engine is sharded into (1 = classic).
    pub stripes: u64,
    /// Target data-block size of each stripe's tree.
    pub block_bytes: u64,
    /// Memtable flush threshold of each stripe's tree.
    pub memtable_bytes: u64,
    /// Target SSTable size of each stripe's tree.
    pub sstable_bytes: u64,
    /// Level-1 byte budget of each stripe's tree.
    pub l1_bytes: u64,
    /// Commit rounds across stripes (each is one WAL push + at most one
    /// fsync).
    pub group_commit_rounds: u64,
    /// Write batches committed across stripes. Each round commits one
    /// batch, so this always equals `group_commit_rounds`.
    pub group_commit_batches: u64,
    /// Memtables sealed for background flushes.
    pub seals: u64,
    /// Writes stalled on their own stripe's backpressure.
    pub write_stalls: u64,
    /// Per-tenant partition breakdown, in tenant-id order (the default
    /// tenant `0` first). A single-tenant engine reports one entry.
    pub tenants: Vec<TenantStatsReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_lsm::MemStorage;
    use adcache_workload::render_key;

    /// A pause between a point read's LSM lookup and its cache fill, armed
    /// for one key, so a test can commit a write inside that window.
    pub(super) mod fill_pause {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::sync::Mutex;

        type Armed = (Vec<u8>, Sender<()>, Receiver<()>);
        static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

        /// Arms the next fill of `key`: it signals the first channel, then
        /// waits for the second.
        pub fn arm(key: &[u8]) -> (Receiver<()>, Sender<()>) {
            let ((reached_tx, reached_rx), (resume_tx, resume_rx)) = (channel(), channel());
            *ARMED.lock().unwrap() = Some((key.to_vec(), reached_tx, resume_rx));
            (reached_rx, resume_tx)
        }

        /// Called at the top of every point fill.
        pub fn pause_at(key: &[u8]) {
            let mut armed = ARMED.lock().unwrap();
            if armed.as_ref().is_some_and(|(k, _, _)| k == key) {
                let (_, reached, resume) = armed.take().unwrap();
                drop(armed);
                reached.send(()).unwrap();
                resume.recv().unwrap();
            }
        }
    }

    /// A reader pauses between its LSM lookup of `old` and its fill; a put
    /// of `new` is issued meanwhile. Filling after the lock dropped, the
    /// reader would cache `old` after the put committed and serve it from
    /// then on. Filling under the lock, the put waits for the fill and
    /// then overwrites it.
    #[test]
    fn a_point_fill_cannot_undo_a_write_that_commits_beside_it() {
        for strategy in [Strategy::RangeCache, Strategy::KvCache] {
            let db = Arc::new(build(strategy, 1 << 20));
            let key = Bytes::from_static(b"fill-pause");
            db.put(key.clone(), Bytes::from_static(b"old")).unwrap();
            let (reached, resume) = fill_pause::arm(&key);
            let reader = {
                let (db, key) = (db.clone(), key.clone());
                std::thread::spawn(move || db.get(&key).unwrap())
            };
            reached.recv().unwrap();
            let (put_done, put_acked) = std::sync::mpsc::channel();
            let writer = {
                let (db, key) = (db.clone(), key.clone());
                std::thread::spawn(move || {
                    db.put(key, Bytes::from_static(b"new")).unwrap();
                    put_done.send(()).unwrap();
                })
            };
            // With nothing holding it off, the put is acked at once; held
            // off by the paused reader's lock, it waits for the fill.
            let _ = put_acked.recv_timeout(std::time::Duration::from_millis(200));
            resume.send(()).unwrap();
            assert_eq!(reader.join().unwrap().as_deref(), Some(&b"old"[..]));
            writer.join().unwrap();
            let got = db.get(&key).unwrap();
            assert_eq!(got.as_deref(), Some(&b"new"[..]), "{strategy:?}");
        }
    }

    fn build(strategy: Strategy, cache_bytes: usize) -> CachedDb {
        let storage = Arc::new(MemStorage::new());
        CachedDb::new(
            Options::small(),
            storage,
            EngineConfig::new(strategy, cache_bytes),
        )
        .unwrap()
    }

    fn populate(db: &CachedDb, n: u64) {
        for i in 0..n {
            db.load(render_key(i), Bytes::from(format!("value-{i:04}")))
                .unwrap();
        }
        db.db().flush().unwrap();
        while db.db().maybe_compact_once().unwrap() {}
    }

    /// Every strategy must return identical query results.
    #[test]
    fn all_strategies_agree_on_results() {
        let mut engines: Vec<CachedDb> = Strategy::all()
            .iter()
            .map(|s| build(*s, 64 << 10))
            .collect();
        for e in &engines {
            populate(e, 2000);
        }
        // Mixed reads/writes, repeated so caches warm up and must stay
        // coherent with a ground-truth model.
        let mut model: std::collections::BTreeMap<u64, String> =
            (0..2000).map(|i| (i, format!("value-{i:04}"))).collect();
        for round in 0..3 {
            for i in (0..2000).step_by(7) {
                let expected = &model[&i];
                for e in &engines {
                    let got = e.get(&render_key(i)).unwrap().unwrap();
                    assert_eq!(
                        got.as_ref(),
                        expected.as_bytes(),
                        "round {round} strategy {:?}",
                        e.strategy()
                    );
                }
            }
            for i in (0..2000).step_by(13) {
                let scans: Vec<Vec<(Key, Value)>> = engines
                    .iter()
                    .map(|e| e.scan(&render_key(i), 16).unwrap())
                    .collect();
                for s in &scans[1..] {
                    assert_eq!(s, &scans[0], "scan divergence at {i}");
                }
            }
            // Overwrite some keys; all caches must stay fresh.
            for i in (0..2000).step_by(11) {
                model.insert(i, format!("v{round}-{i}"));
            }
            for e in &mut engines {
                for i in (0..2000).step_by(11) {
                    e.put(render_key(i), Bytes::from(format!("v{round}-{i}")))
                        .unwrap();
                }
            }
            for i in (0..2000).step_by(11) {
                for e in &engines {
                    let got = e.get(&render_key(i)).unwrap().unwrap();
                    assert_eq!(got.as_ref(), format!("v{round}-{i}").as_bytes());
                }
            }
        }
    }

    #[test]
    fn deletes_are_coherent_across_caches() {
        for s in Strategy::all() {
            let db = build(s, 64 << 10);
            populate(&db, 500);
            // Warm caches.
            for i in 0..500 {
                db.get(&render_key(i)).unwrap();
            }
            db.scan(&render_key(100), 32).unwrap();
            for i in (0..500).step_by(3) {
                db.delete(render_key(i)).unwrap();
            }
            for i in 0..500 {
                let got = db.get(&render_key(i)).unwrap();
                if i % 3 == 0 {
                    assert!(got.is_none(), "{s:?}: deleted key {i} resurfaced");
                } else {
                    assert!(got.is_some(), "{s:?}: key {i} lost");
                }
            }
            let scan = db.scan(&render_key(99), 10).unwrap();
            for (k, _) in scan {
                let id = adcache_workload::parse_key(&k).unwrap();
                assert!(!id.is_multiple_of(3), "{s:?}: deleted key {id} in scan");
            }
        }
    }

    #[test]
    fn block_cache_reduces_repeat_io() {
        let db = build(Strategy::RocksDbBlock, 1 << 20);
        populate(&db, 2000);
        db.get(&render_key(42)).unwrap();
        let after_first = db.db().query_block_reads();
        assert!(after_first > 0);
        db.get(&render_key(42)).unwrap();
        assert_eq!(
            db.db().query_block_reads(),
            after_first,
            "second get must be free"
        );
    }

    #[test]
    fn range_cache_strategy_serves_repeat_scans_without_io() {
        let db = build(Strategy::RangeCache, 1 << 20);
        populate(&db, 2000);
        db.scan(&render_key(100), 16).unwrap();
        let reads = db.db().query_block_reads();
        db.scan(&render_key(100), 16).unwrap();
        assert_eq!(
            db.db().query_block_reads(),
            reads,
            "repeat scan must hit the range cache"
        );
        // And a sub-range too.
        db.scan(&render_key(105), 8).unwrap();
        assert_eq!(db.db().query_block_reads(), reads);
    }

    #[test]
    fn kv_cache_serves_points_but_not_scans() {
        let db = build(Strategy::KvCache, 1 << 20);
        populate(&db, 1000);
        db.get(&render_key(5)).unwrap();
        let reads = db.db().query_block_reads();
        db.get(&render_key(5)).unwrap();
        assert_eq!(db.db().query_block_reads(), reads);
        db.scan(&render_key(5), 4).unwrap();
        let reads2 = db.db().query_block_reads();
        db.scan(&render_key(5), 4).unwrap();
        assert!(
            db.db().query_block_reads() > reads2,
            "scans bypass the KV cache"
        );
    }

    #[test]
    fn adcache_decision_moves_the_boundary() {
        let db = build(Strategy::AdCache, 1 << 20);
        populate(&db, 1000);
        let d = CacheDecision {
            range_ratio: 0.0,
            point_threshold: 0.001,
            scan_a: 8,
            scan_b: 0.5,
        };
        db.apply_decision(&d);
        assert_eq!(db.range_cache().unwrap().capacity(), 0);
        assert_eq!(db.block_cache().unwrap().capacity(), 1 << 20);
        let d = CacheDecision {
            range_ratio: 1.0,
            ..d
        };
        db.apply_decision(&d);
        assert_eq!(db.block_cache().unwrap().capacity(), 0);
        // Non-AdCache engines ignore decisions.
        let block_db = build(Strategy::RocksDbBlock, 1 << 20);
        block_db.apply_decision(&d);
        assert_eq!(block_db.block_cache().unwrap().capacity(), 1 << 20);
    }

    /// The hysteresis is 2 % of the budget: the ratios below are literals so
    /// that a change to the constant fails here.
    #[test]
    fn boundary_moves_under_two_percent_are_deferred_and_extremes_snap() {
        let budget = 1usize << 20;
        let db = build(Strategy::AdCache, budget);
        let capacities = |db: &CachedDb| {
            let block = db.block_cache().unwrap().capacity();
            (block, db.range_cache().unwrap().capacity())
        };
        let split = |ratio: f64| {
            let range = (budget as f64 * ratio) as usize;
            (budget - range, range)
        };
        let decide = |range_ratio| {
            db.apply_decision(&CacheDecision {
                range_ratio,
                ..CacheDecision::default()
            })
        };
        assert_eq!(capacities(&db), split(0.5));
        // A move of less than 2 % leaves both capacities as they were, in
        // either direction.
        decide(0.519);
        assert_eq!(capacities(&db), split(0.5));
        decide(0.481);
        assert_eq!(capacities(&db), split(0.5));
        // A move of at least 2 % resizes.
        decide(0.53);
        assert_eq!(capacities(&db), split(0.53));
        decide(0.555);
        assert_eq!(capacities(&db), split(0.555));
        // A ratio within 2 % of 0 or 1 snaps to that extreme, a later ratio
        // that snaps to the same extreme moves nothing, and one 2.5 % away
        // from it neither snaps nor waits.
        decide(0.019);
        assert_eq!(capacities(&db), (budget, 0));
        decide(0.01);
        assert_eq!(capacities(&db), (budget, 0));
        decide(0.025);
        assert_eq!(capacities(&db), split(0.025));
        decide(0.981);
        assert_eq!(capacities(&db), (0, budget));
    }

    #[test]
    fn adcache_partial_admission_limits_range_cache_growth() {
        let db = build(Strategy::AdCache, 1 << 20);
        populate(&db, 4000);
        db.apply_decision(&CacheDecision {
            range_ratio: 1.0,
            point_threshold: 0.0,
            scan_a: 8,
            scan_b: 0.0,
        });
        db.scan(&render_key(0), 64).unwrap();
        // Only the first 8 entries of the long scan may be admitted.
        assert!(
            db.range_cache().unwrap().len() <= 8,
            "len {}",
            db.range_cache().unwrap().len()
        );

        // Compare: plain RangeCache admits all 64.
        let full = build(Strategy::RangeCache, 1 << 20);
        populate(&full, 4000);
        full.scan(&render_key(0), 64).unwrap();
        assert_eq!(full.range_cache().unwrap().len(), 64);
    }

    #[test]
    fn write_batch_keeps_caches_coherent() {
        let db = build(Strategy::AdCache, 1 << 20);
        populate(&db, 500);
        // Warm the caches on a range.
        db.scan(&render_key(100), 32).unwrap();
        // Batch-overwrite part of that range, delete inside and beside it
        // (a delete after a put of the same key: batch order decides).
        let mut batch: Vec<(Key, Entry)> = (100..120)
            .map(|i| {
                let value = Bytes::from(format!("batched-{i}"));
                (render_key(i), Entry::Put(value))
            })
            .collect();
        batch.push((render_key(105), Entry::Tombstone));
        batch.push((render_key(125), Entry::Tombstone));
        db.register_tenant(7);
        let writes = db.snapshot().writes;
        let part = db.partition_for(7);
        db.write_batch_in(&part, batch).unwrap();
        assert_eq!(db.snapshot().writes - writes, 22);
        assert_eq!(part.ops(), 22);
        for i in (100..120).filter(|&i| i != 105) {
            assert_eq!(
                db.get(&render_key(i)).unwrap().unwrap().as_ref(),
                format!("batched-{i}").as_bytes()
            );
        }
        assert_eq!(db.get(&render_key(105)).unwrap(), None);
        assert_eq!(db.get(&render_key(125)).unwrap(), None);
        let scan = db.scan(&render_key(104), 3).unwrap();
        let keys: Vec<Key> = scan.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, [render_key(104), render_key(106), render_key(107)]);
        assert_eq!(scan[0].1.as_ref(), b"batched-104");
    }

    #[test]
    fn window_summary_populates_shape() {
        let db = build(Strategy::AdCache, 1 << 20);
        populate(&db, 3000);
        let start = db.snapshot();
        for i in 0..200 {
            db.get(&render_key(i % 300)).unwrap();
        }
        for i in 0..20 {
            db.scan(&render_key(i * 10), 16).unwrap();
        }
        let w = db.window_summary(&start);
        assert_eq!(w.points, 200);
        assert_eq!(w.scans, 20);
        assert_eq!(w.avg_scan_len, 16.0);
        assert!(w.entries_per_block > 1.0);
        assert!(w.levels >= 1);
        assert!(w.runs >= 1);
        assert_eq!(w.r0_max, 8);
        assert!(w.io_miss > 0);
    }

    #[test]
    fn failed_reads_are_counted_and_do_not_wedge_the_engine() {
        use adcache_lsm::{FaultPlan, FaultStorage};

        let inner = Arc::new(MemStorage::new());
        let faulty = Arc::new(FaultStorage::new(inner, 11, FaultPlan::none()));
        let mut opts = Options::small();
        // Leave no retry headroom so injected errors surface to the engine.
        opts.read_retries = 0;
        let db = CachedDb::new(
            opts,
            faulty.clone(),
            EngineConfig::new(Strategy::AdCache, 64 << 10),
        )
        .unwrap();
        populate(&db, 1000);
        faulty.set_plan(FaultPlan {
            read_transient: 1.0,
            ..FaultPlan::none()
        });
        let start = db.snapshot();
        let mut failures = 0;
        for i in 0..20 {
            if db.get(&render_key(i)).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "an always-failing device must surface errors");
        let w = db.window_summary(&start);
        assert!(
            w.io_miss >= failures,
            "failed reads must be charged as misses (io_miss {}, failures {failures})",
            w.io_miss
        );
        // The storm passes; the same engine serves again.
        faulty.set_plan(FaultPlan::none());
        for i in 0..20 {
            assert!(db.get(&render_key(i)).unwrap().is_some());
        }
    }

    #[test]
    fn failed_write_batch_leaves_no_stale_cached_result() {
        use adcache_lsm::{FaultPlan, FaultStorage};

        let faulty = Arc::new(FaultStorage::new(
            Arc::new(MemStorage::new()),
            11,
            FaultPlan::none(),
        ));
        let db = CachedDb::new(
            Options::small(),
            faulty.clone(),
            EngineConfig::new(Strategy::RangeCache, 1 << 20),
        )
        .unwrap();
        populate(&db, 500);
        for i in 0..500 {
            db.get(&render_key(i)).unwrap();
        }
        // The batch lands in the memtable, then the flush it makes due
        // fails: the engine holds the new values and reports an error.
        faulty.set_plan(FaultPlan {
            write_fail: 1.0,
            ..FaultPlan::none()
        });
        let batch: Vec<(Key, Entry)> = (0..500)
            .map(|i| {
                (
                    render_key(i),
                    Entry::Put(Bytes::from(format!("batched-{i:040}"))),
                )
            })
            .collect();
        assert!(db.write_batch(batch).is_err());
        for i in 0..500 {
            let key = render_key(i);
            let stored = db.db().get(&key, &DirectProvider).unwrap();
            assert_eq!(db.get(&key).unwrap(), stored, "key {i}");
        }
    }

    #[test]
    fn failed_put_or_delete_leaves_no_stale_cached_result() {
        use adcache_lsm::{FaultPlan, FaultStorage};

        let faulty = Arc::new(FaultStorage::new(
            Arc::new(MemStorage::new()),
            11,
            FaultPlan::none(),
        ));
        let db = CachedDb::new(
            Options::small(),
            faulty.clone(),
            EngineConfig::new(Strategy::RangeCache, 1 << 20),
        )
        .unwrap();
        populate(&db, 500);
        for i in 0..500 {
            db.get(&render_key(i)).unwrap();
        }
        // Each write lands in the memtable; the ones that make a flush due
        // then fail with the engine already holding the new value.
        faulty.set_plan(FaultPlan {
            write_fail: 1.0,
            ..FaultPlan::none()
        });
        let mut failed = 0;
        for i in 0..500 {
            let outcome = if i % 2 == 0 {
                db.put(render_key(i), Bytes::from(format!("rewritten-{i:040}")))
            } else {
                db.delete(render_key(i))
            };
            failed += outcome.is_err() as usize;
        }
        assert!(failed > 0, "an always-failing device must fail some writes");
        for i in 0..500 {
            let key = render_key(i);
            let stored = db.db().get(&key, &DirectProvider).unwrap();
            assert_eq!(db.get(&key).unwrap(), stored, "key {i}");
        }
    }

    #[test]
    fn compaction_invalidation_keeps_block_cache_coherent() {
        let db = build(Strategy::RocksDbBlock, 4 << 20);
        populate(&db, 2000);
        // Warm the block cache broadly.
        for i in 0..2000 {
            db.get(&render_key(i)).unwrap();
        }
        let cached_before = db.block_cache().unwrap().len();
        assert!(cached_before > 0);
        // Heavy overwrites force flushes + compactions -> invalidations.
        for round in 0..10 {
            for i in 0..2000 {
                db.put(render_key(i), Bytes::from(format!("r{round}-{i}")))
                    .unwrap();
            }
        }
        assert!(db.block_cache().unwrap().stats().invalidations > 0);
        // Every read still returns the latest value.
        for i in (0..2000).step_by(37) {
            let got = db.get(&render_key(i)).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("r9-{i}").as_bytes());
        }
    }

    #[test]
    fn unregistered_tenants_fall_back_to_the_default_partition() {
        let db = build(Strategy::AdCache, 256 << 10);
        populate(&db, 500);
        // Tenant 42 never registered: its reads behave exactly like
        // legacy single-tenant traffic.
        let part = db.partition_for(42);
        for i in 0..100 {
            assert!(db.get_in(&part, &render_key(i)).unwrap().is_some());
        }
        assert_eq!(db.tenant_ids(), vec![DEFAULT_TENANT]);
        let reports = db.tenant_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tenant, DEFAULT_TENANT);
        assert!(reports[0].ops >= 100);
        assert!((reports[0].share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tenant_partitions_are_capacity_isolated() {
        let db = build(Strategy::AdCache, 512 << 10);
        populate(&db, 2000);
        db.register_tenant(1);
        db.register_tenant(2);
        // Warm tenant 1 on a disjoint slice of the keyspace.
        let (one, two) = (db.partition_for(1), db.partition_for(2));
        for i in 0..200 {
            db.get_in(&one, &render_key(i)).unwrap();
            db.scan_in(&one, &render_key(i), 8).unwrap();
        }
        let quiet = one.used_bytes();
        assert!(quiet > 0, "tenant 1 should have resident bytes");
        // A pathological flood from tenant 2 (reads only — no writes, so
        // no cross-partition invalidation) must not evict tenant 1.
        for round in 0..3 {
            for i in 500..2000 {
                db.get_in(&two, &render_key(i)).unwrap();
                if i % 7 == 0 {
                    db.scan_in(&two, &render_key(i), 16).unwrap();
                }
            }
            let _ = round;
        }
        assert_eq!(
            one.used_bytes(),
            quiet,
            "tenant 2's read pressure must never evict tenant 1's entries"
        );
    }

    #[test]
    fn rebalance_shifts_share_toward_the_hot_tenant() {
        let db = build(Strategy::AdCache, 256 << 10);
        populate(&db, 2000);
        db.register_tenant(1);
        db.register_tenant(2);
        db.register_tenant(3);
        let total: f64 = db.tenant_reports().iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares must sum to 1: {total}");
        // Tenant 1 hammers a working set far larger than its slice
        // (missing constantly); the others idle on one hot key each.
        // Repeated rebalances should grow tenant 1's share while
        // everyone keeps the guaranteed minimum.
        let parts = [1, 2, 3].map(|t| db.partition_for(t));
        for _ in 0..30 {
            for i in 0..1500 {
                db.get_in(&parts[0], &render_key(i)).unwrap();
            }
            db.get_in(&parts[1], &render_key(1900)).unwrap();
            db.get_in(&parts[2], &render_key(1901)).unwrap();
            db.rebalance_tenants();
        }
        let reports = db.tenant_reports();
        let share_of = |t: u32| reports.iter().find(|r| r.tenant == t).unwrap().share;
        let min = db.config().min_tenant_share;
        assert!(
            share_of(1) > 0.30,
            "hot tenant should out-earn an equal split, got {}",
            share_of(1)
        );
        for t in [DEFAULT_TENANT, 2, 3] {
            assert!(
                share_of(t) >= min - 1e-9,
                "tenant {t} fell below the guaranteed minimum: {}",
                share_of(t)
            );
        }
        let total: f64 = reports.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares must sum to 1: {total}");
    }

    /// What each layer counts for itself, keyed by the registry name that
    /// reads it; a name several partitions or stripes count into is their
    /// sum.
    fn owned_counts(db: &CachedDb) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut add = |name: String, v: u64| *out.entry(name).or_insert(0) += v;
        db.for_each_partition(|p| {
            if let Some(bc) = &p.block_cache {
                let s = bc.stats();
                add("cache.block.hits".into(), s.hits);
                add("cache.block.misses".into(), s.misses);
                add("cache.block.inserts".into(), s.inserts);
                add("cache.block.evictions".into(), s.evictions);
                add("cache.block.invalidations".into(), s.invalidations);
            }
            if let Some(rc) = &p.range_cache {
                let s = rc.stats();
                add("cache.range.hits".into(), s.hits);
                add("cache.range.misses".into(), s.misses);
                add("cache.range.evictions".into(), s.evictions);
                add("cache.range.coverage_dropped".into(), rc.coverage_dropped());
            }
            if let Some(kv) = &p.kv_cache {
                let s = kv.stats();
                add("cache.kv.hits".into(), s.hits);
                add("cache.kv.misses".into(), s.misses);
                add("cache.kv.evictions".into(), s.evictions);
            }
            if let Some(adm) = &p.point_admission {
                add("cache.sketch.resets".into(), adm.lock().resets());
            }
            let (hits, misses) = p.hit_counters();
            add(format!("cache.tenant.{}.hits", p.tenant()), hits);
            add(format!("cache.tenant.{}.misses", p.tenant()), misses);
        });
        let lsm = db.db();
        add("lsm.flushes".into(), lsm.stats_sum(|s| s.flushes.get()));
        add("lsm.compactions".into(), lsm.compactions());
        add(
            "lsm.compaction_block_reads".into(),
            lsm.stats_sum(|s| s.compaction_block_reads.get()),
        );
        add(
            "lsm.compaction_block_writes".into(),
            lsm.stats_sum(|s| s.compaction_block_writes.get()),
        );
        add("lsm.seals".into(), lsm.stats_sum(|s| s.seals.get()));
        add(
            "lsm.write_stalls".into(),
            lsm.stats_sum(|s| s.write_stalls.get()),
        );
        add("lsm.group_commit.rounds".into(), lsm.group_commits());
        add("lsm.group_commit.batches".into(), lsm.group_commits());
        out
    }

    /// One seeded mix of gets, scans, puts and deletes over the default
    /// partition and every registered tenant's.
    fn mixed_ops(db: &CachedDb, seed: u64, n: usize) {
        let parts: Vec<Arc<Partition>> = db.all_partitions();
        let mut x = seed;
        for _ in 0..n {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let part = &parts[(x % parts.len() as u64) as usize];
            let key = render_key((x >> 8) % 3000);
            match (x >> 32) % 10 {
                0..=4 => drop(db.get_in(part, &key).unwrap()),
                5 | 6 => drop(db.scan_in(part, &key, 8).unwrap()),
                7 | 8 => db.put_in(part, key, Bytes::from(format!("v{x}"))).unwrap(),
                _ => db.delete_in(part, key).unwrap(),
            }
        }
    }

    /// Each quantity has one cell, owned by the layer that counts it, and
    /// the registry reads that cell rather than a copy: over two stripes,
    /// four block-cache shards and two tenants, every name reads what its owner counted since the
    /// handle was attached (work before the attach, and a tenant
    /// registered after it, included), and `engine.lock.*` reads the sum
    /// of the stripes' own lock cells.
    #[test]
    fn the_registry_reads_what_each_layer_counts_since_attach() {
        for strategy in [Strategy::AdCache, Strategy::RocksDbBlock, Strategy::KvCache] {
            let opts = Options {
                stripes: 2,
                ..Options::small()
            };
            let cfg = EngineConfig {
                block_shards: 4,
                ..EngineConfig::new(strategy, 64 << 10)
            };
            let db = CachedDb::new(opts, Arc::new(MemStorage::new()), cfg).unwrap();
            populate(&db, 3000);
            db.register_tenant(1);
            mixed_ops(&db, 7, 3000);
            let before = owned_counts(&db);
            let obs = Obs::enabled();
            db.set_obs(obs.clone());
            db.register_tenant(2);
            mixed_ops(&db, 42, 6000);
            let after = owned_counts(&db);
            let reg = obs.registry().unwrap();
            for (name, now) in &after {
                let since = now - before.get(name).copied().unwrap_or(0);
                assert_eq!(reg.counter_value(name), since, "{strategy:?} {name}");
            }
            for name in ["lsm.flushes", "lsm.compactions", "lsm.group_commit.rounds"] {
                assert!(reg.counter_value(name) > 0, "{strategy:?}: no {name}");
            }
            for path in ["read", "write", "flush", "compaction"] {
                for what in ["acquisitions", "wait_ns", "hold_ns"] {
                    let per_stripe: u64 = (0..2)
                        .map(|i| {
                            reg.counter_value(&format!("engine.stripe.{i}.lock.{path}.{what}"))
                        })
                        .sum();
                    let name = format!("engine.lock.{path}.{what}");
                    assert_eq!(reg.counter_value(&name), per_stripe, "{strategy:?} {name}");
                }
            }
            assert!(reg.counter_value("engine.lock.write.acquisitions") > 0);
        }
    }
}
