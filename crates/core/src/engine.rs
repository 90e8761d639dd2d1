//! The cached database engine: LSM-tree + cache strategy wiring.
//!
//! [`CachedDb`] implements the paper's query-handling path (Figure 5):
//! a query first consults the range cache, then the engine (memtable →
//! block cache → disk); retrieved results flow back through the cache-fill
//! path subject to admission control. Six configurations — the five
//! baselines of Section 5.1 plus AdCache itself — share this one engine,
//! differing only in which caches exist and how admission behaves.

use crate::controller::CacheDecision;
use crate::memory::{self, MemoryReport};
use crate::stats::{Counters, HitTally, Snapshot, WindowSummary};
use adcache_cache::{
    BlockCache, CacheFootprint, CacheusPolicy, KvCache, LeCaRPolicy, PointAdmission, PointLookup,
    RangeCache, RangeFootprint, RangePolicyFactory, ScanAdmission, SlotClockPolicy,
};
use adcache_lsm::{
    DirectProvider, Entry, FileStorage, Key, MemStorage, Options, Result, Storage, StripedDb, Value,
};
use adcache_obs::{Counter, Event, Gauge, Obs};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// The cache configuration under evaluation (paper Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// RocksDB's default: all memory in a block cache.
    RocksDbBlock,
    /// A pure key-value (row) result cache; scans bypass it.
    KvCache,
    /// Range Cache (Wang et al.), evicting by a 2-bit CLOCK where the
    /// paper's runs LRU.
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
        }
    }
}

/// Why an admission decision went the way it did, which also says whether
/// it accepted, rejected or (a scan's) admitted a prefix.
#[derive(Clone, Copy)]
enum AdmissionReason {
    /// Point admission: estimated frequency reached the threshold; accept.
    FrequencyAtThreshold,
    /// Point admission: estimated frequency was below the threshold;
    /// reject.
    FrequencyBelowThreshold,
    /// Scan admission: result length within the full-admission cut-off
    /// `a`; accept.
    ScanWithinFullLimit,
    /// Scan admission: the sloped rule `a + b·(len − a)` truncated the
    /// result; partial.
    ScanPartialSlope,
    /// Scan admission: the rule admitted nothing; reject.
    ScanZeroLength,
    /// Admission control disabled or not applicable for this strategy; the
    /// insert is unconditional.
    Unconditional,
}

impl AdmissionReason {
    /// Every reason, in the order of [`name`](Self::name)'s table.
    const ALL: [AdmissionReason; 6] = [
        AdmissionReason::FrequencyAtThreshold,
        AdmissionReason::FrequencyBelowThreshold,
        AdmissionReason::ScanWithinFullLimit,
        AdmissionReason::ScanPartialSlope,
        AdmissionReason::ScanZeroLength,
        AdmissionReason::Unconditional,
    ];

    /// The last part of the reason's counter names,
    /// `core.admission.decisions.NAME` and `core.admission.admitted.NAME`.
    fn name(self) -> &'static str {
        match self {
            AdmissionReason::FrequencyAtThreshold => "frequency_at_threshold",
            AdmissionReason::FrequencyBelowThreshold => "frequency_below_threshold",
            AdmissionReason::ScanWithinFullLimit => "scan_within_full_limit",
            AdmissionReason::ScanPartialSlope => "scan_partial_slope",
            AdmissionReason::ScanZeroLength => "scan_zero_length",
            AdmissionReason::Unconditional => "unconditional",
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
    /// Per [`AdmissionReason`], in [`AdmissionReason::ALL`]'s order: the
    /// decisions it made and the entries they admitted.
    admission_by_reason: [(Counter, Counter); 6],
    boundary_resizes: Counter,
    boundary_block_bytes: Gauge,
    boundary_range_bytes: Gauge,
}

impl EngineObsHooks {
    fn new(obs: Obs) -> Self {
        EngineObsHooks {
            admission_accepts: obs.counter("core.admission.accepts"),
            admission_rejects: obs.counter("core.admission.rejects"),
            admission_partials: obs.counter("core.admission.partials"),
            admission_by_reason: AdmissionReason::ALL.map(|reason| {
                let name = reason.name();
                (
                    obs.counter(&format!("core.admission.decisions.{name}")),
                    obs.counter(&format!("core.admission.admitted.{name}")),
                )
            }),
            boundary_resizes: obs.counter("core.boundary.resizes"),
            boundary_block_bytes: obs.gauge("core.boundary.block_bytes"),
            boundary_range_bytes: obs.gauge("core.boundary.range_bytes"),
            obs,
        }
    }

    /// Counts one admission verdict: by outcome, and by reason with the
    /// entries it admitted.
    fn admission(&self, reason: AdmissionReason, admitted: u64) {
        match reason {
            AdmissionReason::FrequencyBelowThreshold | AdmissionReason::ScanZeroLength => {
                &self.admission_rejects
            }
            AdmissionReason::ScanPartialSlope => &self.admission_partials,
            _ => &self.admission_accepts,
        }
        .inc();
        let (decisions, entries) = &self.admission_by_reason[reason as usize];
        decisions.inc();
        entries.add(admitted);
    }
}

/// An LSM-tree fronted by the configured cache strategy. The tree itself
/// is a [`StripedDb`]: N keyspace stripes with independent write paths
/// (one stripe, synchronous maintenance by default).
///
/// One set of caches and one admission sketch hold the whole budget for
/// every caller. A served tenant shares them with everyone else and is
/// only charged its own hits and misses ([`HitTally`]).
pub struct CachedDb {
    db: StripedDb,
    strategy: Strategy,
    block_cache: Option<Arc<BlockCache>>,
    kv_cache: Option<KvCache>,
    range_cache: Option<RangeCache>,
    /// Frequency admission gating the range cache's point fills (AdCache).
    point_admission: Option<Mutex<PointAdmission>>,
    /// Partial admission of scan results (AdCache): present exactly when
    /// the controller's decisions apply.
    scan_admission: Option<RwLock<ScanAdmission>>,
    total_cache_bytes: usize,
    /// Cached entries-per-block estimate, refreshed once per window.
    b_estimate: RwLock<f64>,
    /// The last applied range ratio (boundary hysteresis).
    applied_ratio: RwLock<f64>,
    counters: Counters,
    obs: OnceLock<EngineObsHooks>,
    /// The copy rule, read from the store once: whether the result caches
    /// copy the values they admit, which they do when the store's blocks
    /// are private read buffers (see [`Storage::blocks_are_the_store`]).
    /// Only [`keep`](Self::keep) and [`keep_all`](Self::keep_all) read it.
    copy_values: bool,
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

    /// The store a server runs, and the one place its tree is sized:
    /// [`Options::served`] over `stripes` stripes, maintained in the
    /// background when there are several. In memory they share a 4 MiB
    /// write buffer; under `dir` each gets 4 MiB, with tables in `dir/sst`
    /// and WAL and manifest under `dir/meta`.
    pub fn served(engine: EngineConfig, stripes: usize, dir: Option<&Path>) -> Result<Self> {
        let write_buffer = dir.map_or(4 << 20, |_| stripes * (4 << 20));
        let opts = Options {
            background_maintenance: stripes > 1,
            ..Options::served(stripes, write_buffer)
        };
        match dir {
            Some(dir) => {
                let storage = Arc::new(FileStorage::open(dir.join("sst"))?);
                Self::with_durability(opts, storage, dir.join("meta"), engine)
            }
            None => Self::new(opts, Arc::new(MemStorage::new()), engine),
        }
    }

    /// Wraps an already-constructed (possibly recovered) striped tree with
    /// the cache strategy's structures, sized to the whole budget.
    fn from_tree(db: StripedDb, cfg: EngineConfig) -> Result<Self> {
        let total = cfg.total_cache_bytes;
        // Start at the default even split; the controller moves it.
        let d = CacheDecision::default();
        let range_cache = |budget, factory: RangePolicyFactory| {
            Some(RangeCache::with_shards(
                budget,
                cfg.range_boundaries.clone(),
                factory,
            ))
        };
        let block_cache = |budget| Some(Arc::new(BlockCache::new(budget, cfg.block_shards)));
        let (mut block, mut kv, mut range, mut point, mut scan) = (None, None, None, None, None);
        match cfg.strategy {
            Strategy::RocksDbBlock => block = block_cache(total),
            Strategy::KvCache => kv = Some(KvCache::new(total)),
            Strategy::RangeCache => {
                range = range_cache(total, Box::new(|| Box::new(SlotClockPolicy::new())));
            }
            Strategy::RangeCacheLeCaR => {
                range = range_cache(total, Box::new(|| Box::new(LeCaRPolicy::new())));
            }
            Strategy::RangeCacheCacheus => {
                range = range_cache(total, Box::new(|| Box::new(CacheusPolicy::new())));
            }
            Strategy::AdCache => {
                block = block_cache((total as f64 * (1.0 - d.range_ratio)) as usize);
                range = range_cache(
                    (total as f64 * d.range_ratio) as usize,
                    Box::new(|| Box::new(SlotClockPolicy::new())),
                );
                let adm = PointAdmission::with_guard(
                    cfg.expected_keys,
                    d.point_threshold,
                    cfg.sketch_guard,
                );
                point = Some(Mutex::new(adm));
                scan = Some(RwLock::new(ScanAdmission::default()));
            }
        }
        // Compactions must sweep stale blocks out of the block cache.
        if let Some(bc) = &block {
            db.add_compaction_listener(bc.clone());
        }
        Ok(CachedDb {
            strategy: cfg.strategy,
            block_cache: block,
            kv_cache: kv,
            range_cache: range,
            point_admission: point,
            scan_admission: scan,
            total_cache_bytes: total,
            b_estimate: RwLock::new(4.0),
            applied_ratio: RwLock::new(d.range_ratio),
            counters: Counters::default(),
            obs: OnceLock::new(),
            copy_values: !db.storage().blocks_are_the_store(),
            db,
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
            adm.lock().set_obs(obs);
        }
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

    /// The block cache, when the strategy has one.
    pub fn block_cache(&self) -> Option<&BlockCache> {
        self.block_cache.as_deref()
    }

    /// The range cache, when the strategy has one.
    pub fn range_cache(&self) -> Option<&RangeCache> {
        self.range_cache.as_ref()
    }

    /// Auto-resets the admission sketch's anomaly guard has performed (0
    /// when the strategy has no point admission).
    pub fn sketch_resets(&self) -> u64 {
        self.point_admission
            .as_ref()
            .map_or(0, |adm| adm.lock().resets())
    }

    /// [`get_in`](Self::get_in) charged to no tally.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_in(None, key)
    }

    /// Point lookup along the paper's query-handling path; the result
    /// caches' hit or miss is charged to `tally`.
    pub fn get_in(&self, tally: Option<&HitTally>, key: &[u8]) -> Result<Option<Value>> {
        self.counters.add_point();
        if let Some(answer) = self.probe_point_caches(key) {
            HitTally::charge(tally, true);
            return Ok(answer);
        }
        HitTally::charge(tally, false);
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        // The fill runs before the stripe's read lock drops, so no write to
        // `key` can commit between the read and the fill and be undone by it.
        let fill = |found: Option<&Value>| {
            if let Some(v) = found {
                self.fill_point_caches(key, v);
            }
        };
        let result = match &self.block_cache {
            Some(bc) => self.db.get_then(key, &bc.provider(), fill),
            None => self.db.get_then(key, &DirectProvider, fill),
        };
        // Graceful degradation: a failed read is charged as a miss (the
        // controller must see a failing device as expensive, not as a
        // quiet window) and the error propagates to the caller.
        result.inspect_err(|_| self.counters.add_failed_read())
    }

    /// [`multi_get_in`](Self::multi_get_in) charged to no tally.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Value>>> {
        self.multi_get_in(None, keys)
    }

    /// Batched point lookup: probes the caches per key, then reads all
    /// misses from the LSM-tree in **one** grouped call
    /// ([`StripedDb::multi_get`]) that takes each stripe's read lock once
    /// per group instead of once per key. Results are positional:
    /// `out[i]` answers `keys[i]`. Counter, tally and admission semantics
    /// per key match [`get_in`](Self::get_in); a failed grouped read is
    /// charged as one failed read and fails the whole batch.
    pub fn multi_get_in(
        &self,
        tally: Option<&HitTally>,
        keys: &[&[u8]],
    ) -> Result<Vec<Option<Value>>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            self.counters.add_point();
            let answer = self.probe_point_caches(key);
            HitTally::charge(tally, answer.is_some());
            match answer {
                Some(answer) => out[i] = answer,
                None => miss_idx.push(i),
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
                    self.fill_point_caches(key, v);
                }
            }
        };
        let result = match &self.block_cache {
            Some(bc) => self.db.multi_get_then(&miss_keys, &bc.provider(), fill),
            None => self.db.multi_get_then(&miss_keys, &DirectProvider, fill),
        };
        let values = result.inspect_err(|_| self.counters.add_failed_read())?;
        for (&i, value) in miss_idx.iter().zip(values) {
            out[i] = value;
        }
        Ok(out)
    }

    /// Probes the range and KV caches for `key`.
    /// `Some(answer)` is a hit (including a negative hit: `Some(None)`);
    /// `None` means both caches missed and the LSM-tree must be read.
    fn probe_point_caches(&self, key: &[u8]) -> Option<Option<Value>> {
        if let Some(rc) = &self.range_cache {
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
        if let Some(kv) = &self.kv_cache {
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
    fn fill_point_caches(&self, key: &[u8], v: &Value) {
        #[cfg(test)]
        tests::fill_pause::pause_at(key);
        // One owned copy of the key, and the value as the caches keep it,
        // made when the first cache admits them and shared by the second.
        let mut owned: Option<Bytes> = None;
        let mut owned_key = || {
            owned
                .get_or_insert_with(|| Bytes::copy_from_slice(key))
                .clone()
        };
        let mut kept: Option<Value> = None;
        let mut kept_value = || kept.get_or_insert_with(|| self.keep(v)).clone();
        if let Some(rc) = &self.range_cache {
            let (admit, reason) = match &self.point_admission {
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
                h.admission(reason, admit as u64);
            }
            if admit {
                rc.insert_point(owned_key(), kept_value());
            }
        }
        if let Some(kv) = &self.kv_cache {
            if let Some(h) = self.obs.get() {
                h.admission(AdmissionReason::Unconditional, 1);
            }
            kv.insert(owned_key(), kept_value());
        }
    }

    /// A value as a result cache keeps it: the copy rule. Over a store
    /// whose blocks are private read buffers (`FileStorage`), a view would
    /// pin the whole buffer it was read into, so the cache gets an
    /// exact-size copy; where the blocks are the store (`MemStorage`), the
    /// view costs nothing the store does not hold anyway, and is kept.
    fn keep(&self, v: &Value) -> Value {
        if self.copy_values {
            Bytes::copy_from_slice(v)
        } else {
            v.clone()
        }
    }

    /// A scan tail as the range cache keeps its first `admitted` entries
    /// ([`keep`](Self::keep)): only those are copied, and nothing is when
    /// the store keeps its blocks or nothing is admitted (an empty tail
    /// still records its negative range).
    fn keep_all<'a>(&self, tail: &'a [(Key, Value)], admitted: usize) -> Cow<'a, [(Key, Value)]> {
        if !self.copy_values || admitted == 0 {
            return Cow::Borrowed(tail);
        }
        let kept = tail[..admitted]
            .iter()
            .map(|(k, v)| (k.clone(), self.keep(v)));
        Cow::Owned(kept.collect())
    }

    /// [`scan_in`](Self::scan_in) charged to no tally.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<(Key, Value)>> {
        self.scan_in(None, from, limit)
    }

    /// Range scan along the query-handling path; a full range-cache hit or
    /// a miss is charged to `tally`.
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
        tally: Option<&HitTally>,
        from: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>> {
        self.counters.add_scan(limit);
        let (mut results, continuation) = match &self.range_cache {
            Some(rc) => rc.get_range_partial(from, limit),
            None => (Vec::new(), Some(Bytes::copy_from_slice(from))),
        };
        let Some(cont_key) = continuation else {
            self.counters.range_hits.fetch_add(1, Ordering::Relaxed);
            HitTally::charge(tally, true);
            self.counters
                .entries_returned
                .fetch_add(results.len() as u64, Ordering::Relaxed);
            return Ok(results);
        };
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        HitTally::charge(tally, false);
        let remaining = limit - results.len();
        let admission = self.scan_admission.as_ref().map(|a| *a.read());
        // The fill runs before the scan's locks drop, so no write can commit
        // between the read and the fill and then be undone by it.
        let fill = |tail: &[(Key, Value)]| {
            if let Some(rc) = &self.range_cache {
                let admitted = admission.map_or(tail.len(), |a| a.admitted_len(tail.len()));
                if let Some(h) = self.obs.get() {
                    if !tail.is_empty() {
                        let reason = if admission.is_none() {
                            AdmissionReason::Unconditional
                        } else if admitted == 0 {
                            AdmissionReason::ScanZeroLength
                        } else if admitted >= tail.len() {
                            AdmissionReason::ScanWithinFullLimit
                        } else {
                            AdmissionReason::ScanPartialSlope
                        };
                        h.admission(reason, admitted.min(tail.len()) as u64);
                    }
                }
                let admitted = admitted.min(tail.len());
                rc.insert_scan(&cont_key, &self.keep_all(tail, admitted), admitted);
            }
        };
        let tail = match &self.block_cache {
            Some(bc) => {
                // AdCache also applies partial admission at block
                // granularity (Section 3.4 closing note): misses beyond the
                // budget are read but not admitted.
                let provider = match admission {
                    Some(admission) => {
                        let b = self.b_estimate.read().max(1.0);
                        let admitted_entries = admission.admitted_len(remaining);
                        let seek_blocks = self.db.num_runs().max(1);
                        let budget = (admitted_entries as f64 / b).ceil() as usize + seek_blocks;
                        bc.provider_with_budget(budget)
                    }
                    None => bc.provider(),
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

    /// Propagates applied writes, in order, to the result caches. Runs
    /// under the write lock of the stripe that applied them, so it cannot
    /// interleave with a read's fill of the same keys; a write that never
    /// reached the memtable never gets here.
    fn on_write_all(&self, applied: &[(Key, Entry)]) {
        for (key, entry) in applied {
            if let Some(kv) = &self.kv_cache {
                kv.on_write(key, entry.value());
            }
            if let Some(rc) = &self.range_cache {
                rc.on_write(key, entry.value());
            }
        }
    }

    /// Write-through: the engine plus the result caches stay consistent.
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.counters.add_write();
        self.db
            .put_then(key, value, |applied| self.on_write_all(applied))
    }

    /// Applies a batch of puts and deletes atomically per stripe (see
    /// [`StripedDb::write_batch`]): one write-lock acquisition, commit
    /// round and WAL flush per stripe instead of one per key. Every
    /// result cache stays write-through consistent, in batch order.
    pub fn write_batch(&self, batch: Vec<(Key, Entry)>) -> Result<()> {
        self.counters
            .writes
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.db
            .write_batch_then(batch, |applied| self.on_write_all(applied))
    }

    /// Deletes a key, invalidating its result-cache entries.
    pub fn delete(&self, key: Key) -> Result<()> {
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
    /// the admission parameters (AdCache only, the one strategy with scan
    /// admission; no-op otherwise).
    pub fn apply_decision(&self, d: &CacheDecision) {
        let Some(scan_admission) = &self.scan_admission else {
            return;
        };
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
            if let (Some(bc), Some(rc)) = (&self.block_cache, &self.range_cache) {
                bc.set_capacity(block_bytes);
                rc.set_capacity(range_bytes);
            }
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
        if let Some(adm) = &self.point_admission {
            adm.lock().set_threshold(d.point_threshold);
        }
        *scan_admission.write() = ScanAdmission::new(d.scan_a, d.scan_b);
        self.refresh_shape();
    }

    /// Empties every cache (capacities are preserved). Used between
    /// back-to-back controlled experiments on a shared engine so one
    /// candidate's warm state cannot bias the next.
    pub fn clear_caches(&self) {
        if let Some(bc) = &self.block_cache {
            bc.clear();
        }
        if let Some(rc) = &self.range_cache {
            rc.clear();
        }
        if let Some(kv) = &self.kv_cache {
            kv.clear();
        }
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
        let bstats = self
            .block_cache
            .as_ref()
            .map(|b| b.stats())
            .unwrap_or_default();
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
        let occupancy = |used: usize, cap: usize| {
            if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            }
        };
        w.block_occupancy = self
            .block_cache
            .as_ref()
            .map_or(0.0, |b| occupancy(b.used(), b.capacity()));
        let dataset: u64 = self.db.level_summary().iter().map(|(_, _, b)| b).sum();
        w.cache_fraction = if dataset == 0 {
            0.0
        } else {
            (self.total_cache_bytes as f64 / dataset as f64).min(2.0)
        };
        w.range_occupancy = self
            .range_cache
            .as_ref()
            .map_or(0.0, |r| occupancy(r.used(), r.capacity()));
        w
    }

    /// Total cache memory budget.
    pub fn total_cache_bytes(&self) -> usize {
        self.total_cache_bytes
    }

    /// The memory ledger (see [`crate::memory`]): every term the served
    /// path holds, summed over stripes, against the process's resident
    /// set. Computed now, from sizes the structures keep; `STATS.memory`
    /// on the wire.
    pub fn memory_report(&self) -> MemoryReport {
        let storage = self.db.storage();
        memory::report(memory::Terms {
            blocks_are_the_store: storage.blocks_are_the_store(),
            range: self
                .range_cache
                .as_ref()
                .map_or_else(RangeFootprint::default, |rc| rc.footprint()),
            block: self
                .block_cache
                .as_ref()
                .map_or_else(CacheFootprint::default, |bc| bc.footprint()),
            kv: self
                .kv_cache
                .as_ref()
                .map_or_else(CacheFootprint::default, |c| c.footprint()),
            sketch: self
                .point_admission
                .as_ref()
                .map_or(0, |adm| adm.lock().sketch().memory_bytes()),
            trees: (0..self.db.num_stripes())
                .map(|i| self.db.stripe(i).memory())
                .collect(),
            store: storage.resident_bytes(),
        })
    }

    /// A serializable point-in-time statistics report covering the engine,
    /// every cache structure, and the tree shape — the payload behind the
    /// server's `STATS` opcode and the CLI `stats` command.
    pub fn stats_report(&self) -> EngineStatsReport {
        let snap = self.snapshot();
        let opts = self.db.options();
        let (block, range) = (
            self.block_cache.as_deref().map(|bc| {
                let s = bc.stats();
                CacheStatsReport {
                    used_bytes: bc.used() as u64,
                    capacity_bytes: bc.capacity() as u64,
                    entries: bc.len() as u64,
                    hits: s.hits,
                    misses: s.misses,
                }
            }),
            self.range_cache.as_ref().map(|rc| {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_workload::render_key;
    use std::collections::BTreeMap;

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
        let writes = db.snapshot().writes;
        db.write_batch(batch).unwrap();
        assert_eq!(db.snapshot().writes - writes, 22);
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

    /// Every caller reads one set of caches: what one caller's read
    /// filled is a hit for the next caller, charged to that caller's tally
    /// alone, and a read given no tally charges none.
    #[test]
    fn reads_share_the_caches_and_charge_the_tally_they_are_given() {
        let db = build(Strategy::AdCache, 256 << 10);
        populate(&db, 500);
        let (one, two) = (HitTally::default(), HitTally::default());
        let key = render_key(7);
        assert_eq!(db.scan_in(Some(&one), &key, 8).unwrap().len(), 8);
        assert_eq!(db.scan_in(Some(&two), &key, 8).unwrap().len(), 8);
        assert!(db.get_in(Some(&two), &key).unwrap().is_some());
        let keys = [&key[..], &render_key(8)[..]];
        assert_eq!(db.multi_get_in(Some(&two), &keys).unwrap().len(), 2);
        let tally = |t: &HitTally| (t.hits.get(), t.misses.get());
        assert_eq!(tally(&one), (0, 1), "the first scan filled the cache");
        assert_eq!(tally(&two), (4, 0), "the same keys hit for the next caller");
        db.scan(&key, 8).unwrap();
        db.get(&key).unwrap();
        assert_eq!((tally(&one), tally(&two)), ((0, 1), (4, 0)));
    }

    /// What each layer counts for itself, keyed by the registry name that
    /// reads it; a name several stripes count into is their sum.
    fn owned_counts(db: &CachedDb) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut add = |name: String, v: u64| *out.entry(name).or_insert(0) += v;
        if let Some(bc) = &db.block_cache {
            let s = bc.stats();
            add("cache.block.hits".into(), s.hits);
            add("cache.block.misses".into(), s.misses);
            add("cache.block.inserts".into(), s.inserts);
            add("cache.block.evictions".into(), s.evictions);
            add("cache.block.invalidations".into(), s.invalidations);
        }
        if let Some(rc) = &db.range_cache {
            let s = rc.stats();
            add("cache.range.hits".into(), s.hits);
            add("cache.range.misses".into(), s.misses);
            add("cache.range.evictions".into(), s.evictions);
            add("cache.range.coverage_dropped".into(), rc.coverage_dropped());
        }
        if let Some(kv) = &db.kv_cache {
            let s = kv.stats();
            add("cache.kv.hits".into(), s.hits);
            add("cache.kv.misses".into(), s.misses);
            add("cache.kv.evictions".into(), s.evictions);
        }
        add("cache.sketch.resets".into(), db.sketch_resets());
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

    /// One seeded mix of gets, scans, puts and deletes.
    fn mixed_ops(db: &CachedDb, seed: u64, n: usize) {
        let mut x = seed;
        for _ in 0..n {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = render_key((x >> 8) % 3000);
            match (x >> 32) % 10 {
                0..=4 => drop(db.get(&key).unwrap()),
                5 | 6 => drop(db.scan(&key, 8).unwrap()),
                7 | 8 => db.put(key, Bytes::from(format!("v{x}"))).unwrap(),
                _ => db.delete(key).unwrap(),
            }
        }
    }

    /// Each quantity has one cell, owned by the layer that counts it, and
    /// the registry reads that cell rather than a copy: over two stripes
    /// and four block-cache shards, every name reads what its owner
    /// counted since the handle was attached (work before the attach
    /// included), and `engine.lock.*` reads the sum of the stripes' own
    /// lock cells.
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
            mixed_ops(&db, 7, 3000);
            let before = owned_counts(&db);
            let obs = Obs::enabled();
            db.set_obs(obs.clone());
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
