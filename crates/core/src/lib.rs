//! # adcache-core — AdCache: RL-driven cache management for LSM-trees
//!
//! The primary contribution of the reproduced paper (EDBT 2026): a caching
//! system for LSM-tree key-value stores that
//!
//! 1. **partitions** one memory budget between a block cache and a range
//!    cache behind a dynamic boundary ([`engine`]),
//! 2. applies **admission control** — frequency-gated for point lookups,
//!    partial for scans — on the cache-fill path,
//! 3. and drives both with an online **actor-critic controller**
//!    ([`controller`]) trained on the I/O-based reward of [`reward`].
//!
//! [`engine::Strategy`] instantiates the paper's five baselines (RocksDB
//! block cache, KV cache, Range Cache with CLOCK / LeCaR / Cacheus) and
//! AdCache itself over the same native LSM engine, and [`runner`] drives
//! whole experiments: static mixes, the Table 3 dynamic schedule, and
//! multi-client runs. One set of caches serves every caller; a served
//! tenant is charged only its own hits and misses ([`HitTally`]).
//!
//! ```
//! use adcache_core::{CachedDb, EngineConfig, Strategy};
//! use adcache_lsm::{MemStorage, Options};
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let db = CachedDb::new(
//!     Options::small(),
//!     Arc::new(MemStorage::new()),
//!     EngineConfig::new(Strategy::AdCache, 1 << 20),
//! ).unwrap();
//! db.put(Bytes::from("k"), Bytes::from("v")).unwrap();
//! assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"v");
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod engine;
pub mod memory;
pub mod reward;
pub mod runner;
pub mod stats;
pub mod tuner;

pub use adcache_obs::Histogram;
pub use controller::{
    featurize_with, CacheDecision, Controller, ControllerConfig, TuningRecord, ACTION_DIM,
    STATE_DIM,
};
pub use engine::{CacheStatsReport, CachedDb, EngineConfig, EngineStatsReport, Strategy};
pub use memory::{MemoryReport, MemoryRow};
pub use reward::{h_estimate, io_estimate, io_estimate_of, RewardSmoother};
pub use runner::{
    execute, prepare_db, prepare_db_with_storage, run_multiclient, run_schedule, run_schedule_on,
    run_static, RunConfig, RunResult, WindowRecord,
};
pub use stats::{Counters, HitTally, Snapshot, WindowSummary};
pub use tuner::{ClosedWindow, Tuner};
