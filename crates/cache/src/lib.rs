//! # adcache-cache — cache structures for LSM-tree key-value stores
//!
//! The cache substrate of the AdCache reproduction (EDBT 2026):
//!
//! - [`block_cache::BlockCache`] — sharded, byte-charged cache of decoded
//!   SSTable blocks (RocksDB-style), invalidated by compaction;
//! - [`kv_cache::KvCache`] — point-result cache (Row Cache analogue);
//! - [`range_cache::RangeCache`] — result cache with covered-segment
//!   tracking, serving point *and* range lookups across compactions;
//! - [`container::ChargedCache`] — the byte-charged LRU the block and KV
//!   caches are made of;
//! - [`policy`] — the range cache's pluggable eviction over slot ids:
//!   2-bit CLOCK (the default), LRU, LFU (plus CR-LFU), LeCaR and Cacheus,
//!   behind one [`policy::Policy`] trait;
//! - [`sketch::CountMinSketch`] + [`admission`] — TinyLFU-style frequency
//!   admission for point lookups and partial admission for scans, the two
//!   mechanisms AdCache's RL agent tunes online.

#![warn(missing_docs)]

pub mod admission;
pub mod block_cache;
pub mod container;
pub mod kv_cache;
pub mod policy;
pub mod range_cache;
pub mod sketch;

pub use admission::{PointAdmission, ScanAdmission};
pub use block_cache::{BlockCache, ScopedBlockProvider};
pub use container::{CacheCounters, CacheFootprint, CacheStats, ChargedCache};
pub use kv_cache::KvCache;
pub use policy::{
    CacheusPolicy, LeCaRPolicy, LfuPolicy, Policy, SlotClockPolicy, SlotLruPolicy, TieBreak,
};
pub use range_cache::{PointLookup, RangeCache, RangeFootprint, RangeLookup, RangePolicyFactory};
pub use sketch::CountMinSketch;
