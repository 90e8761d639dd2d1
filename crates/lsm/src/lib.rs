//! # adcache-lsm — a native Rust LSM-tree storage engine
//!
//! This crate is the storage substrate of the AdCache reproduction (EDBT
//! 2026). The paper implements its cache on top of RocksDB; since the Rust
//! `rocksdb` crate merely wraps the C++ cache layer, this crate rebuilds the
//! relevant engine natively:
//!
//! - a [`memtable::MemTable`] over an arena skiplist;
//! - prefix-compressed [`block`]s with restart points, grouped into
//!   [`sstable`]s with pinned sparse indexes and [`bloom`] filters;
//! - RocksDB-style 1-leveling: a tiered Level 0 plus leveled deeper levels,
//!   managed by [`version`] and [`compaction`];
//! - pluggable [`storage`] backends (in-memory and file-backed) that count
//!   every data-block I/O — the paper's core metric;
//! - a [`db::LsmTree`] facade whose block fetches flow through a
//!   [`sstable::BlockProvider`], the seam where the cache layer plugs in.
//!
//! ```
//! use adcache_lsm::{LsmTree, Options, MemStorage, DirectProvider};
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let db = LsmTree::new(Options::small(), Arc::new(MemStorage::new())).unwrap();
//! db.put(Bytes::from("hello"), Bytes::from("world")).unwrap();
//! let got = db.get(b"hello", &DirectProvider).unwrap();
//! assert_eq!(got.unwrap().as_ref(), b"world");
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod bloom;
pub mod compaction;
pub mod compress;
pub mod db;
pub mod error;
pub mod fault;
pub mod fs;
pub mod history;
pub mod iterator;
pub mod manifest;
pub mod memtable;
pub mod options;
mod skiplist;
pub mod sstable;
pub mod storage;
pub mod striped;
pub mod timed_lock;
pub mod types;
pub mod version;
pub mod wal;

pub use block::{Block, BlockBuilder};
pub use bloom::BloomFilter;
pub use compaction::{CompactionEvent, CompactionListener};
pub use compress::{lzss_compress, lzss_decompress};
pub use db::{DbStats, LsmTree};
pub use error::{LsmError, Result};
pub use fault::{CrashController, CrashPoint, FaultPlan, FaultStats, FaultStorage};
pub use fs::{MetaFs, RealFs, SimFs, UnsyncedLoss};
pub use manifest::ManifestSync;
pub use options::{FsyncSite, Options, SyncPolicy};
pub use sstable::{
    decode_stored_block, decode_stored_block_at, BlockProvider, DirectProvider, TableMeta,
};
pub use storage::{CostModel, FileStorage, IoStats, MemStorage, Storage, TableSink};
pub use striped::StripedDb;
pub use timed_lock::{lock_probe, reset_lock_probe, LockPath, TimedRwLock, LOCK_PATHS};
pub use types::{BlockRef, Entry, FileId, Key, KeyEntry, Value};
pub use wal::{crc32, ReplayOutcome, WalWriter};
