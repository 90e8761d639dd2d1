//! Quickstart: an AdCache-managed LSM-tree key-value store in ~40 lines.
//!
//! Builds the engine with the full AdCache strategy (block cache + range
//! cache behind a dynamic boundary, admission control, RL controller),
//! writes and reads some data, and prints the cache statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use adcache_suite::core::{CachedDb, EngineConfig, Strategy};
use adcache_suite::lsm::{MemStorage, Options};
use bytes::Bytes;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An in-memory storage device that counts block I/O (use
    // `FileStorage::open(dir)` for a real on-disk store).
    let storage = Arc::new(MemStorage::new());
    let db = CachedDb::new(
        Options::small(),
        storage,
        EngineConfig::new(Strategy::AdCache, 4 << 20), // 4 MiB cache budget
    )?;

    // Write some data.
    for i in 0..10_000u32 {
        db.put(
            Bytes::from(format!("user{i:06}")),
            Bytes::from(format!("profile-{i}")),
        )?;
    }

    // Point lookup.
    let value = db.get(b"user000042")?.expect("key exists");
    println!("user000042 -> {}", String::from_utf8_lossy(&value));

    // Range scan: 10 entries starting at user001000.
    let page = db.scan(b"user001000", 10)?;
    println!("scan from user001000:");
    for (k, v) in &page {
        println!(
            "  {} = {}",
            String::from_utf8_lossy(k),
            String::from_utf8_lossy(v)
        );
    }

    // Delete and verify.
    db.delete(Bytes::from("user000042"))?;
    assert!(db.get(b"user000042")?.is_none());

    // Repeat the scan: this time it is served from the range cache with
    // zero device I/O.
    let before = db.db().query_block_reads();
    let again = db.scan(b"user001000", 10)?;
    assert_eq!(again, page);
    println!(
        "repeat scan cost {} SST reads (first pass had populated the cache)",
        db.db().query_block_reads() - before
    );

    println!(
        "totals: {} SST reads, {} compactions, tree has {} runs across {} levels",
        db.db().query_block_reads(),
        db.db().compactions(),
        db.db().num_runs(),
        db.db().num_levels(),
    );
    Ok(())
}
