//! Durability: survive a crash with the write-ahead log and manifest.
//!
//! Opens an AdCache store backed by real files, writes data (some of it
//! never flushed out of the memtable), "crashes" by dropping the engine,
//! then reopens: the manifest restores the LSM level structure and the WAL
//! replays the unflushed tail.
//!
//! Run with: `cargo run --release --example durability`

use adcache_suite::core::{CachedDb, EngineConfig, Strategy};
use adcache_suite::lsm::{FileStorage, Options};
use bytes::Bytes;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("adcache-durability-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let sst_dir = base.join("sst");
    let meta_dir = base.join("meta");

    // First life: write 5k keys, leave a tail unflushed, "crash".
    {
        let storage = Arc::new(FileStorage::open(&sst_dir)?);
        let db = CachedDb::with_durability(
            Options::small(),
            storage,
            &meta_dir,
            EngineConfig::new(Strategy::AdCache, 1 << 20),
        )?;
        for i in 0..5_000u32 {
            db.put(
                Bytes::from(format!("user{i:06}")),
                Bytes::from(format!("v{i}")),
            )?;
        }
        db.delete(Bytes::from("user000100"))?;
        println!(
            "first life: {} entries still only in the memtable (WAL-protected), {} flushes so far",
            db.db().memtable_len(),
            db.db().stats().flushes.get(),
        );
        // Dropped here without flushing = simulated crash.
    }

    // Second life: everything is back.
    let storage = Arc::new(FileStorage::open(&sst_dir)?);
    let db = CachedDb::with_durability(
        Options::small(),
        storage,
        &meta_dir,
        EngineConfig::new(Strategy::AdCache, 1 << 20),
    )?;
    println!(
        "recovered: {} WAL entries replayed into the memtable, tree has {} runs / {} levels",
        db.db().memtable_len(),
        db.db().num_runs(),
        db.db().num_levels(),
    );
    assert_eq!(db.get(b"user004999")?.unwrap().as_ref(), b"v4999");
    assert!(db.get(b"user000100")?.is_none(), "the delete survived too");
    let page = db.scan(b"user000098", 4)?;
    for (k, v) in &page {
        println!(
            "  {} = {}",
            String::from_utf8_lossy(k),
            String::from_utf8_lossy(v)
        );
    }

    std::fs::remove_dir_all(&base)?;
    println!("ok: all data survived the crash");
    Ok(())
}
