//! `CachedDb::served`, the store `adcache serve` and the shell run: its
//! tree, in memory and under a directory, and a durable store's reopen.

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_workload::render_key;
use bytes::Bytes;

fn engine() -> EngineConfig {
    EngineConfig::new(Strategy::AdCache, 8 << 20)
}

/// The tree `serve` and the shell run without `--dir` is the served
/// preset, not the unit-test one: a load flushes whole memtables and
/// neither storms compactions nor stalls.
#[test]
fn served_in_memory_store_runs_the_served_tree() {
    let db = CachedDb::served(engine(), 4, None).unwrap();
    let value = Bytes::from(vec![b'v'; 100]);
    let mut bytes = 0;
    for i in 0..50_000 {
        let key = render_key(i);
        bytes += (key.len() + value.len()) as u64;
        db.put(key, value.clone()).unwrap();
    }
    // Settle: flush every stripe's tail and run due compactions.
    db.db().flush().unwrap();
    let s = db.stats_report();
    assert_eq!(s.memtable_bytes * s.stripes, 4 << 20);
    let bound = 2 * bytes.div_ceil(s.memtable_bytes) + s.stripes;
    assert!(s.flushes <= bound, "{} flushes > {bound}", s.flushes);
    assert!(s.compactions <= s.flushes, "{} compactions", s.compactions);
    assert_eq!(s.write_stalls, 0);
    for i in 0..50_000 {
        assert_eq!(db.get(&render_key(i)).unwrap().as_ref(), Some(&value));
    }
}

/// Under `--dir` every stripe gets a 4 MiB memtable and its own WAL and
/// manifest, tables share `dir/sst`, and a store dropped with flushed and
/// unflushed writes reopens through the same constructor with all of them.
#[test]
fn served_durable_store_lays_out_its_directory_and_reopens() {
    let dir = std::env::temp_dir().join(format!("adcache-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let value = |i: u64| Bytes::from(format!("value-{i}"));
    {
        let db = CachedDb::served(engine(), 4, Some(&dir)).unwrap();
        let tree = db.db();
        assert_eq!(tree.num_stripes(), 4);
        for i in 0..4 {
            let opts = tree.stripe(i).options();
            assert_eq!(opts.memtable_size, 4 << 20);
            assert!(opts.background_maintenance);
        }
        for i in 0..2_000 {
            db.put(render_key(i), value(i)).unwrap();
        }
        tree.flush().unwrap();
        // Written after the flush: these live only in the WALs.
        for i in 2_000..3_000 {
            db.put(render_key(i), value(i)).unwrap();
        }
        let files = |sub: &str| -> Vec<String> {
            std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect()
        };
        assert!(files("sst").iter().any(|f| f.ends_with(".sst")));
        for i in 0..4 {
            let meta = files(&format!("meta/stripe-{i}"));
            assert!(meta.iter().any(|f| f == "MANIFEST"), "stripe {i}: {meta:?}");
        }
    }
    let db = CachedDb::served(engine(), 4, Some(&dir)).unwrap();
    for i in 0..3_000 {
        assert_eq!(db.get(&render_key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
