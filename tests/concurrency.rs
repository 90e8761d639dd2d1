//! Multi-threaded stress: concurrent clients on one engine (paper Section
//! 4.4's sharded design). Each thread writes its own key slice and reads
//! it back, while cross-partition scans read everyone's. Every operation
//! goes into one `lsm::history`, whose per-key register check judges
//! read-your-writes, deletes then absent, and each scan key by key.

use adcache_suite::core::{CachedDb, EngineConfig, Strategy};
use adcache_suite::lsm::history::History;
use adcache_suite::lsm::{MemStorage, Options};
use adcache_suite::workload::render_key;
use bytes::Bytes;
use std::sync::Arc;

/// Loads keys `0..n` as `{prefix}{i}`, recorded as certain initial writes.
fn preload(db: &CachedDb, history: &mut History, n: u64, prefix: &str) {
    for i in 0..n {
        let value = Bytes::from(format!("{prefix}{i}"));
        history
            .put(render_key(i), value, |k, v| db.load(k, v))
            .unwrap();
    }
    db.db().flush().unwrap();
}

fn assert_coherent(history: &History) {
    let violations = history.check();
    assert!(
        violations.is_empty(),
        "{} violations, first: {}",
        violations.len(),
        violations[0].what
    );
}

fn run_stress(strategy: Strategy, threads: usize, rounds: usize) {
    let mut ecfg = EngineConfig::new(strategy, 1 << 20);
    ecfg.block_shards = 4;
    // Shard the range cache across the key space.
    let keys_total = 8_000u64;
    ecfg.range_boundaries = (1..4).map(|i| render_key(i * keys_total / 4)).collect();
    let db = Arc::new(CachedDb::new(Options::small(), Arc::new(MemStorage::new()), ecfg).unwrap());
    let mut history = History::default();
    preload(&db, &mut history, keys_total, "init-");

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (db, mut history) = (db.clone(), history.fork());
            std::thread::spawn(move || {
                let mut state = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for round in 0..rounds {
                    // Write own keys (partition: i % threads == t), then
                    // read the write back.
                    let base = (rand() % (keys_total / threads as u64)) * threads as u64 + t as u64;
                    let key = render_key(base);
                    let value = Bytes::from(format!("t{t}-r{round}"));
                    history
                        .put(key.clone(), value, |k, v| db.put(k, v))
                        .unwrap();
                    history.get(key.clone(), |k| db.get(k)).unwrap();
                    // Cross-partition scan.
                    let from = render_key(rand() % keys_total);
                    history.scan(from, 16, |k, n| db.scan(k, n)).unwrap();
                    // Occasional delete, read back.
                    if round % 7 == 0 {
                        history.delete(key.clone(), |k| db.delete(k)).unwrap();
                        history.get(key, |k| db.get(k)).unwrap();
                    }
                }
                history
            })
        })
        .collect();
    for h in handles {
        history.join(h.join().expect("stress thread panicked"));
    }
    assert_coherent(&history);
}

#[test]
fn adcache_survives_concurrent_clients() {
    run_stress(Strategy::AdCache, 8, 400);
}

#[test]
fn block_cache_survives_concurrent_clients() {
    run_stress(Strategy::RocksDbBlock, 8, 400);
}

#[test]
fn range_cache_survives_concurrent_clients() {
    run_stress(Strategy::RangeCache, 8, 400);
}

#[test]
fn concurrent_retuning_while_serving() {
    // One thread continuously retunes the boundary while others serve.
    let db = Arc::new(
        CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(Strategy::AdCache, 1 << 20),
        )
        .unwrap(),
    );
    let mut history = History::default();
    preload(&db, &mut history, 4_000, "v");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tuner = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                flip = !flip;
                db.apply_decision(&adcache_suite::core::CacheDecision {
                    range_ratio: if flip { 0.9 } else { 0.1 },
                    point_threshold: 0.001,
                    scan_a: 16,
                    scan_b: 0.25,
                });
                std::thread::yield_now();
            }
        })
    };
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let (db, mut history) = (db.clone(), history.fork());
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let key = render_key((i * 31 + t * 7) % 4_000);
                    history.get(key.clone(), |k| db.get(k)).unwrap();
                    if i % 5 == 0 {
                        history.scan(key, 8, |k, n| db.scan(k, n)).unwrap();
                    }
                }
                history
            })
        })
        .collect();
    for c in clients {
        history.join(c.join().expect("client panicked"));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    tuner.join().unwrap();
    assert_coherent(&history);
}
