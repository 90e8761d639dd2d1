//! Per-key read coherence of the cached engine under concurrent traffic.
//!
//! Four threads share 64 keys on a 4-stripe tree with the maintenance pool
//! on and issue puts, deletes, gets, 8-key multi-gets and 16-entry scans.
//! Every put writes a value no other write writes, `thread:seq`, and the
//! threads write the same keys. Every operation goes into one
//! [`History`], whose per-key register check rejects a stale or future
//! read, and two writers of one key whose cache updates land in the
//! opposite order to their commits.

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::history::{History, Violation};
use adcache_lsm::{MemStorage, Options};
use bytes::Bytes;
use std::sync::Arc;

const THREADS: u32 = 4;
const KEYS: usize = 64;
const OPS_PER_THREAD: usize = 20_000;

fn key(k: usize) -> Bytes {
    Bytes::from(format!("coh{k:03}"))
}

/// One thread's traffic, recorded into its fork of the history.
fn client(db: &CachedDb, mut history: History, thread: u32) -> History {
    let mut state = (u64::from(thread) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut seq = 0u32;
    for _ in 0..OPS_PER_THREAD {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let k = (state >> 8) as usize % KEYS;
        match state % 100 {
            0..=29 => {
                seq += 1;
                let value = Bytes::from(format!("{thread}:{seq}"));
                history.put(key(k), value, |k, v| db.put(k, v)).unwrap();
            }
            30..=39 => history.delete(key(k), |k| db.delete(k)).unwrap(),
            40..=69 => {
                history.get(key(k), |k| db.get(k)).unwrap();
            }
            70..=84 => {
                // 7 is prime to 64: eight distinct keys.
                let keys: Vec<Bytes> = (0..8).map(|i| key((k + 7 * i) % KEYS)).collect();
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_ref()).collect();
                history.multi_get(&keys, |_| db.multi_get(&refs)).unwrap();
            }
            _ => {
                history.scan(key(k), 16, |k, n| db.scan(k, n)).unwrap();
            }
        }
    }
    history
}

fn run(strategy: Strategy) -> Vec<Violation> {
    let opts = Options {
        stripes: 4,
        background_maintenance: true,
        // Seals, flushes and compactions run throughout.
        memtable_size: 2048,
        sstable_size: 2048,
        ..Options::small()
    };
    let cfg = EngineConfig::new(strategy, 1 << 20);
    let db = Arc::new(CachedDb::new(opts, Arc::new(MemStorage::new()), cfg).unwrap());
    let mut history = History::default();
    // Every key starts with a value, written by a thread id no client has.
    for k in 0..KEYS {
        let value = Bytes::from(format!("{THREADS}:{k}"));
        history.put(key(k), value, |k, v| db.put(k, v)).unwrap();
    }
    let clients: Vec<_> = (0..THREADS)
        .map(|thread| {
            let (db, fork) = (db.clone(), history.fork());
            std::thread::spawn(move || client(&db, fork, thread))
        })
        .collect();
    for c in clients {
        history.join(c.join().expect("client panicked"));
    }
    history.check()
}

#[test]
fn every_read_is_coherent_with_the_writes_around_it() {
    for strategy in [Strategy::AdCache, Strategy::KvCache] {
        let violations = run(strategy);
        let first: Vec<&String> = violations.iter().take(5).map(|v| &v.what).collect();
        assert!(
            violations.is_empty(),
            "{strategy:?}: {} violations, first: {first:#?}",
            violations.len(),
        );
    }
}
