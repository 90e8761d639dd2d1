//! Multi-threaded engine smoke/stress tests.
//!
//! The serving layer hammers one shared [`CachedDb`] from many OS threads,
//! so engine concurrency must hold up outside the single-threaded harness:
//! results stay correct under interleaved get/put/scan traffic, and the
//! shared [`Counters`] never lose an increment (totals equal the sum of
//! what each thread actually issued).

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::history::History;
use adcache_lsm::{MemStorage, Options};
use adcache_workload::{render_key, Mix, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 2_500;

/// Per-thread tallies of what was actually issued.
#[derive(Default)]
struct Issued {
    points: u64,
    scans: u64,
    scan_len_sum: u64,
    writes: u64,
    hits_or_misses_ok: u64,
}

/// The shared engine, and its seed values recorded as certain writes.
fn build_shared(strategy: Strategy) -> (Arc<CachedDb>, History) {
    let db = CachedDb::new(
        Options::small(),
        Arc::new(MemStorage::new()),
        EngineConfig::new(strategy, 1 << 20),
    )
    .unwrap();
    let mut history = History::default();
    for i in 0..4_000u64 {
        let value = Bytes::from(format!("seed-{i:05}"));
        history
            .put(render_key(i), value, |k, v| db.load(k, v))
            .unwrap();
    }
    db.db().flush().unwrap();
    while db.db().maybe_compact_once().unwrap() {}
    (Arc::new(db), history)
}

/// 8 threads of mixed traffic against one engine: every operation must
/// succeed, and the engine's shared counters must equal the per-thread
/// sums exactly — a lost or double-counted increment here would silently
/// corrupt every window summary the controller trains on.
#[test]
fn eight_threads_of_mixed_traffic_keep_counters_consistent() {
    for strategy in [Strategy::AdCache, Strategy::RocksDbBlock] {
        let (db, _) = build_shared(strategy);
        let mix = Mix::new(40.0, 25.0, 5.0, 30.0);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut gen = WorkloadGen::new(WorkloadConfig {
                        num_keys: 4_000,
                        value_size: 64,
                        seed: 0xC0FFEE + t as u64,
                        ..Default::default()
                    });
                    let mut issued = Issued::default();
                    for _ in 0..OPS_PER_THREAD {
                        match gen.next_op(&mix) {
                            adcache_workload::Operation::Get { key } => {
                                db.get(&key).unwrap();
                                issued.points += 1;
                            }
                            adcache_workload::Operation::Scan { from, len } => {
                                let page = db.scan(&from, len).unwrap();
                                assert!(page.len() <= len);
                                // Returned keys are sorted and start at or
                                // after the requested origin.
                                for w in page.windows(2) {
                                    assert!(w[0].0 < w[1].0, "scan out of order");
                                }
                                if let Some((k, _)) = page.first() {
                                    assert!(*k >= from);
                                }
                                issued.scans += 1;
                                issued.scan_len_sum += len as u64;
                            }
                            adcache_workload::Operation::Put { key, value } => {
                                db.put(key, value).unwrap();
                                issued.writes += 1;
                            }
                            adcache_workload::Operation::Delete { key } => {
                                db.delete(key).unwrap();
                                issued.writes += 1;
                            }
                        }
                        issued.hits_or_misses_ok += 1;
                    }
                    issued
                })
            })
            .collect();

        let mut total = Issued::default();
        for h in handles {
            let issued = h.join().expect("worker thread panicked");
            total.points += issued.points;
            total.scans += issued.scans;
            total.scan_len_sum += issued.scan_len_sum;
            total.writes += issued.writes;
            total.hits_or_misses_ok += issued.hits_or_misses_ok;
        }
        assert_eq!(total.hits_or_misses_ok, THREADS as u64 * OPS_PER_THREAD);

        let c = db.counters();
        assert_eq!(
            c.points.load(Ordering::Relaxed),
            total.points,
            "{strategy:?}: point counter diverged from per-thread sums"
        );
        assert_eq!(
            c.scans.load(Ordering::Relaxed),
            total.scans,
            "{strategy:?}: scan counter diverged"
        );
        assert_eq!(
            c.scan_len_sum.load(Ordering::Relaxed),
            total.scan_len_sum,
            "{strategy:?}: scan length sum diverged"
        );
        assert_eq!(
            c.writes.load(Ordering::Relaxed),
            total.writes,
            "{strategy:?}: write counter diverged"
        );
        assert_eq!(c.total_ops(), THREADS as u64 * OPS_PER_THREAD);

        // Every query either hit a result cache or consulted the engine —
        // the disjoint outcome counters must partition the reads.
        let reads = total.points + total.scans;
        let outcomes = c.range_hits.load(Ordering::Relaxed)
            + c.kv_hits.load(Ordering::Relaxed)
            + c.cache_misses.load(Ordering::Relaxed);
        assert_eq!(
            outcomes, reads,
            "{strategy:?}: hit/miss outcomes must partition the reads"
        );

        // The report rolls up the same counters.
        let report = db.stats_report();
        assert_eq!(report.points, total.points);
        assert_eq!(report.scans, total.scans);
        assert_eq!(report.writes, total.writes);
        assert_eq!(report.strategy, strategy.name());
    }
}

/// Writers and readers race on the same keys; every get and scan must be
/// coherent with the writes around it: no torn value, no phantom deletion,
/// no value older than one already overwritten.
#[test]
fn racing_overwrites_never_yield_torn_values() {
    let (db, mut history) = build_shared(Strategy::AdCache);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (db, mut history) = (db.clone(), history.fork());
            std::thread::spawn(move || {
                // All threads fight over the same 64 keys.
                for i in 0..1_500u64 {
                    let k = render_key(i % 64);
                    if t % 2 == 0 {
                        let value = Bytes::from(format!("w{t}-{i:05}"));
                        history.put(k, value, |k, v| db.put(k, v)).unwrap();
                    } else {
                        history.get(k, |k| db.get(k)).unwrap();
                        let page = history.scan(render_key(0), 16, |k, n| db.scan(k, n));
                        page.unwrap();
                    }
                }
                history
            })
        })
        .collect();
    for h in handles {
        history.join(h.join().expect("worker thread panicked"));
    }
    let violations = history.check();
    assert!(
        violations.is_empty(),
        "{} violations, first: {}",
        violations.len(),
        violations[0].what
    );
}
