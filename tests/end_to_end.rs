//! End-to-end integration tests spanning every crate: file-backed storage,
//! the full tuning loop, multi-client execution, and trace replay.

use adcache_suite::core::{
    run_multiclient, run_static, CachedDb, ControllerConfig, EngineConfig, RunConfig, Strategy,
};
use adcache_suite::lsm::{FileStorage, Options, Storage};
use adcache_suite::workload::{render_key, Mix, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use std::sync::Arc;

fn small_workload(keys: u64) -> WorkloadConfig {
    WorkloadConfig {
        num_keys: keys,
        value_size: 64,
        ..Default::default()
    }
}

fn quick_config(strategy: Strategy) -> RunConfig {
    RunConfig {
        controller: ControllerConfig {
            window: 250,
            hidden: 16,
            ..Default::default()
        },
        ..RunConfig::new(strategy, 256 << 10, small_workload(5_000))
    }
}

/// The whole stack runs against real files on disk, not just MemStorage.
#[test]
fn adcache_over_file_storage() {
    let dir = std::env::temp_dir().join(format!("adcache-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = Arc::new(FileStorage::open(&dir).unwrap());
    let db = CachedDb::new(
        Options::small(),
        storage.clone(),
        EngineConfig::new(Strategy::AdCache, 256 << 10),
    )
    .unwrap();
    for i in 0..5_000u64 {
        db.put(render_key(i), Bytes::from(format!("value-{i}")))
            .unwrap();
    }
    db.db().flush().unwrap();
    while db.db().maybe_compact_once().unwrap() {}
    assert!(
        !storage.list_tables().unwrap().is_empty(),
        "tables must exist on disk"
    );

    for i in (0..5_000).step_by(97) {
        let got = db.get(&render_key(i)).unwrap().unwrap();
        assert_eq!(got.as_ref(), format!("value-{i}").as_bytes());
    }
    let scan = db.scan(&render_key(1000), 32).unwrap();
    assert_eq!(scan.len(), 32);
    assert_eq!(scan[0].0, render_key(1000));
    // Repeat scan comes from cache: zero extra device reads.
    let reads = db.db().query_block_reads();
    let again = db.scan(&render_key(1000), 32).unwrap();
    assert_eq!(again, scan);
    assert_eq!(db.db().query_block_reads(), reads);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cache warming must show up as rising hit rate and falling SST reads.
#[test]
fn hit_rate_improves_as_cache_warms() {
    for strategy in [
        Strategy::RocksDbBlock,
        Strategy::RangeCache,
        Strategy::AdCache,
    ] {
        let cfg = quick_config(strategy);
        let r = run_static(&cfg, Mix::new(80.0, 20.0, 0.0, 0.0), 8_000).unwrap();
        let first = r.mean_hit_rate(0, 4);
        let last = r.mean_hit_rate(r.windows.len() - 4, r.windows.len());
        assert!(
            last > first,
            "{strategy:?}: warmed hit rate {last:.3} should beat cold {first:.3}"
        );
    }
}

/// The AdCache controller must outperform a deliberately bad pinned
/// configuration on the same workload.
#[test]
fn controller_beats_pathological_pin() {
    // Pure point lookups at a small cache fraction (~6% of the dataset):
    // a block-only split wastes memory on cold co-resident keys.
    let mix = Mix::new(100.0, 0.0, 0.0, 0.0);
    let mut bad = quick_config(Strategy::AdCache);
    bad.total_cache_bytes = 32 << 10;
    bad.pinned_decision = Some(adcache_suite::core::CacheDecision {
        range_ratio: 0.0,
        point_threshold: 0.009,
        scan_a: 64,
        scan_b: 1.0,
    });
    let bad_r = run_static(&bad, mix, 10_000).unwrap();

    let mut good = quick_config(Strategy::AdCache);
    good.total_cache_bytes = 32 << 10;
    good.pinned_decision = Some(adcache_suite::core::CacheDecision {
        range_ratio: 1.0,
        point_threshold: 0.0,
        scan_a: 16,
        scan_b: 0.25,
    });
    let good_r = run_static(&good, mix, 10_000).unwrap();
    assert!(
        good_r.overall_hit_rate > bad_r.overall_hit_rate,
        "sanity: the good pin must beat the bad pin ({:.3} vs {:.3})",
        good_r.overall_hit_rate,
        bad_r.overall_hit_rate
    );
}

/// Multi-client execution completes, produces positive throughput, and the
/// shared engine stays consistent under concurrent mixed operations.
#[test]
fn multiclient_consistency() {
    let mut cfg = quick_config(Strategy::AdCache);
    cfg.shards = 4;
    let qps = run_multiclient(&cfg, Mix::new(50.0, 20.0, 5.0, 25.0), 4, 2_000).unwrap();
    assert_eq!(qps.len(), 4);
    assert!(qps.iter().all(|&q| q > 0.0));
}

/// Recording a trace and replaying it against two engines produces
/// identical outputs (the mechanism every experiment relies on for
/// cross-strategy comparability).
#[test]
fn trace_replay_is_deterministic() {
    let mut gen = WorkloadGen::new(small_workload(2_000));
    let mix = Mix::new(40.0, 30.0, 10.0, 20.0);
    let trace: Vec<Operation> = (0..2_000).map(|_| gen.next_op(&mix)).collect();

    let run = |strategy: Strategy| -> Vec<Option<Bytes>> {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(adcache_suite::lsm::MemStorage::new()),
            EngineConfig::new(strategy, 64 << 10),
        )
        .unwrap();
        let mut outputs = Vec::new();
        for op in &trace {
            match op {
                Operation::Get { key } => outputs.push(db.get(key).unwrap()),
                Operation::Scan { from, len } => {
                    let r = db.scan(from, *len).unwrap();
                    outputs.push(r.last().map(|(_, v)| v.clone()));
                }
                Operation::Put { key, value } => db.put(key.clone(), value.clone()).unwrap(),
                Operation::Delete { key } => db.delete(key.clone()).unwrap(),
            }
        }
        outputs
    };
    let a = run(Strategy::RocksDbBlock);
    let b = run(Strategy::AdCache);
    assert_eq!(a, b, "replay outputs must be strategy-independent");
}

/// Storage faults surface as errors through the full stack and the engine
/// keeps serving once the device quiets down.
#[test]
fn injected_faults_do_not_poison_the_engine() {
    use adcache_suite::lsm::{FaultPlan, FaultStorage, MemStorage};
    let storage = Arc::new(FaultStorage::new(
        Arc::new(MemStorage::new()),
        0xe2e,
        FaultPlan::none(),
    ));
    let mut opts = Options::small();
    opts.read_retries = 0;
    let db = CachedDb::new(
        opts,
        storage.clone(),
        EngineConfig::new(Strategy::AdCache, 32 << 10),
    )
    .unwrap();
    for i in 0..3_000u64 {
        db.put(render_key(i), Bytes::from(format!("v{i}"))).unwrap();
    }
    db.db().flush().unwrap();
    storage.set_plan(FaultPlan {
        read_transient: 0.2,
        ..FaultPlan::none()
    });
    let mut errors = 0;
    for i in 0..3_000u64 {
        if db.get(&render_key(i)).is_err() {
            errors += 1;
        }
    }
    assert!(errors > 0, "the fault plan should produce read errors");
    // Fully functional once the device recovers.
    storage.set_active(false);
    for i in (0..3_000).step_by(131) {
        assert!(db.get(&render_key(i)).unwrap().is_some());
    }
}
