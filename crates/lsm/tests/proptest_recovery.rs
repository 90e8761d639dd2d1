//! Property tests for crash recovery.
//!
//! 1. For any operation sequence and any crash point (process drop without
//!    flush), a durable engine recovers to exactly the model state — every
//!    write is either in an SSTable referenced by the manifest or in the
//!    WAL.
//! 2. Under an injected fault storm, a randomly armed internal crash
//!    point, a random sync policy, AND a power cut that drops
//!    completed-but-unsynced writes from the one simulated filesystem the
//!    WAL, manifest and SSTables all live on, recovery keeps
//!    exactly what the policy promised: `always` never loses an acked
//!    write; `on_flush` never loses an acked write covered by a completed
//!    flush; `never` may lose unsynced suffixes but still serves only
//!    values that were actually written. The one history oracle
//!    (`adcache_lsm::history`) judges the recovered gets and a full scan. A
//!    second recovery reproduces the first bit for bit in every case.

use adcache_lsm::history::History;
use adcache_lsm::{
    CrashController, CrashPoint, DirectProvider, FaultPlan, FaultStorage, FileStorage, LsmTree,
    Options, SimFs, SyncPolicy,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 300, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 300)),
        1 => Just(Op::Flush),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("key{k:05}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn recovery_equals_model_at_any_crash_point(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        crash_at_frac in 0.0f64..1.0,
        case_id in any::<u64>(),
    ) {
        let base = std::env::temp_dir().join(format!(
            "adcache-precov-{}-{case_id}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let sst_dir = base.join("sst");
        let meta_dir = base.join("meta");

        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
        let mut tiny = Options::small();
        tiny.memtable_size = 2048;
        tiny.sstable_size = 2048;

        // First life: run until the crash point, then drop.
        {
            let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
            let db = LsmTree::with_durability(tiny.clone(), storage, &meta_dir).unwrap();
            for op in ops.iter().take(crash_at) {
                match op {
                    Op::Put(k, v) => {
                        let value = Bytes::from(format!("v{k}-{v}"));
                        model.insert(key(*k), value.clone());
                        db.put(key(*k), value).unwrap();
                    }
                    Op::Delete(k) => {
                        model.remove(&key(*k));
                        db.delete(key(*k)).unwrap();
                    }
                    Op::Flush => db.flush().unwrap(),
                }
            }
            // Crash: drop without flushing.
        }

        // Second life: recover and verify against the model.
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(tiny, storage, &meta_dir).unwrap();
        let p = DirectProvider;
        for k in 0..300u16 {
            let got = db.get(&key(k), &p).unwrap();
            prop_assert_eq!(got.as_ref(), model.get(&key(k)), "key {} after crash at {}", k, crash_at);
        }
        let scan = db.scan(b"", 1024, &p).unwrap();
        let want: Vec<(Bytes, Bytes)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(scan, want);

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn faulted_recovery_never_loses_acked_writes(
        ops in proptest::collection::vec(op_strategy(), 20..200),
        point_idx in 0usize..CrashPoint::all().len(),
        policy_idx in 0usize..SyncPolicy::all().len(),
        nth in 1u64..4,
        seed in any::<u64>(),
    ) {
        const KEYS: u16 = 300;
        let sync = SyncPolicy::all()[policy_idx];
        let mut tiny = Options::small();
        tiny.memtable_size = 2048;
        tiny.sstable_size = 2048;
        tiny.sync = sync;
        let meta_dir = "/pfault/meta";

        // One simulated filesystem buffers every completed-but-unsynced
        // write: SSTs through `FileStorage`, WAL and manifest directly.
        let fs = Arc::new(SimFs::new());
        let tables = || Arc::new(FileStorage::with_fs("/pfault/sst", fs.clone()).unwrap());
        let storage = Arc::new(FaultStorage::new(tables(), seed, FaultPlan::none()));
        let crash = CrashController::new();
        let mut history = History::default();

        // First life: a fault storm plus one armed crash point.
        {
            let db = LsmTree::with_durability_fs(
                tiny.clone(), storage.clone(), meta_dir, fs.clone(),
            ).unwrap();
            db.set_crash_controller(crash.clone());
            crash.arm(CrashPoint::all()[point_idx], nth);
            storage.set_plan(FaultPlan::storm());
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Put(k, v) => {
                        let value = Bytes::from(format!("v{k}-{v}-{i}"));
                        let _ = history.put(key(*k), value, |k, v| db.put(k, v));
                    }
                    Op::Delete(k) => {
                        let _ = history.delete(key(*k), |k| db.delete(k));
                    }
                    Op::Flush => {
                        let _ = db.flush();
                    }
                }
                // Nothing buffered: every write so far was flushed, even
                // if the op failed afterwards, in a compaction.
                if db.memtable_len() == 0 {
                    history.raise_floor();
                }
                if crash.fired() {
                    break;
                }
            }
            // Crash: drop mid-storm...
        }

        // ...and cut the power: whatever the write-back cache still held
        // is dropped or torn.
        history.crash(sync);
        drop(storage);
        fs.crash(seed.rotate_left(17) | 1);

        // Recovery on a fresh, quiet device must succeed under EVERY
        // policy: weaker sync loses more data, never the ability to reopen.
        let db = LsmTree::with_durability_fs(tiny.clone(), tables(), meta_dir, fs.clone()).unwrap();
        let p = DirectProvider;
        let mut state = Vec::with_capacity(KEYS as usize);
        for k in 0..KEYS {
            state.push(history.get(key(k), |k| db.get(k, &p)).unwrap());
        }
        history.scan(Bytes::new(), KEYS as usize + 1, |k, n| db.scan(k, n, &p)).unwrap();
        let violations = history.check();
        prop_assert!(violations.is_empty(), "sync={}: {:#?}", sync.name(), violations);
        drop(db);

        // Second recovery must be idempotent: nothing applied twice,
        // nothing re-lost.
        let db = LsmTree::with_durability_fs(tiny, tables(), meta_dir, fs.clone()).unwrap();
        for k in 0..KEYS {
            prop_assert_eq!(
                db.get(&key(k), &p).unwrap(),
                state[k as usize].clone(),
                "key {} changed between reopens (sync={})",
                k, sync.name()
            );
        }
    }
}
