//! Durability tests: WAL + manifest recovery across simulated restarts.

use adcache_lsm::{
    CrashController, CrashPoint, DirectProvider, FileStorage, LsmError, LsmTree, Options, Storage,
};
use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key{i:06}"))
}

fn test_dirs(name: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("adcache-recov-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    (base.join("sst"), base.join("meta"))
}

fn cleanup(name: &str) {
    let base = std::env::temp_dir().join(format!("adcache-recov-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn restart_recovers_flushed_and_unflushed_data() {
    let (sst_dir, meta_dir) = test_dirs("basic");
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
        // Enough to force flushes + compactions, plus a memtable tail that
        // only the WAL protects.
        for i in 0..3000 {
            db.put(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        for i in (0..3000).step_by(5) {
            db.delete(key(i)).unwrap();
        }
        assert!(db.memtable_len() > 0, "test needs an unflushed tail");
        // Simulated crash: drop without flushing the memtable.
    }
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
    let p = DirectProvider;
    for i in 0..3000 {
        let got = db.get(&key(i), &p).unwrap();
        if i % 5 == 0 {
            assert!(got.is_none(), "deleted key {i} resurrected after restart");
        } else {
            assert_eq!(got.unwrap().as_ref(), format!("v{i}").as_bytes(), "key {i}");
        }
    }
    // Scans also see the recovered state.
    let scan = db.scan(&key(0), 10, &p).unwrap();
    assert_eq!(scan.len(), 10);
    for w in scan.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
    cleanup("basic");
}

#[test]
fn restart_continues_writing_without_id_collisions() {
    let (sst_dir, meta_dir) = test_dirs("ids");
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
        for i in 0..2000 {
            db.put(key(i), Bytes::from(format!("a{i}"))).unwrap();
        }
        db.flush().unwrap();
    }
    // Second life: more writes, which must allocate fresh file ids.
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
        for i in 1000..2500 {
            db.put(key(i), Bytes::from(format!("b{i}"))).unwrap();
        }
        db.flush().unwrap();
        while db.maybe_compact_once().unwrap() {}
    }
    // Third life: everything readable, newest wins.
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
    let p = DirectProvider;
    for i in (0..2500).step_by(83) {
        let got = db.get(&key(i), &p).unwrap().unwrap();
        let want = if i >= 1000 {
            format!("b{i}")
        } else {
            format!("a{i}")
        };
        assert_eq!(got.as_ref(), want.as_bytes(), "key {i}");
    }
    cleanup("ids");
}

#[test]
fn wal_truncates_on_flush_and_replays_only_the_tail() {
    let (sst_dir, meta_dir) = test_dirs("tail");
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
        for i in 0..500 {
            db.put(key(i), Bytes::from_static(b"flushed")).unwrap();
        }
        db.flush().unwrap();
        let wal_len = std::fs::metadata(meta_dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len, 0, "flush must truncate the WAL");
        db.put(key(9999), Bytes::from_static(b"tail")).unwrap();
        let wal_len = std::fs::metadata(meta_dir.join("wal.log")).unwrap().len();
        assert!(wal_len > 0);
    }
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
    assert_eq!(db.memtable_len(), 1, "only the tail write replays");
    let p = DirectProvider;
    assert_eq!(db.get(&key(9999), &p).unwrap().unwrap().as_ref(), b"tail");
    assert_eq!(db.get(&key(42), &p).unwrap().unwrap().as_ref(), b"flushed");
    cleanup("tail");
}

#[test]
fn mem_storage_with_durability_dir_still_replays_wal() {
    // Durability metadata is orthogonal to the block device: even a
    // volatile MemStorage engine can use the WAL to checkpoint the
    // memtable (useful in tests and simulations).
    let (_, meta_dir) = test_dirs("mem");
    let storage = Arc::new(adcache_lsm::MemStorage::new());
    {
        let db = LsmTree::with_durability(Options::small(), storage.clone(), &meta_dir).unwrap();
        db.put(key(1), Bytes::from_static(b"v1")).unwrap();
    }
    // Same storage Arc survives "restart" (the process keeps the device).
    let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
    let p = DirectProvider;
    assert_eq!(db.get(&key(1), &p).unwrap().unwrap().as_ref(), b"v1");
    cleanup("mem");
}

#[test]
fn crash_between_flush_and_commit_leaves_no_orphan_and_no_id_collision() {
    // Regression: a crash after the SST write but before the manifest
    // commit leaves an unreferenced table on disk holding a file id the
    // lost manifest never recorded. Without the recovery sweep, the
    // reopened engine re-allocates that id and every flush fails forever
    // with "file already exists".
    let (sst_dir, meta_dir) = test_dirs("orphan");
    let mut opts = Options::small();
    opts.memtable_size = 1 << 10;
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(opts.clone(), storage.clone(), &meta_dir).unwrap();
        let crash = CrashController::new();
        db.set_crash_controller(crash.clone());
        crash.arm(CrashPoint::FlushAfterSst, 1);
        let mut err = None;
        for i in 0..500 {
            if let Err(e) = db.put(key(i), Bytes::from(format!("v{i}"))) {
                err = Some(e);
                break;
            }
        }
        assert!(err.is_some(), "the armed crash point must fire");
        assert!(crash.fired());
        // The orphan exists: one more table on disk than any manifest
        // (there is none yet) references.
        assert!(
            !storage.list_tables().unwrap().is_empty(),
            "crash left the orphan SST"
        );
        // Simulated process death.
    }
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(opts, storage.clone(), &meta_dir).unwrap();
    // The sweep removed every unreferenced table...
    let live = db
        .level_summary()
        .iter()
        .map(|(_, files, _)| files)
        .sum::<usize>();
    assert_eq!(
        storage.list_tables().unwrap().len(),
        live,
        "orphans must be swept at open"
    );
    assert!(
        db.stats()
            .orphan_tables_swept
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the sweep must report what it deleted"
    );
    // ...and the WAL still covers the crashed writes.
    let p = DirectProvider;
    assert!(db.get(&key(0), &p).unwrap().is_some());
    // The engine keeps working: new flushes allocate ids past everything
    // that was ever on the device, so nothing collides.
    for i in 0..500 {
        db.put(key(i), Bytes::from(format!("w{i}"))).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.get(&key(7), &p).unwrap().unwrap().as_ref(), b"w7");
    cleanup("orphan");
}

#[test]
fn a_table_stream_cut_short_is_an_orphan_the_sweep_removes() {
    // A table streams to its file as it is built, so a build that dies
    // part way leaves blocks on disk and no trailer. No manifest names the
    // file; recovery must count it as an orphan and delete it.
    let (sst_dir, meta_dir) = test_dirs("partial");
    let partial = 1_000_000;
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage.clone(), &meta_dir).unwrap();
        for i in 0..300 {
            db.put(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        db.flush().unwrap();
        let mut sink = storage.create_table(partial).unwrap();
        sink.append(Bytes::from(vec![7u8; 4096])).unwrap();
        sink.append(Bytes::from(vec![8u8; 4096])).unwrap();
        drop(sink);
        let file = sst_dir.join(format!("{partial:012}.sst"));
        assert_eq!(std::fs::metadata(&file).unwrap().len(), 8192);
        assert!(matches!(
            storage.read_meta(partial),
            Err(LsmError::Corruption(_))
        ));
    }
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(Options::small(), storage.clone(), &meta_dir).unwrap();
    assert_eq!(
        db.stats()
            .orphan_tables_swept
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(!storage.list_tables().unwrap().contains(&partial));
    let live = db
        .level_summary()
        .iter()
        .map(|(_, files, _)| files)
        .sum::<usize>();
    assert_eq!(storage.list_tables().unwrap().len(), live);
    let p = DirectProvider;
    for i in 0..300 {
        assert_eq!(
            db.get(&key(i), &p).unwrap().unwrap().as_ref(),
            format!("v{i}").as_bytes()
        );
    }
    cleanup("partial");
}

#[test]
fn recovery_preserves_level_structure() {
    let (sst_dir, meta_dir) = test_dirs("levels");
    let (runs_before, levels_before);
    {
        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &meta_dir).unwrap();
        for i in 0..10_000 {
            db.put(key(i % 2500), Bytes::from(format!("v{i}"))).unwrap();
        }
        db.flush().unwrap();
        runs_before = db.num_runs();
        levels_before = db.num_levels();
        assert!(levels_before >= 2, "need a multi-level tree for this test");
    }
    let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
    let db = LsmTree::with_durability(Options::small(), storage.clone(), &meta_dir).unwrap();
    assert_eq!(db.num_runs(), runs_before);
    assert_eq!(db.num_levels(), levels_before);
    // No orphan tables: storage holds exactly the live files.
    let live = db
        .level_summary()
        .iter()
        .map(|(_, files, _)| files)
        .sum::<usize>();
    assert_eq!(storage.list_tables().unwrap().len(), live);
    cleanup("levels");
}
