//! Striped-engine tests: model equivalence of the cross-stripe merge
//! (racing background flushes), recovery of a striped layout, stripe
//! isolation under a slow flush, and scans running against concurrent
//! writers: each one instant of the store, batches seen whole, and no
//! put or scan held up by another stripe's slow flush or stall.

use adcache_lsm::history::History;
use adcache_lsm::{
    DirectProvider, Entry, FileStorage, IoStats, MemStorage, MetaFs, Options, Result as LsmResult,
    SimFs, Storage, StripedDb, TableSink,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        2 => (any::<u16>(), 1u8..32).prop_map(|(k, n)| Op::Scan(k % 512, n)),
        1 => Just(Op::Flush),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("key{k:05}"))
}

fn value(k: u16, v: u8) -> Bytes {
    Bytes::from(format!("value-{k}-{v}"))
}

fn striped_opts(stripes: usize) -> Options {
    let mut tiny = Options::small();
    // Tiny structures so seals, background flushes, and compactions all
    // fire constantly under the op streams below.
    tiny.memtable_size = 2048;
    tiny.sstable_size = 2048;
    tiny.stripes = stripes;
    tiny.background_maintenance = true;
    tiny
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The striped router must behave exactly like a `BTreeMap` for any
    /// op sequence. Background maintenance is ON, so flushes run on pool
    /// workers concurrently with the scans below — every cross-stripe scan
    /// merges against in-flight memtable seals.
    #[test]
    fn striped_db_matches_model_with_background_flushes(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        stripes in 2usize..=8,
    ) {
        let db = StripedDb::new(striped_opts(stripes), Arc::new(MemStorage::new())).unwrap();
        let provider = DirectProvider;
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(k), value(k, v)).unwrap();
                    model.insert(key(k), value(k, v));
                }
                Op::Delete(k) => {
                    db.delete(key(k)).unwrap();
                    model.remove(&key(k));
                }
                Op::Get(k) => {
                    let got = db.get(&key(k), &provider).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key(k)), "get {}", k);
                }
                Op::Scan(k, n) => {
                    let got = db.scan(&key(k), n as usize, &provider).unwrap();
                    let want: Vec<(Bytes, Bytes)> = model
                        .range(key(k)..)
                        .take(n as usize)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "scan {} {}", k, n);
                }
                Op::Flush => db.flush().unwrap(),
            }
        }

        for k in 0..512u16 {
            let got = db.get(&key(k), &provider).unwrap();
            prop_assert_eq!(got.as_ref(), model.get(&key(k)), "final get {}", k);
        }
        let got = db.scan(b"", 4096, &provider).unwrap();
        let want: Vec<(Bytes, Bytes)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(got, want, "final full scan");
    }

    /// Recovery of a striped layout: run with background maintenance on,
    /// crash (drop joins the pool, taking down in-flight flushes at
    /// arbitrary progress), reopen, and require exactly the model state —
    /// every write is in some stripe's SSTs, sealed WAL segments, or
    /// active WAL.
    #[test]
    fn striped_recovery_equals_model_at_any_crash_point(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        crash_at_frac in 0.0f64..1.0,
        stripes in 2usize..=8,
        case_id in any::<u64>(),
    ) {
        let base = std::env::temp_dir().join(format!(
            "adcache-striperecov-{}-{case_id}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let sst_dir = base.join("sst");
        let meta_dir = base.join("meta");
        let crash_at = ((ops.len() as f64) * crash_at_frac) as usize;
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
        let opts = striped_opts(stripes);

        {
            let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
            let db = StripedDb::with_durability(opts.clone(), storage, &meta_dir).unwrap();
            for op in ops.iter().take(crash_at) {
                match op {
                    Op::Put(k, v) => {
                        db.put(key(*k), value(*k, *v)).unwrap();
                        model.insert(key(*k), value(*k, *v));
                    }
                    Op::Delete(k) => {
                        db.delete(key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    Op::Flush => db.flush().unwrap(),
                    _ => {}
                }
            }
            // Crash: drop without flushing (joins the worker pool).
        }

        let storage = Arc::new(FileStorage::open(&sst_dir).unwrap());
        let mut verify = opts;
        verify.background_maintenance = false;
        let db = StripedDb::with_durability(verify, storage, &meta_dir).unwrap();
        let p = DirectProvider;
        for k in 0..512u16 {
            let got = db.get(&key(k), &p).unwrap();
            prop_assert_eq!(
                got.as_ref(),
                model.get(&key(k)),
                "key {} after crash at {} ({} stripes)",
                k, crash_at, stripes
            );
        }
        let scan = db.scan(b"", 4096, &p).unwrap();
        let want: Vec<(Bytes, Bytes)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(scan, want);

        std::fs::remove_dir_all(&base).unwrap();
    }
}

/// A storage decorator that makes SST builds for ONE stripe's file-id
/// residue class slow, modeling a stripe stuck behind a large flush.
struct SlowFlushStorage {
    inner: Arc<MemStorage>,
    stripes: u64,
    slow_residue: u64,
    delay: Duration,
    engaged: AtomicBool,
}

impl Storage for SlowFlushStorage {
    fn create_table(&self, id: u64) -> LsmResult<Box<dyn TableSink + '_>> {
        if self.engaged.load(Ordering::Relaxed) && id % self.stripes == self.slow_residue {
            std::thread::sleep(self.delay);
        }
        self.inner.create_table(id)
    }
    fn read_block(&self, id: u64, block_no: u32) -> LsmResult<Bytes> {
        self.inner.read_block(id, block_no)
    }
    fn read_meta(&self, id: u64) -> LsmResult<Bytes> {
        self.inner.read_meta(id)
    }
    fn delete_table(&self, id: u64) -> LsmResult<()> {
        self.inner.delete_table(id)
    }
    fn sync_table(&self, id: u64) -> LsmResult<()> {
        self.inner.sync_table(id)
    }
    fn sync_dir(&self) -> LsmResult<()> {
        self.inner.sync_dir()
    }
    fn list_tables(&self) -> Vec<u64> {
        self.inner.list_tables()
    }
    fn sync_cost_ns(&self) -> u64 {
        self.inner.sync_cost_ns()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
    fn table_count(&self) -> usize {
        self.inner.table_count()
    }
}

/// The backpressure contract: a writer stalls only on its OWN stripe.
/// Stripe A's flush is made pathologically slow; foreground puts on
/// stripe B must still complete with bounded latency while that flush is
/// in flight.
#[test]
fn foreground_put_is_bounded_while_another_stripes_flush_is_slow() {
    const STRIPES: usize = 2;
    const DELAY: Duration = Duration::from_millis(600);

    let mut opts = striped_opts(STRIPES);
    opts.memtable_size = 2048;
    let storage = Arc::new(SlowFlushStorage {
        inner: Arc::new(MemStorage::new()),
        stripes: STRIPES as u64,
        // Stripe 1's file ids are ≡ 1 (mod stripes) under stride
        // allocation, so only its SST builds sleep.
        slow_residue: 1,
        delay: DELAY,
        engaged: AtomicBool::new(false),
    });
    let db = StripedDb::new(opts, storage.clone()).unwrap();

    // Sort keys by owning stripe.
    let mut a_keys = Vec::new();
    let mut b_keys = Vec::new();
    for k in 0..4096u32 {
        let key = Bytes::from(format!("iso{k:05}"));
        match db.stripe_for(&key) {
            1 => a_keys.push(key),
            0 => b_keys.push(key),
            _ => unreachable!(),
        }
    }
    assert!(
        a_keys.len() > 200 && b_keys.len() > 200,
        "routing is lopsided"
    );

    storage.engaged.store(true, Ordering::Relaxed);
    // Blow through stripe A's memtable budget: the seal hands the flush to
    // a pool worker, which then sleeps inside write_table.
    let pad = "p".repeat(64);
    for k in a_keys.iter().take(64) {
        db.put(k.clone(), Bytes::from(format!("slow-{pad}")))
            .unwrap();
    }
    // Give the worker a moment to reach the slow SST build.
    std::thread::sleep(Duration::from_millis(20));

    // Foreground writes on stripe B while A's flush sleeps: each must be
    // orders of magnitude faster than the in-flight delay.
    let started = Instant::now();
    let mut worst = Duration::ZERO;
    for k in b_keys.iter().take(32) {
        let t0 = Instant::now();
        db.put(k.clone(), Bytes::from("fast")).unwrap();
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < DELAY / 3,
        "stripe-B put took {worst:?} while stripe A flushed (delay {DELAY:?})"
    );
    assert!(
        started.elapsed() < DELAY,
        "stripe-B writes did not overlap stripe A's flush"
    );

    // Everything still lands once the slow flush drains.
    storage.engaged.store(false, Ordering::Relaxed);
    db.flush().unwrap();
    let p = DirectProvider;
    for k in a_keys.iter().take(64) {
        assert!(db.get(k, &p).unwrap().is_some(), "stripe-A write lost");
    }
    for k in b_keys.iter().take(32) {
        assert_eq!(db.get(k, &p).unwrap().as_deref(), Some(b"fast".as_ref()));
    }
    assert!(
        db.stats_sum(|s| s.seals.get()) >= 1,
        "stripe A never sealed — the test exercised nothing"
    );
}

/// A [`MetaFs`] decorator that sleeps inside `remove`. WAL segment
/// deletion runs in `flush()`'s imm drain *after* the engine write lock is
/// released, so the sleep stretches the seal-vs-explicit-flush race window
/// from nanoseconds to milliseconds — wide enough for writers to seal a
/// fresh imm (and land more batches) before `flush()` reacquires the lock.
struct SlowRemoveFs {
    inner: SimFs,
    delay: Duration,
}

impl MetaFs for SlowRemoveFs {
    fn create_dir_all(&self, path: &std::path::Path) -> LsmResult<()> {
        self.inner.create_dir_all(path)
    }
    fn read(&self, path: &std::path::Path) -> LsmResult<Option<Vec<u8>>> {
        self.inner.read(path)
    }
    fn write_file(&self, path: &std::path::Path, data: &[u8]) -> LsmResult<()> {
        self.inner.write_file(path, data)
    }
    fn append(&self, path: &std::path::Path, data: &[u8]) -> LsmResult<()> {
        self.inner.append(path, data)
    }
    fn truncate(&self, path: &std::path::Path, len: u64) -> LsmResult<()> {
        self.inner.truncate(path, len)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> LsmResult<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &std::path::Path) -> LsmResult<()> {
        std::thread::sleep(self.delay);
        self.inner.remove(path)
    }
    fn exists(&self, path: &std::path::Path) -> bool {
        self.inner.exists(path)
    }
    fn len(&self, path: &std::path::Path) -> LsmResult<u64> {
        self.inner.len(path)
    }
    fn sync_file(&self, path: &std::path::Path) -> LsmResult<()> {
        self.inner.sync_file(path)
    }
    fn sync_dir(&self, dir: &std::path::Path) -> LsmResult<()> {
        self.inner.sync_dir(dir)
    }
    fn list_dir(&self, dir: &std::path::Path) -> LsmResult<Vec<std::path::PathBuf>> {
        self.inner.list_dir(dir)
    }
}

/// Regression: an explicit `flush()` must never flush the active memtable
/// ahead of a sealed-but-unflushed imm. A writer can seal a fresh imm in
/// the window between `flush()`'s imm drain and its write-lock
/// acquisition (sealing needs only the write lock); flushing mem then
/// would (a) delete the sealed WAL segment covering the pending imm
/// without flushing its records — lost acked writes on crash — and
/// (b) give the older imm records a higher file id, L0-newest rank, so
/// they shadow newer values even without a crash. This drives that
/// window: [`SlowRemoveFs`] holds `flush()` in its post-lock segment
/// deletion while writers seal over a hot key set; afterwards every key
/// must read back the last value its writer acked.
#[test]
fn explicit_flush_racing_seals_never_reorders_writes() {
    let mut opts = striped_opts(1);
    opts.memtable_size = 1024;
    let fs = Arc::new(SlowRemoveFs {
        inner: SimFs::new(),
        delay: Duration::from_millis(1),
    });
    let db = Arc::new(
        StripedDb::with_durability_fs(opts, Arc::new(MemStorage::new()), "/race", fs).unwrap(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let flusher = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.flush().unwrap();
            }
        })
    };

    // Several writers so the write lock stays contended: a seal landing in
    // flush()'s window is immediately followed by another writer's batch
    // in the fresh memtable — the state that must not be flushed ahead of
    // the pending imm.
    let mut history = History::default();
    let key = |t: u64, i: u64| Bytes::from(format!("rf{t}-{:03}", i % 32));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let (db, mut history) = (db.clone(), history.fork());
            std::thread::spawn(move || {
                let pad = "x".repeat(48);
                for i in 0..2500u64 {
                    let v = Bytes::from(format!("v{i}-{pad}"));
                    history.put(key(t, i), v, |k, v| db.put(k, v)).unwrap();
                }
                history
            })
        })
        .collect();

    for w in writers {
        history.join(w.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    flusher.join().unwrap();
    db.flush().unwrap();
    for (t, i) in (0..4).flat_map(|t| (0..32).map(move |i| (t, i))) {
        history
            .get(key(t, i), |k| db.get(k, &DirectProvider))
            .unwrap();
    }
    let violations = history.check();
    assert!(violations.is_empty(), "{violations:#?}");
}

/// A persistent maintenance failure (e.g. disk full) must not spin the
/// background worker: retries are re-kicked on an exponential backoff, so
/// the number of flush attempts over a window stays small. Without the
/// backoff the worker re-kicks in a tight loop — thousands of attempts
/// (and partial SSTs) per second.
#[test]
fn background_worker_backs_off_on_persistent_flush_errors() {
    use adcache_lsm::{FaultPlan, FaultStorage};

    let mut opts = striped_opts(1);
    opts.memtable_size = 512;
    let storage = Arc::new(FaultStorage::new(
        Arc::new(MemStorage::new()),
        7,
        FaultPlan {
            write_fail: 1.0,
            ..FaultPlan::none()
        },
    ));
    let db = StripedDb::new(opts, storage.clone()).unwrap();

    // Fill past the memtable budget so a seal hands the (always-failing)
    // flush to the pool.
    for i in 0..16u32 {
        db.put(
            Bytes::from(format!("bo{i:03}")),
            Bytes::from(vec![b'x'; 64]),
        )
        .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.stats_sum(|s| s.seals.get()) == 0 {
        assert!(Instant::now() < deadline, "no seal happened");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Let the worker retry for a while; with 1 ms-doubling backoff it gets
    // ~10 attempts in this window, without it thousands.
    std::thread::sleep(Duration::from_millis(300));
    let attempts = storage.fault_stats().write_fail.load(Ordering::Relaxed);
    assert!(attempts >= 1, "the failing flush was never attempted");
    assert!(
        attempts <= 30,
        "{attempts} flush attempts in 300 ms — worker is spinning, not backing off"
    );
    assert!(!db.is_poisoned(), "transient I/O errors must not poison");

    // Once the device recovers, the pending imm drains and reads succeed.
    storage.set_active(false);
    db.flush().unwrap();
    let p = DirectProvider;
    for i in 0..16u32 {
        assert!(
            db.get(format!("bo{i:03}").as_bytes(), &p)
                .unwrap()
                .is_some(),
            "write lost after device recovery"
        );
    }
}

/// Cross-stripe scans racing live writers, judged by the one history
/// oracle: every page sorted, every key carrying a value some writer
/// wrote, and no key older than a write acked before the scan began (so
/// the prefix committed before any scan is always visible, exactly).
#[test]
fn concurrent_scans_see_sorted_prefix_consistent_snapshots() {
    const STRIPES: usize = 4;
    let mut opts = striped_opts(STRIPES);
    opts.memtable_size = 1024;
    let db = Arc::new(StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap());

    // A stable prefix committed before any scanning begins.
    let mut history = History::default();
    for k in 0..64u32 {
        let v = Bytes::from(format!("s{k}"));
        let put = |k, v| db.put(k, v);
        history
            .put(Bytes::from(format!("stable{k:04}")), v, put)
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let (db, stop, mut history) = (db.clone(), stop.clone(), history.fork());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = Bytes::from(format!("hot{:04}", (w * 1000 + i) % 512));
                    let v = Bytes::from(format!("w{w}-{i}"));
                    history.put(k, v, |k, v| db.put(k, v)).unwrap();
                    i += 1;
                }
                history
            })
        })
        .collect();

    for _ in 0..200 {
        let scan = |k: &Bytes, n| db.scan(k, n, &DirectProvider);
        history.scan(Bytes::new(), 1024, scan).unwrap();
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        history.join(w.join().unwrap());
    }
    assert!(!db.is_poisoned());
    let violations = history.check();
    assert!(violations.is_empty(), "{violations:#?}");
}

const INSTANT_KEYS: u64 = 64;
const INSTANT_SCANS: usize = 2000;

fn instant_key(k: u64) -> Bytes {
    Bytes::from(format!("inst{k:02}"))
}

/// Runs [`INSTANT_SCANS`] full scans of the [`INSTANT_KEYS`] keys on four
/// stripes (pool on, tiny memtables) while one writer calls `write(v)` for
/// v = 64, 65, …; `write(v)` for v < 64 runs first, alone. Returns the
/// scans that `consistent` rejects, the first of them, and how many writes
/// the writer made.
fn scans_against_one_writer(
    write: impl Fn(&StripedDb, u64) + Send + 'static,
    consistent: impl Fn(&[(u64, u64)]) -> bool,
) -> (usize, Option<Vec<(u64, u64)>>, u64) {
    let db = Arc::new(StripedDb::new(striped_opts(4), Arc::new(MemStorage::new())).unwrap());
    for v in 0..INSTANT_KEYS {
        write(&db, v);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut v = INSTANT_KEYS;
            while !stop.load(Ordering::Relaxed) {
                write(&db, v);
                v += 1;
            }
            v - INSTANT_KEYS
        })
    };
    let p = DirectProvider;
    let (mut bad, mut first) = (0, None);
    for _ in 0..INSTANT_SCANS {
        let got: Vec<(u64, u64)> = db
            .scan(b"inst", INSTANT_KEYS as usize, &p)
            .unwrap()
            .iter()
            .map(|(k, v)| {
                let k = std::str::from_utf8(&k[4..]).unwrap().parse().unwrap();
                (k, std::str::from_utf8(v).unwrap().parse().unwrap())
            })
            .collect();
        assert_eq!(got.len(), INSTANT_KEYS as usize, "a key went missing");
        if !consistent(&got) {
            bad += 1;
            first.get_or_insert(got);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let last = writer.join().unwrap();
    assert!(!db.is_poisoned());
    (bad, first, last)
}

/// One writer puts version `v` to key `v % 64`. At any instant whose newest
/// version is `top`, key `k` holds the newest `v <= top` with
/// `v ≡ k (mod 64)`: `top − (top − k) % 64`. A scan that reads one stripe
/// before a put and another after it shows a key older or newer than that.
#[test]
fn a_scan_is_one_instant_of_the_store() {
    let (bad, first, writes) = scans_against_one_writer(
        |db, v| {
            let value = Bytes::from(v.to_string());
            db.put(instant_key(v % INSTANT_KEYS), value).unwrap();
        },
        |got| {
            let top = got.iter().map(|&(_, v)| v).max().unwrap();
            got.iter()
                .all(|&(k, v)| v == top - (top - k) % INSTANT_KEYS)
        },
    );
    assert!(
        writes > INSTANT_KEYS,
        "the writer barely ran ({writes} puts)"
    );
    assert_eq!(
        bad, 0,
        "{bad} of {INSTANT_SCANS} scans mixed two instants; first: {first:?}"
    );
}

/// A writer loops 64-key batches that span all four stripes, every key of
/// batch `v` at version `v`: every scan must show exactly one version.
#[test]
fn a_scan_sees_a_multi_stripe_batch_whole() {
    let (bad, first, writes) = scans_against_one_writer(
        |db, v| {
            let value = Bytes::from(v.to_string());
            let batch = (0..INSTANT_KEYS)
                .map(|k| (instant_key(k), Entry::Put(value.clone())))
                .collect();
            db.write_batch(batch).unwrap();
        },
        |got| got.iter().all(|&(_, v)| v == got[0].1),
    );
    assert!(writes > 1, "the writer barely ran ({writes} batches)");
    assert_eq!(
        bad, 0,
        "{bad} of {INSTANT_SCANS} scans saw part of a batch; first: {first:?}"
    );
}

/// A two-stripe store whose stripe-1 SST builds sleep for `delay` once
/// engaged, plus 64 keys owned by each stripe.
fn two_stripes_slow_on_one(
    background: bool,
    delay: Duration,
) -> (
    Arc<StripedDb>,
    Arc<SlowFlushStorage>,
    Vec<Bytes>,
    Vec<Bytes>,
) {
    let mut opts = striped_opts(2);
    opts.background_maintenance = background;
    let storage = Arc::new(SlowFlushStorage {
        inner: Arc::new(MemStorage::new()),
        stripes: 2,
        slow_residue: 1,
        delay,
        engaged: AtomicBool::new(false),
    });
    let db = Arc::new(StripedDb::new(opts, storage.clone()).unwrap());
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    for k in 0..512u32 {
        let key = Bytes::from(format!("iso{k:05}"));
        match db.stripe_for(&key) {
            0 => fast.push(key),
            _ => slow.push(key),
        }
    }
    fast.truncate(64);
    slow.truncate(64);
    assert_eq!((fast.len(), slow.len()), (64, 64), "routing is lopsided");
    (db, storage, fast, slow)
}

/// A scan waiting for a stripe does so holding no other stripe: while a
/// compaction holds stripe 1's write lock through a slow SST write and a
/// scan waits for that lock, puts on stripe 0 stay far below the delay.
#[test]
fn a_scan_waiting_on_a_busy_stripe_holds_no_other() {
    const DELAY: Duration = Duration::from_millis(600);
    let (db, storage, fast, slow) = two_stripes_slow_on_one(false, DELAY);
    // Three Level-0 tables on stripe 1; the fourth flush, below, makes
    // its Level 0 due for a compaction.
    let trigger = db.options().l0_compaction_trigger as u64;
    for round in 1..trigger {
        for k in &slow[..8] {
            db.put(k.clone(), Bytes::from(format!("before-{round}")))
                .unwrap();
        }
        db.stripe(1).flush().unwrap();
    }
    db.put(slow[0].clone(), Bytes::from("last")).unwrap();
    storage.engaged.store(true, Ordering::Relaxed);
    let flusher = {
        let db = db.clone();
        std::thread::spawn(move || db.stripe(1).flush().unwrap())
    };
    // The flush builds its table outside the lock; the compaction after
    // it writes under the lock.
    let flushes = || db.stripe(1).stats().flushes.get();
    let deadline = Instant::now() + Duration::from_secs(5);
    while flushes() < trigger {
        assert!(Instant::now() < deadline, "the slow flush never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(30));
    let scanner = {
        let db = db.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let len = db.scan(b"", 1024, &DirectProvider).unwrap().len();
            (len, t0.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    let mut worst = Duration::ZERO;
    for k in &fast[..16] {
        let t0 = Instant::now();
        db.put(k.clone(), Bytes::from("fast")).unwrap();
        worst = worst.max(t0.elapsed());
    }
    assert!(
        started.elapsed() < DELAY / 2,
        "stripe-0 puts did not overlap the waiting scan"
    );
    assert!(
        worst < DELAY / 4,
        "a stripe-0 put took {worst:?} behind a scan waiting on stripe 1 (delay {DELAY:?})"
    );
    flusher.join().unwrap();
    assert!(
        db.stripe(1).stats().compactions.get() > 0,
        "no compaction ran"
    );
    let (len, waited) = scanner.join().unwrap();
    assert!(len >= 8, "the scan lost stripe-1 keys");
    assert!(waited > DELAY / 4, "the scan never waited for stripe 1");
}

/// A multi-stripe batch never parks on backpressure while it holds the
/// batch gate: with stripe 1 stalled behind a slow background flush, a
/// batch over both stripes waits outside the gate and scans run on.
#[test]
fn a_stalled_multi_stripe_batch_does_not_hold_up_scans() {
    const DELAY: Duration = Duration::from_millis(600);
    let (db, storage, fast, slow) = two_stripes_slow_on_one(true, DELAY);
    storage.engaged.store(true, Ordering::Relaxed);
    // Stripe-1 puts seal a memtable whose flush sleeps, then fill the next
    // past twice its budget: the writer stalls until the flush lands. The
    // batch below writes `slow[0]`, which this writer leaves alone.
    let filler = {
        let (db, slow) = (db.clone(), slow.clone());
        std::thread::spawn(move || {
            let pad = "p".repeat(64);
            for i in 0.. {
                let k = slow[1 + i % (slow.len() - 1)].clone();
                db.put(k, Bytes::from(format!("{i}-{pad}"))).unwrap();
                if db.stripe(1).stats().write_stalls.get() > 0 {
                    break;
                }
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.stripe(1).stats().write_stalls.get() == 0 {
        assert!(Instant::now() < deadline, "stripe 1 never stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let batcher = {
        let db = db.clone();
        let batch = [&fast[0], &slow[0]]
            .map(|k| (k.clone(), Entry::Put(Bytes::from("batch"))))
            .into();
        std::thread::spawn(move || db.write_batch(batch).unwrap())
    };
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    let mut worst = Duration::ZERO;
    for _ in 0..16 {
        let t0 = Instant::now();
        db.scan(b"", 16, &DirectProvider).unwrap();
        worst = worst.max(t0.elapsed());
    }
    assert!(
        started.elapsed() < DELAY / 2,
        "the scans did not overlap the stalled batch"
    );
    assert!(
        worst < DELAY / 4,
        "a scan took {worst:?} behind a stalled multi-stripe batch (delay {DELAY:?})"
    );
    filler.join().unwrap();
    batcher.join().unwrap();
    let p = DirectProvider;
    for k in [&fast[0], &slow[0]] {
        assert_eq!(db.get(k, &p).unwrap().as_deref(), Some(b"batch".as_ref()));
    }
}

/// The served tree's flush and compaction points depend only on the
/// memtable's charge (`key + value + 16` per key), never on what the write
/// buffer really occupies: an inline-maintenance load of the benchmark's
/// 200 k keys (24-byte keys, 100-byte values, batches of 512) flushes,
/// compacts and amplifies exactly as the tree did when every memtable entry
/// was three heap allocations. The write amplification is a ratio of
/// block counts: with 4 KiB blocks it read 1.6642 where 512 B blocks gave
/// 1.6667, because each block's framing (frame header, restart array,
/// checksum) and each table's partial last block weigh differently in a
/// flush and in a compaction.
#[test]
fn a_served_load_flushes_and_compacts_where_it_always_did() {
    let db = StripedDb::new(Options::served(4, 4 << 20), Arc::new(MemStorage::new())).unwrap();
    let ids: Vec<u64> = (0..200_000).collect();
    for batch in ids.chunks(512) {
        let batch = batch
            .iter()
            .map(|i| {
                let value = Bytes::from(vec![b'v'; 100]);
                (Bytes::from(format!("user{i:020}")), Entry::Put(value))
            })
            .collect();
        db.write_batch(batch).unwrap();
    }
    let flushes = db.stats_sum(|s| s.flushes.get());
    let shape = (flushes, db.compactions(), db.memtable_len());
    assert_eq!(shape, (24, 4, 18_752), "(flushes, compactions, buffered)");
    assert_eq!(format!("{:.4}", db.write_amplification()), "1.6642");
}
