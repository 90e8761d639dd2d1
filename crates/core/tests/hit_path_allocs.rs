//! What the engine's read path costs the heap, counted with a thread-local
//! counting global allocator, so the harness's other test threads do not
//! leak in:
//! - a warm `CachedDb::get` that the result cache answers performs no heap
//!   allocation: no owned probe key, no policy bookkeeping node, no
//!   per-call partition list;
//! - a scan that a covered segment answers allocates the vector it returns
//!   and one buffer all its keys are slices of, however many it returns;
//! - a miss fill follows the copy rule: over `MemStorage`, whose blocks
//!   are the store, a cached value stays a view and is never copied; over
//!   `FileStorage`, whose blocks are private read buffers, it is copied
//!   into an exact-size allocation, so a resident entry pins no block.

use adcache_core::{CachedDb, EngineConfig, Strategy};
use adcache_lsm::{MemStorage, Options};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Allocations of exactly [`WATCHED`]'s size.
    static SIZED: Cell<u64> = const { Cell::new(0) };
}

/// A value of this length is one `16 + VALUE`-byte allocation when
/// copied; nothing else on the read path asks for that size.
const VALUE: usize = 512;
const WATCHED: usize = 16 + VALUE;

/// What a request of `size` bytes takes from glibc malloc on a 64-bit
/// host: an 8-byte chunk header, rounded up to 16, at least 32.
fn chunk_bytes(size: usize) -> i64 {
    ((size + 8).next_multiple_of(16)).max(32) as i64
}

fn note(allocations: u64, size: Option<usize>, bytes: i64) {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
    if size == Some(WATCHED) {
        let _ = SIZED.try_with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s that neither allocate nor panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, Some(layout.size()), chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, None, -chunk_bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, Some(layout.size()), chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(
            1,
            Some(new_size),
            chunk_bytes(new_size) - chunk_bytes(layout.size()),
        );
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn sized() -> u64 {
    SIZED.with(Cell::get)
}

fn key(i: u32) -> Bytes {
    Bytes::from(format!("user{i:020}"))
}

fn warm_hits_allocate_nothing(strategy: Strategy) {
    let cfg = EngineConfig::new(strategy, 8 << 20);
    let db = CachedDb::new(Options::small(), Arc::new(MemStorage::new()), cfg).unwrap();
    let keys: Vec<Bytes> = (0..2_000).map(key).collect();
    for k in &keys {
        db.put(k.clone(), Bytes::from(vec![7u8; 100])).unwrap();
    }
    db.db().flush().unwrap();
    // Three passes: the admission sketch has seen every key often enough
    // for the fill path to have admitted it.
    for _ in 0..3 {
        for k in &keys {
            assert!(db.get(k).unwrap().is_some());
        }
    }
    let misses_before = db.counters().cache_misses.load(Ordering::Relaxed);
    let before = allocations();
    for k in &keys {
        black_box(db.get(k).unwrap());
    }
    let allocated = allocations() - before;
    let missed = db.counters().cache_misses.load(Ordering::Relaxed) - misses_before;
    assert_eq!(missed, 0, "{strategy:?}: the pass was meant to be all hits");
    assert_eq!(
        allocated,
        0,
        "{strategy:?}: allocations in {} hits",
        keys.len()
    );
}

#[test]
fn warm_range_cache_hit_allocates_nothing() {
    warm_hits_allocate_nothing(Strategy::AdCache);
}

#[test]
fn warm_kv_cache_hit_allocates_nothing() {
    warm_hits_allocate_nothing(Strategy::KvCache);
}

/// Keys of a covered segment lie in their slots; a scan hit copies them
/// into one buffer that every returned key is a slice of. So it allocates
/// twice whatever its length: that buffer and the vector it returns.
#[test]
fn a_covered_scan_hit_allocates_one_key_buffer() {
    let cfg = EngineConfig::new(Strategy::RangeCache, 8 << 20);
    let db = CachedDb::new(Options::small(), Arc::new(MemStorage::new()), cfg).unwrap();
    for i in 0..2_000 {
        db.put(key(i), Bytes::from(vec![7u8; 100])).unwrap();
    }
    db.db().flush().unwrap();
    let rc = db.range_cache().unwrap();
    for n in [1, 16, 64, 500] {
        // The first scan reads the tree and covers the range; the second is
        // the first hit, which sizes the scratch its thread keeps.
        let from = key(n * 3);
        for _ in 0..2 {
            assert_eq!(db.scan(&from, n as usize).unwrap().len(), n as usize);
        }
        let hits = rc.stats().hits;
        let before = allocations();
        let result = black_box(db.scan(&from, n as usize).unwrap());
        let allocated = allocations() - before;
        assert_eq!(rc.stats().hits, hits + 1, "the scan was meant to hit");
        assert_eq!(result[n as usize - 1].0, key(n * 4 - 1));
        assert_eq!(allocated, 2, "allocations in a scan hit of {n}");
    }
}

/// Loads `n` keys of `VALUE`-byte values into `db` and flushes them, so
/// every read goes to a table block.
fn load_and_flush(db: &CachedDb, n: u32) {
    for i in 0..n {
        db.load(key(i), Bytes::from(vec![i as u8; VALUE])).unwrap();
    }
    db.db().flush().unwrap();
}

/// Over `MemStorage` a table block is the store's own bytes, so a cached
/// value stays a view of it: the fills of point reads, scans and KV
/// entries ask for no allocation the size of a copied value.
#[test]
fn a_miss_fill_over_memory_copies_no_value() {
    for strategy in [Strategy::RangeCache, Strategy::KvCache] {
        let cfg = EngineConfig::new(strategy, 64 << 20);
        let db = CachedDb::served(cfg, 1, None).unwrap();
        load_and_flush(&db, 4_000);
        let before = sized();
        for i in (0..4_000).step_by(2) {
            assert!(db.get(&key(i)).unwrap().is_some());
        }
        assert_eq!(db.scan(&key(1), 64).unwrap().len(), 64);
        assert_eq!(sized() - before, 0, "{strategy:?}: a value was copied");
        let filled = db.range_cache().map_or(1, |rc| rc.len());
        assert!(filled > 0, "{strategy:?}: nothing was admitted");
    }
}

/// Over `FileStorage` every block is a private 4 KiB read buffer, and a
/// cached value that were a view of it would pin all of it. With no block
/// cache to share a read (range cache only), each view pinned a read of its
/// own: 4 358 real bytes per resident entry here before the copy rule, and
/// about 1 006 on the served `write-durable` shape, whose block cache lets
/// the values of one block share a read; 24 + 512 + 48 = 584 are charged.
/// Copied, the entry holds its key (48 B from malloc), its value (544 B)
/// and its share of slab, hash index and LRU: 662 here.
#[test]
fn a_resident_entry_over_files_pins_no_block() {
    const KEYS: u32 = 20_000;
    let dir = std::env::temp_dir().join(format!("adcache-fill-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig::new(Strategy::RangeCache, 256 << 20);
    let db = CachedDb::served(cfg, 1, Some(&dir)).unwrap();
    load_and_flush(&db, KEYS);
    // Every other key, in a scrambled order: about half the entries of
    // each block, as a workload's reads leave them.
    let reads: Vec<u32> = (0..KEYS / 2)
        .map(|i| (i as u64 * 2_654_435_761 % (KEYS / 2) as u64) as u32 * 2)
        .collect();
    // Open every table's handle first, through keys the reads below skip,
    // so that those hold only what the fills keep.
    for i in (1..KEYS).step_by(100) {
        db.get(&key(i)).unwrap();
    }
    let (before, copies) = (live_bytes(), sized());
    for &i in &reads {
        assert_eq!(db.get(&key(i)).unwrap().map(|v| v.len()), Some(VALUE));
    }
    let rc = db.range_cache().unwrap();
    let resident = rc.len() as f64;
    assert!(resident >= reads.len() as f64, "a read was not admitted");
    let per_entry = (live_bytes() - before) as f64 / reads.len() as f64;
    println!("{per_entry:.1} real bytes per resident entry over files");
    assert!(
        per_entry <= 1.2 * 584.0,
        "{per_entry:.1} real bytes per resident entry"
    );
    assert!(
        sized() - copies >= reads.len() as u64,
        "{} value copies in {} fills",
        sized() - copies,
        reads.len()
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
