//! A warm `CachedDb::get` that the result cache answers performs no heap
//! allocation: no owned probe key, no policy bookkeeping node, no
//! per-call partition list. Counted with a thread-local counting global
//! allocator, so the harness's other test threads do not leak in.

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
}

struct Counting;

fn count() {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn warm_hits_allocate_nothing(strategy: Strategy) {
    let cfg = EngineConfig::new(strategy, 8 << 20);
    let db = CachedDb::new(Options::small(), Arc::new(MemStorage::new()), cfg).unwrap();
    let keys: Vec<Bytes> = (0..2_000)
        .map(|i| Bytes::from(format!("user{i:020}")))
        .collect();
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
