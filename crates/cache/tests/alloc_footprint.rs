//! What a range-cache entry costs the heap, measured with a counting
//! global allocator: a warm point hit allocates nothing, and a resident
//! entry occupies a bounded number of real bytes — in a cache that was
//! only filled, and in one where every fill evicts. The second is the
//! first real-versus-charged invariant that holds under eviction (the
//! coverage map used to grow to its cap however few entries were
//! resident); it is what a later re-basing of the charge to within 1.1× of
//! real bytes has to stand on.
//!
//! Counters are thread-local: the test harness runs tests on parallel
//! threads, and each test must see only its own allocations.

use adcache_cache::{CountMinSketch, PointLookup, RangeCache, RangeLookup};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// What a request of `size` bytes takes from glibc malloc on a 64-bit
/// host: an 8-byte chunk header, rounded up to 16, at least 32.
fn chunk_bytes(size: usize) -> i64 {
    ((size + 8).next_multiple_of(16)).max(32) as i64
}

fn note(allocations: u64, bytes: i64) {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s that neither allocate nor panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -chunk_bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, chunk_bytes(new_size) - chunk_bytes(layout.size()));
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

/// The benchmark's key shape: 24 bytes.
fn key(i: u32) -> Bytes {
    Bytes::from(format!("user{i:020}"))
}

#[test]
fn warm_point_hit_allocates_nothing() {
    let cache = RangeCache::new(64 << 20);
    let keys: Vec<Bytes> = (0..20_000).map(key).collect();
    for k in &keys {
        cache.insert_point(k.clone(), Bytes::from(vec![7u8; 100]));
    }
    // Interleaved order, so hits relink the recency list everywhere.
    let probes: Vec<&Bytes> = (0..keys.len())
        .map(|i| &keys[i * 7919 % keys.len()])
        .collect();
    let before = allocations();
    for k in &probes {
        match black_box(cache.get_point(k)) {
            PointLookup::Hit(v) => assert_eq!(v.len(), 100),
            other => panic!("resident key answered {other:?}"),
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "allocations in {} hits",
        probes.len()
    );
}

/// A point entry is its own coverage `[k, k⁺)`, so a scan over adjacent
/// point entries builds a successor key per step: one allocation each (it
/// was a `Vec` and a copy of it), none after the last entry.
#[test]
fn range_hit_over_point_entries_allocates_one_successor_per_step() {
    let cache = RangeCache::new(1 << 20);
    // Each key is the successor of the one before: 16 adjacent points.
    let keys: Vec<Bytes> = (0..16).map(|i| Bytes::from(vec![0u8; 8 + i])).collect();
    for k in &keys {
        cache.insert_point(k.clone(), Bytes::from(vec![7u8; 100]));
    }
    assert_eq!(cache.segment_count(), 0);
    let before = allocations();
    let hit = black_box(cache.get_range(&keys[0], 16));
    let spent = allocations() - before;
    assert!(matches!(&hit, RangeLookup::Hit(v) if v.len() == 16));
    // The result vector, the cursor and 15 successors.
    assert!(spent <= 17, "{spent} allocations in a 16-entry range hit");
}

/// The admission sketch is one allocation of a byte per counter, and
/// nothing else.
#[test]
fn sketch_costs_a_byte_per_counter() {
    let before = live_bytes();
    let sketch = CountMinSketch::for_keys(100_000);
    let counters = (100_000usize * 4).next_power_of_two() * 4;
    assert_eq!(sketch.memory_bytes(), counters);
    let live = live_bytes() - before;
    assert!(
        live <= counters as i64 + 256,
        "{live} live bytes for {counters} counters"
    );
}

/// The charge of such an entry is 24 + 100 + 48 = 172 bytes; key and value
/// alone take 48 + 128 from the allocator. What the structures around them
/// add must stay within 260 in total. A point entry outside every segment
/// has no node in the ordered index (it measured 288.5 with one; 586 in the
/// singleton-segment shard; 357 with 32-byte key handles and a hash map
/// inside the LRU).
#[test]
fn resident_point_entry_fits_260_real_bytes() {
    for (n, ascending) in [(190_000u32, true), (100_000, false)] {
        let before = live_bytes();
        let cache = RangeCache::new(256 << 20);
        for i in 0..n {
            // Ascending key order is what a sequential warm-up sweep
            // produces, the scrambled order what a served workload does;
            // neither builds an ordered index, since no scan covers them.
            let id = if ascending {
                i
            } else {
                (i as u64 * 2_654_435_761 % n as u64) as u32
            };
            cache.insert_point(key(id), Bytes::from(vec![7u8; 100]));
        }
        assert_eq!(cache.len(), n as usize);
        let per_entry = (live_bytes() - before) as f64 / n as f64;
        assert!(
            per_entry <= 260.0,
            "{per_entry:.1} bytes per entry at n={n}"
        );
        drop(cache);
        assert_eq!(live_bytes(), before, "the cache leaked");
    }
}

/// A full cache under churn: each fill evicts, and evictions inside scanned
/// segments split them. Coverage must stay bounded by what is resident (no
/// entry-less fragments pile up), nothing but the policy may remove an
/// entry, and an entry must cost what it costs in an unchurned cache plus
/// its share of the segments (the shard that kept every fragment measured
/// 946 bytes per entry here, with 65 536 segments for 24 k entries; 295.6
/// while every point entry also had an ordered-index node). The
/// trace is deterministic, so what it leaves behind is pinned too: a
/// change of layout must not move one admission or eviction.
#[test]
fn resident_entry_fits_300_real_bytes_under_churn() {
    const KEYS: u64 = 200_000;
    let before = live_bytes();
    let cache = RangeCache::new(4 << 20);
    let value = || Bytes::from(vec![7u8; 100]);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..240_000 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let id = (x >> 8) % KEYS;
        if x.is_multiple_of(5) {
            let results: Vec<(Bytes, Bytes)> = (id..(id + 16).min(KEYS))
                .map(|i| (key(i as u32), value()))
                .collect();
            cache.insert_scan(&results[0].0, &results, results.len());
        } else {
            cache.insert_point(key(id as u32), value());
        }
    }
    cache.check_invariants();
    let stats = cache.stats();
    assert_eq!((stats.inserts, stats.evictions), (842_668, 818_283));
    assert_eq!((cache.len(), cache.segment_count()), (24_385, 1_432));
    assert_eq!(stats.invalidations, 0, "entries removed behind the policy");
    assert_eq!(cache.coverage_dropped(), 0);
    let per_entry = (live_bytes() - before) as f64 / cache.len() as f64;
    assert!(
        per_entry <= 300.0,
        "{per_entry:.1} bytes per entry, {} entries, {} segments",
        cache.len(),
        cache.segment_count()
    );
    drop(cache);
    assert_eq!(live_bytes(), before, "the cache leaked");
}
