//! What a range-cache entry costs the heap, measured with a counting
//! global allocator: a warm point hit allocates nothing, and a resident
//! entry occupies a bounded number of real bytes — in a cache that was
//! only filled, and in one where every fill evicts. The second is the
//! first real-versus-charged invariant that holds under eviction (the
//! coverage map used to grow to its cap however few entries were
//! resident); it is what a later re-basing of the charge to within 1.1× of
//! real bytes has to stand on.
//!
//!
//! The same live bytes pin the memory ledger's estimates: what each cache
//! reports as its real bytes (`footprint`) is within 10 % of what the
//! allocator holds for it.
//!
//! Counters are thread-local: the test harness runs tests on parallel
//! threads, and each test must see only its own allocations.

use adcache_cache::{
    BlockCache, CacheFootprint, CacheusPolicy, CountMinSketch, KvCache, LeCaRPolicy, PointLookup,
    Policy, RangeCache, RangeFootprint, RangeLookup, SlotClockPolicy, SlotLruPolicy,
};
use adcache_lsm::{Block, BlockBuilder, BlockRef};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

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

/// The ledger's estimate must be within 10 % of the live bytes measured.
fn assert_ledger_matches(what: &str, reported: usize, live: i64) {
    // No printing: the leak checks after it count every byte this thread
    // still holds, stdout's buffer included.
    let ratio = reported as f64 / live as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "{what}: the ledger reports {reported} B for {live} live"
    );
}

/// A range cache's real bytes as the ledger counts them when every value
/// is an allocation of its own, as these tests' values are.
fn range_real(f: &RangeFootprint) -> usize {
    f.key_heap + f.value_heap + f.slab + f.hash_index + f.segment_slots + f.segments + f.policy
}

fn cache_real(f: &CacheFootprint) -> usize {
    f.structure_heap + f.payload_heap
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
    // A walk collects into scratch its thread keeps; the first one sizes it.
    black_box(cache.get_range(&keys[0], 16));
    let before = allocations();
    let hit = black_box(cache.get_range(&keys[0], 16));
    let spent = allocations() - before;
    assert!(matches!(&hit, RangeLookup::Hit(v) if v.len() == 16));
    // The result vector, the buffer of its keys and 15 successors.
    assert!(spent <= 17, "{spent} allocations in a 16-entry range hit");
}

/// The admission sketch is one allocation of half a byte per counter, and
/// nothing else.
#[test]
fn sketch_costs_half_a_byte_per_counter() {
    let before = live_bytes();
    let sketch = CountMinSketch::for_keys(100_000);
    let (width, depth) = ((100_000usize * 4).next_power_of_two(), 4);
    assert_eq!(sketch.memory_bytes(), width * depth / 2);
    let live = live_bytes() - before;
    assert!(
        live <= (width * depth / 2) as i64 + 256,
        "{live} live bytes for {} counters",
        width * depth
    );
}

/// The charge of such an entry is 24 + 100 + 48 = 172 bytes; the value
/// alone takes 128 from the allocator, and the 24-byte key lives in its
/// 56-byte slot. What the structures around them add must stay within 196
/// in total after an ascending sweep of 190 k (195.9 measured), and 206
/// for 100 k in scattered order, whose hash index is half as full (21 B a
/// bucket per entry instead of 11; 205.9). A point entry outside every
/// segment is on no segment's list and has no key allocation: it measured
/// 206.4 while an LRU kept 8 B of links per slot where the CLOCK keeps 3
/// bits, 246.4 (255.8 scattered) with its key in a 48-byte allocation of
/// its own and 32-byte `Bytes` handles, 288.5 with a node in an ordered
/// index, 586 in the singleton-segment shard, and 357 with 32-byte key
/// handles and a hash map inside the LRU.
#[test]
fn resident_point_entry_fits_196_real_bytes() {
    for (n, ascending, bound) in [(190_000u32, true, 196.0), (100_000, false, 206.0)] {
        let before = live_bytes();
        let cache = RangeCache::new(256 << 20);
        for i in 0..n {
            // Ascending key order is what a sequential warm-up sweep
            // produces, the scrambled order what a served workload does;
            // neither lists an entry on a segment, since no scan covers them.
            let id = if ascending {
                i
            } else {
                (i as u64 * 2_654_435_761 % n as u64) as u32
            };
            cache.insert_point(key(id), Bytes::from(vec![7u8; 100]));
        }
        assert_eq!(cache.len(), n as usize);
        let live = live_bytes() - before;
        assert_ledger_matches("points", range_real(&cache.footprint()), live);
        let per_entry = live as f64 / n as f64;
        assert!(
            per_entry <= bound,
            "{per_entry:.1} bytes per entry at n={n}"
        );
        drop(cache);
        assert_eq!(live_bytes(), before, "the cache leaked");
    }
}

/// A covered entry costs what a point entry costs plus its four bytes on
/// its segment's list: at 24 B of key and 100 of value, at most 202 real
/// bytes after an ascending sweep of 16-entry scans that builds one
/// segment (201.4 measured), and 217 when each scan of 16 is a segment of
/// its own, whose bound keys and map node add about 15 B an entry (216.6).
/// Under an LRU's links the two took 212.0 and 227.1; while each covered
/// key was an allocation of its own that a B-tree ordered index shared,
/// 296.7 and 309.7.
#[test]
fn covered_entry_fits_202_real_bytes() {
    const N: u32 = 190_000;
    for (stride, bound) in [(16, 202.0), (32, 217.0)] {
        let before = live_bytes();
        let cache = RangeCache::new(256 << 20);
        // With a stride of 16 each scan starts where the last one's
        // coverage ends (the continuation a scan resumes from), so the
        // segments touch and merge; with 32 each scan is a segment.
        let mut from = key(0).to_vec();
        for first in (0..N).step_by(stride) {
            let results: Vec<(Bytes, Bytes)> = (first..first + 16)
                .map(|i| (key(i), Bytes::from(vec![7u8; 100])))
                .collect();
            cache.insert_scan(&from, &results, results.len());
            from = if stride == 16 {
                [&results[15].0[..], &[0]].concat()
            } else {
                key(first + stride as u32).to_vec()
            };
        }
        drop(from);
        let scans = (N as usize).div_ceil(stride);
        let entries = scans * 16;
        assert_eq!(cache.len(), entries);
        let segments = if stride == 16 { 1 } else { scans };
        assert_eq!(cache.segment_count(), segments);
        let live = live_bytes() - before;
        assert_ledger_matches("covered", range_real(&cache.footprint()), live);
        let per_entry = live as f64 / entries as f64;
        assert!(
            per_entry <= bound,
            "{per_entry:.1} bytes per covered entry, {segments} segments"
        );
        drop(cache);
        assert_eq!(live_bytes(), before, "the cache leaked");
    }
}

/// A full cache under churn: each fill evicts, and evictions inside scanned
/// segments split them. Coverage must stay bounded by what is resident (no
/// entry-less fragments pile up), nothing but the policy may remove an
/// entry, and an entry must cost what it costs in an unchurned cache plus
/// its share of the segments: 218.9 bytes (224.3 under an LRU, whose
/// evictions left 1 432 segments where the CLOCK's leave 1 902), where the
/// shard that kept every fragment measured 946, with 65 536 segments for
/// 24 k entries, 295.6 while every point entry also had an ordered-index
/// node, and 287.7 while covered keys were allocations an ordered index
/// shared. The trace is deterministic, so what it leaves behind is pinned
/// too: a change of layout must not move one admission or eviction.
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
    assert_eq!((stats.inserts, stats.evictions), (842_644, 818_259));
    assert_eq!((cache.len(), cache.segment_count()), (24_385, 1_902));
    assert_eq!(stats.invalidations, 0, "entries removed behind the policy");
    assert_eq!(cache.coverage_dropped(), 0);
    let live = live_bytes() - before;
    assert_ledger_matches("churn", range_real(&cache.footprint()), live);
    let per_entry = live as f64 / cache.len() as f64;
    assert!(
        per_entry <= 300.0,
        "{per_entry:.1} bytes per entry, {} entries, {} segments",
        cache.len(),
        cache.segment_count()
    );
    drop(cache);
    assert_eq!(live_bytes(), before, "the cache leaked");
}

/// Every policy a range cache can run reports its bookkeeping in the
/// ledger's `range.policy` row: the CLOCK's bit-planes, the LRU's links,
/// and LeCaR's and Cacheus's experts, identity maps and ghost histories,
/// each within 10 % of what the allocator holds for it after a churn of
/// inserts, hits, evictions and removals over recycled slot ids.
#[test]
fn every_policy_reports_its_heap_bytes() {
    fn churn(p: &mut dyn Policy) -> i64 {
        const SLOTS: u32 = 20_000;
        let mut resident = vec![false; SLOTS as usize];
        // Never grows past its first capacity: only the policy allocates
        // after `before`.
        let mut free: Vec<u32> = (0..SLOTS).rev().collect();
        let before = live_bytes();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x >> 16) as u32 % SLOTS;
            match x % 8 {
                0..=2 => {
                    if let Some(s) = free.pop() {
                        p.on_insert(s, step);
                        resident[s as usize] = true;
                    }
                }
                3..=5 if resident[slot as usize] => p.on_hit(slot),
                6 if free.len() < SLOTS as usize / 4 => {
                    let v = p.victim().expect("a resident slot");
                    assert!(std::mem::take(&mut resident[v as usize]));
                    free.push(v);
                }
                7 if resident[slot as usize] => {
                    p.on_external_remove(slot);
                    resident[slot as usize] = false;
                    free.push(slot);
                }
                _ => {}
            }
        }
        live_bytes() - before
    }
    let mut clock = SlotClockPolicy::new();
    let live = churn(&mut clock);
    assert_ledger_matches("clock", clock.heap_bytes(), live);
    let mut lru = SlotLruPolicy::new();
    let live = churn(&mut lru);
    assert_ledger_matches("lru", lru.heap_bytes(), live);
    let mut lecar = LeCaRPolicy::new();
    let live = churn(&mut lecar);
    assert_ledger_matches("lecar", lecar.heap_bytes(), live);
    let mut cacheus = CacheusPolicy::new();
    let live = churn(&mut cacheus);
    assert_ledger_matches("cacheus", cacheus.heap_bytes(), live);
}

/// The KV cache's and the block cache's ledger rows, against the allocator:
/// keys, values and blocks are each an allocation of their own here, as
/// over `FileStorage`, where the copy rule makes them so.
///
/// A KV entry is indexed once, by its key in the cache's own LRU: at 24 B
/// of key and 100 of value it takes 303.2 bytes with 24-byte `Bytes`
/// handles, 334.6 with 32-byte ones, and took 377.9 while an eviction
/// policy kept a second hash map and a second copy of each key handle
/// beside the cache's.
#[test]
fn kv_and_block_cache_ledgers_match_live_bytes() {
    const ENTRIES: u32 = 50_000;
    let before = live_bytes();
    let kv = KvCache::new(64 << 20);
    for i in 0..ENTRIES {
        kv.insert(key(i), Bytes::from(vec![7u8; 100]));
    }
    let live = live_bytes() - before;
    assert_ledger_matches("kv", cache_real(&kv.footprint()), live);
    let per_entry = live as f64 / f64::from(ENTRIES);
    assert!(per_entry <= 310.0, "{per_entry:.1} bytes per KV entry");
    drop(kv);

    let before = live_bytes();
    let blocks = BlockCache::new(64 << 20, 4);
    for i in 0..2_000u32 {
        let mut b = BlockBuilder::new(16);
        for j in 0..7 {
            b.add_value(&key(i * 7 + j), Some(&[7u8; 512])).unwrap();
        }
        let block = Arc::new(Block::decode(b.finish()).unwrap());
        let at = BlockRef {
            file: u64::from(i / 100),
            block_no: i % 100,
        };
        blocks.insert_block(at, block);
    }
    let live = live_bytes() - before;
    assert_ledger_matches("block", cache_real(&blocks.footprint()), live);
}
