//! What the block path and the write buffer take from the heap, counted
//! with a counting global allocator (the one of
//! `cache/tests/alloc_footprint.rs`): a point lookup allocates the block's
//! `Arc` and one key buffer, a table cursor one key per entry it yields, a
//! table build allocates per block rather than per entry, a table build
//! over files holds one block of the table at a time, and a memtable holds
//! little more than the bytes it is charged, as the memory ledger reads it.
//!
//! Counters are thread-local: the test harness runs tests on parallel
//! threads, and each test must see only its own allocations.

use adcache_lsm::memtable::MemTable;
use adcache_lsm::sstable::{table_get, TableBuilder, TableIter};
use adcache_lsm::{
    DirectProvider, Entry, FileStorage, MemStorage, Options, Storage, StripedDb, TableMeta,
};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REQUESTED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes of glibc chunks allocated and not yet freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has been since [`peak_and_held`] reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = REQUESTED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// What a request of `size` bytes takes from glibc malloc on a 64-bit
/// host: an 8-byte chunk header, rounded up to 16, at least 32.
fn chunk_bytes(size: usize) -> i64 {
    ((size + 8).next_multiple_of(16)).max(32) as i64
}

fn live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| {
        n.set(n.get() + delta);
        let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(n.get())));
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s that neither allocate nor panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-chunk_bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(chunk_bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(chunk_bytes(new_size) - chunk_bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes requested)` of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (allocs, bytes) = (ALLOCATIONS.with(Cell::get), REQUESTED_BYTES.with(Cell::get));
    let out = f();
    (
        ALLOCATIONS.with(Cell::get) - allocs,
        REQUESTED_BYTES.with(Cell::get) - bytes,
        out,
    )
}

/// `(peak, held at the end)` live bytes of `f` on this thread, each above
/// where it started.
fn peak_and_held<T>(f: impl FnOnce() -> T) -> (i64, i64, T) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(start));
    let out = f();
    (
        PEAK_BYTES.with(Cell::get) - start,
        LIVE_BYTES.with(Cell::get) - start,
        out,
    )
}

/// The benchmark's key shape: 24 bytes.
fn key(i: u32) -> Bytes {
    Bytes::from(format!("user{i:020}"))
}

fn build_table(opts: &Options, storage: &MemStorage, n: u32, value: &[u8]) -> Arc<TableMeta> {
    let mut b = TableBuilder::new(1, opts, storage).unwrap();
    for i in 0..n {
        b.add_value(&key(i), Some(value)).unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn table_get_of_a_present_key_allocates_at_most_twice() {
    let opts = Options::default();
    let storage = MemStorage::new();
    let meta = build_table(&opts, &storage, 2_000, &[b'v'; 100]);
    assert!(meta.num_blocks > 8);
    for i in [0, 1, 777, 1_999] {
        let k = key(i);
        let (allocs, _, got) = counted(|| table_get(&meta, &DirectProvider, &storage, &k));
        assert!(matches!(got, Ok(Some(Entry::Put(_)))), "key {i}");
        // The decoded block's `Arc` and the cursor's key buffer.
        assert!(allocs <= 2, "key {i}: {allocs} allocations");
    }
}

#[test]
fn table_cursor_allocates_one_key_per_entry_it_yields() {
    // 4 KiB blocks of ~45-byte entries: the 16 advances cross at most one
    // block boundary.
    let opts = Options::default();
    let storage = MemStorage::new();
    let meta = build_table(&opts, &storage, 2_000, &[b'v'; 8]);
    for (from, n) in [(0u32, 16u64), (500, 16), (1_234, 1), (1_990, 8)] {
        let from = key(from);
        let (allocs, _, yielded) = counted(|| {
            let mut it = TableIter::seek(meta.clone(), &DirectProvider, &storage, &from).unwrap();
            (0..n)
                .map(|_| it.advance(&DirectProvider, &storage).unwrap().unwrap())
                .count() as u64
        });
        assert_eq!(yielded, n);
        // One key per entry, plus the key buffer and a block `Arc` or two.
        assert!(allocs <= n + 3, "{n} advances: {allocs} allocations");
    }
}

/// Allocations of a 16-entry scan at commit `7963166`, the parent of the
/// allocation-free cursors: measured there with this very test.
const PARENT_SCAN16_ALLOCATIONS: u64 = 355;

#[test]
fn scan16_over_4_stripes_by_4_runs_allocates_half_of_what_it_did() {
    let opts = Options {
        // Four flushes stay four Level-0 runs.
        l0_compaction_trigger: 8,
        ..Options::served(4, 4 << 20)
    };
    let db = StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap();
    for run in 0..4 {
        for i in (run..4_000).step_by(4) {
            db.put(key(i), Bytes::from(vec![b'v'; 100])).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.num_runs(), 16, "4 stripes of 4 runs each");
    let mut total = 0;
    for from in [0u32, 1_001, 2_502, 3_903] {
        let from = key(from);
        let (allocs, _, got) = counted(|| db.scan(&from, 16, &DirectProvider).unwrap());
        assert_eq!(black_box(got).len(), 16);
        total += allocs;
    }
    let per_scan = total / 4;
    println!("scan16 over 4 stripes x 4 runs: {per_scan} allocations (parent {PARENT_SCAN16_ALLOCATIONS})");
    assert!(
        per_scan * 2 <= PARENT_SCAN16_ALLOCATIONS,
        "{per_scan} allocations per scan, parent {PARENT_SCAN16_ALLOCATIONS}"
    );
}

/// Allocations of one uncontended `put` at commit `42c651f`, the parent of
/// the queue-free commit, measured there with this very test: the batch
/// `Vec`, the commit queue's `Arc` slot and the `Vec` its leader drained
/// the queue into.
const PARENT_PUT_ALLOCATIONS: u64 = 3;

#[test]
fn an_uncontended_put_allocates_two_fewer_times_than_with_a_commit_queue() {
    static VALUE: [u8; 100] = [b'v'; 100];
    let db = StripedDb::new(Options::default(), Arc::new(MemStorage::new())).unwrap();
    // Static bytes clone without allocating, and an overwrite of equal
    // length allocates nothing in the memtable: what is left is the put's.
    let (k, v) = (
        Bytes::from_static(b"user00000000000000000042"),
        Bytes::from_static(&VALUE),
    );
    db.put(k.clone(), v.clone()).unwrap();
    let (allocs, _, ()) = counted(|| {
        for _ in 0..1_000 {
            db.put(k.clone(), v.clone()).unwrap();
        }
    });
    println!("1000 puts: {allocs} allocations (parent {PARENT_PUT_ALLOCATIONS} a put)");
    assert_eq!(allocs % 1_000, 0, "{allocs} allocations in 1000 puts");
    assert_eq!(allocs / 1_000 + 2, PARENT_PUT_ALLOCATIONS);
}

#[test]
fn a_table_build_allocates_per_block_not_per_entry() {
    // 4 KiB blocks of ~45-byte entries: ~90 entries a block.
    let opts = Options::default();
    let storage = MemStorage::new();
    let keys: Vec<Bytes> = (0..20_000).map(key).collect();
    let (allocs, _, meta) = counted(|| {
        let mut b = TableBuilder::new(1, &opts, &storage).unwrap();
        for k in &keys {
            b.add_value(k, Some(b"vvvvvvvv")).unwrap();
        }
        b.finish().unwrap()
    });
    let blocks = meta.num_blocks as u64;
    println!(
        "{} entries, {blocks} blocks: {allocs} allocations",
        keys.len()
    );
    assert!(blocks > 50);
    // The block's buffer growing to 4 KiB, its restart array, its
    // finished copy, and what storage keeps of it; the per-table vectors grow
    // geometrically. Not one per entry.
    assert!(allocs <= 20 * blocks + 100, "{allocs} allocations");
    assert!(allocs * 10 < keys.len() as u64, "{allocs} allocations");
}

#[test]
fn a_table_build_over_files_holds_one_block_at_a_time() {
    // The durable store's shape: 512-byte values in 4 KiB blocks, a table
    // larger than a 4 MiB memtable.
    let opts = Options::default();
    let value = [b'v'; 512];
    let keys: Vec<Bytes> = (0..8_000).map(key).collect();
    let build = |storage: &dyn Storage| {
        let mut b = TableBuilder::new(1, &opts, storage).unwrap();
        for k in &keys {
            b.add_value(k, Some(&value)).unwrap();
        }
        b.finish().unwrap()
    };
    let dir = std::env::temp_dir().join(format!("adcache-alloc-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = FileStorage::open(&dir).unwrap();
    let (peak, _, meta) = peak_and_held(|| build(&files));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(meta.total_bytes >= 4 << 20, "{} bytes", meta.total_bytes);
    // What the builder keeps by design, in vectors that at most double: a
    // Bloom hash per entry, and a first key and its end offset per block.
    let kept = 2 * (8 * keys.len() as i64 + (24 + 4) * meta.num_blocks as i64);
    println!(
        "{} B table of {} blocks over files: peak {peak} B live, {kept} B of it index and hashes",
        meta.total_bytes, meta.num_blocks
    );
    assert!(
        peak - kept < 256 << 10,
        "peak {peak} B, {kept} B of it index and hashes"
    );
    // In memory the blocks are the store: the build ends holding them all.
    let mem = MemStorage::new();
    let (_, held, meta) = peak_and_held(|| build(&mem));
    assert!(
        held >= meta.total_bytes as i64,
        "{held} B held for {} B of blocks",
        meta.total_bytes
    );
}

/// 24-byte keys in a scrambled order, as many as fill a memtable to 1 MiB of
/// charge with 100-byte values.
fn scrambled_keys() -> Vec<Bytes> {
    (0..7_490u32)
        .map(|i| key(i.wrapping_mul(2_654_435_761) % 200_000))
        .collect()
}

#[test]
fn a_full_memtable_holds_little_more_than_its_charge() {
    let keys = scrambled_keys();
    let before = LIVE_BYTES.with(Cell::get);
    let mut m = MemTable::new();
    // Each write's key and value are buffers of their own, as when they
    // arrive off the wire; whatever of them the memtable keeps is counted.
    for k in &keys {
        m.put(Bytes::copy_from_slice(k), Bytes::from(vec![b'v'; 100]));
    }
    let real = (LIVE_BYTES.with(Cell::get) - before) as f64;
    let charged = m.approximate_bytes() as f64;
    assert!(charged >= (1 << 20) as f64);
    println!(
        "{} entries charged {charged} B hold {real} B: {:.0} B an entry, {:.2}x",
        m.len(),
        real / m.len() as f64,
        real / charged
    );
    assert!(real <= 1.35 * charged, "{real} B for {charged} charged");
    // The memory ledger's memtable row reads the arena's real bytes, and
    // must stay within 10 % of the allocator's count.
    let ledger = m.heap_bytes() as f64;
    assert!(
        (0.9 * real..=1.1 * real).contains(&ledger),
        "the ledger reports {ledger} B for {real} live"
    );
}

#[test]
fn memtable_writes_allocate_only_when_the_arena_grows() {
    let keys = scrambled_keys();
    let n = keys.len() as u64;
    let (value, other) = (Bytes::from(vec![b'v'; 100]), Bytes::from(vec![b'w'; 100]));
    let mut m = MemTable::new();
    // Clones share their buffers: only the memtable's own allocations count.
    let (allocs, _, ()) = counted(|| {
        for k in &keys {
            m.put(k.clone(), value.clone());
        }
    });
    // One per 64 KiB chunk of 124-byte records, plus the chunk list, node
    // and tower vectors each doubling from their first few slots.
    let chunks = (n * 124).div_ceil(64 << 10);
    let doublings = 3 * (64 - n.leading_zeros() as u64);
    println!("{n} puts: {allocs} allocations ({chunks} chunks)");
    assert!(allocs <= chunks + doublings, "{allocs} allocations");
    // Overwrites of equal length and deletes allocate nothing at all.
    let (allocs, _, ()) = counted(|| {
        for k in &keys {
            m.put(k.clone(), other.clone());
        }
        for k in keys.iter().step_by(2) {
            m.delete(k.clone());
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(m.get(&keys[1]), Some(Entry::Put(other)));
    assert_eq!(m.get(&keys[0]), Some(Entry::Tombstone));
}
