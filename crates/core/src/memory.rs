//! The memory ledger: where a served store's bytes go.
//!
//! The block cache and the result caches share one budget (PAPER §1), so a
//! charged byte should be a real one. [`CachedDb::memory_report`] lists
//! every term the served path holds, each with what the budget (or the
//! write buffer) charges for it and the heap bytes it really takes, and
//! holds their sum against the process's resident set. Computed on
//! request, from sizes and capacities the structures keep anyway; served
//! as `STATS.memory`.
//!
//! A row's `real` bytes are held by that row and counted by no other, so
//! the rows add up. A view of bytes another row holds is `shared`: over
//! `MemStorage` a cached block, and a cached value a block read produced,
//! are views of the store's tables, which the `store.tables` row counts.
//! The ledger cannot tell such a view from a value that owns its bytes (one
//! read from a memtable, or written by a client), so over `MemStorage`
//! those count as `shared` too and show up as unattributed; over
//! `FileStorage` every cached value owns its bytes (the engine's copy rule).
//!
//! Where the allocator is glibc's, the `malloc.free` row names the free
//! bytes it holds (`mallinfo2().fordblks`): memory the process touched,
//! freed, and has not returned to the system. Elsewhere the row is absent.
//! It is memory an earlier peak touched, not a term of the peak: a change
//! that lowers the peak can leave more of it free at the end, so the row
//! can rise while VmHWM falls.
//!
//! [`CachedDb::memory_report`]: crate::CachedDb::memory_report

use adcache_cache::{CacheFootprint, RangeFootprint};
use adcache_lsm::TreeMemory;

/// One term of the ledger, in bytes.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemoryRow {
    /// The term, as `structure.part` (`range.values`, `memtable.0`).
    pub name: String,
    /// What the cache budget or the write buffer charges for it.
    pub charged: u64,
    /// Heap bytes it holds that no other row counts.
    pub real: u64,
    /// Bytes it keeps views of that another row holds, counted as the
    /// allocations they would be on their own.
    pub shared: u64,
}

/// The whole ledger ([`CachedDb::memory_report`]).
///
/// [`CachedDb::memory_report`]: crate::CachedDb::memory_report
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemoryReport {
    /// One row per term.
    pub rows: Vec<MemoryRow>,
    /// Σ `real` over the rows.
    pub attributed: u64,
    /// The process's resident set (`VmRSS`), 0 where it cannot be read.
    pub vm_rss: u64,
    /// `vm_rss − attributed`: the allocator's chunk headers and rounding,
    /// the binary, thread stacks, and every consumer no row names
    /// (connection buffers, the journal, the agent, values pinned in
    /// deleted tables). 0 when `vm_rss` is unknown.
    pub unattributed: i64,
}

/// What the engine gathers for [`report`].
pub(crate) struct Terms {
    /// Whether the store's blocks are its own bytes
    /// (`Storage::blocks_are_the_store`): then cached blocks and the values
    /// read from them are views of `store`, and are `shared`.
    pub blocks_are_the_store: bool,
    pub range: RangeFootprint,
    pub block: CacheFootprint,
    pub kv: CacheFootprint,
    /// Admission sketch bytes: four-bit counters, two to a byte.
    pub sketch: usize,
    /// One entry per stripe.
    pub trees: Vec<TreeMemory>,
    /// `Storage::resident_bytes`.
    pub store: usize,
}

/// Builds the ledger's rows from `t` and holds them against `VmRSS`.
pub(crate) fn report(t: Terms) -> MemoryReport {
    let mut rows = Vec::new();
    let mut row = |name: &str, charged: usize, real: usize, shared: usize| {
        rows.push(MemoryRow {
            name: name.to_string(),
            charged: charged as u64,
            real: real as u64,
            shared: shared as u64,
        })
    };
    // A payload is the row's own, or a view of the store's tables.
    let split = |payload: usize| {
        if t.blocks_are_the_store {
            (0, payload)
        } else {
            (payload, 0)
        }
    };
    let r = &t.range;
    let (values, values_shared) = split(r.value_heap);
    // A key of up to 30 bytes lies in its slot, in `range.slab`; only a
    // longer one is an allocation of its own.
    let in_place = r.key_bytes - r.shared_key_bytes;
    row("range.keys.in_place", in_place, 0, 0);
    row("range.keys.shared", r.shared_key_bytes, r.key_heap, 0);
    row("range.values", r.value_bytes, values, values_shared);
    row(
        "range.slab",
        r.charged - r.key_bytes - r.value_bytes,
        r.slab,
        0,
    );
    row("range.hash_index", 0, r.hash_index, 0);
    row("range.segment_slots", 0, r.segment_slots, 0);
    row("range.segments", 0, r.segments, 0);
    row("range.policy", 0, r.policy, 0);
    let (blocks, blocks_shared) = split(t.block.payload_heap);
    row("block.blocks", t.block.charged, blocks, blocks_shared);
    row("block.table", 0, t.block.structure_heap, 0);
    let (kv_values, kv_shared) = split(t.kv.payload_heap);
    row("kv.values", t.kv.charged, kv_values, kv_shared);
    row("kv.keys_and_table", 0, t.kv.structure_heap, 0);
    row("admission.sketch", 0, adcache_lsm::heap::chunk(t.sketch), 0);
    for (i, m) in t.trees.iter().enumerate() {
        let arena = m.memtable_heap - m.memtable_stranded;
        row(&format!("memtable.{i}"), m.memtable_charged, arena, 0);
        row(&format!("memtable.{i}.stranded"), 0, m.memtable_stranded, 0);
    }
    let sst = |f: fn(&TreeMemory) -> usize| t.trees.iter().map(f).sum::<usize>();
    row("sst.index", 0, sst(|m| m.index_bytes), 0);
    row("sst.bloom", 0, sst(|m| m.bloom_bytes), 0);
    row("store.tables", 0, t.store, 0);
    if let Some(free) = malloc_free() {
        row("malloc.free", 0, free, 0);
    }
    let attributed: u64 = rows.iter().map(|r| r.real).sum();
    let vm_rss = resident_set();
    MemoryReport {
        rows,
        attributed,
        vm_rss,
        unattributed: if vm_rss == 0 {
            0
        } else {
            vm_rss as i64 - attributed as i64
        },
    }
}

/// Free bytes glibc's allocator holds over all its arenas, the top chunks
/// included.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn malloc_free() -> Option<usize> {
    /// glibc's `struct mallinfo2` (glibc 2.33 and later): ten `size_t`s.
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` takes no argument, returns the struct by value
    // and only reads the allocator's own state under its arena locks.
    let info = unsafe { mallinfo2() };
    Some(info.fordblks)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn malloc_free() -> Option<usize> {
    None
}

/// `VmRSS` of this process in bytes, from `/proc/self/status`; 0 where
/// there is no such file.
fn resident_set() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_add_up_and_views_are_not_counted_twice() {
        let terms = |blocks_are_the_store| Terms {
            blocks_are_the_store,
            range: RangeFootprint {
                // A 24-byte key in place and a 40-byte one on the heap.
                charged: (24 + 100 + 48) + (40 + 100 + 48),
                key_bytes: 64,
                shared_key_bytes: 40,
                value_bytes: 200,
                key_heap: 64,
                value_heap: 256,
                slab: 1000,
                segment_slots: 32,
                ..RangeFootprint::default()
            },
            block: CacheFootprint {
                charged: 4096,
                payload_heap: 4128,
                structure_heap: 100,
            },
            kv: CacheFootprint::default(),
            sketch: 64,
            trees: vec![TreeMemory {
                memtable_charged: 500,
                memtable_heap: 700,
                memtable_stranded: 50,
                index_bytes: 30,
                bloom_bytes: 20,
            }],
            store: 10_000,
        };
        let row = |r: &MemoryReport, name: &str| {
            let row = r.rows.iter().find(|row| row.name == name).unwrap();
            (row.charged, row.real, row.shared)
        };
        let files = report(terms(false));
        assert_eq!(row(&files, "range.keys.in_place"), (24, 0, 0));
        assert_eq!(row(&files, "range.keys.shared"), (40, 64, 0));
        assert_eq!(row(&files, "range.values"), (200, 256, 0));
        assert_eq!(row(&files, "range.slab"), (96, 1000, 0));
        assert_eq!(row(&files, "range.segment_slots"), (0, 32, 0));
        assert_eq!(row(&files, "block.blocks"), (4096, 4128, 0));
        assert_eq!(row(&files, "memtable.0"), (500, 650, 0));
        assert_eq!(row(&files, "memtable.0.stranded"), (0, 50, 0));
        let memory = report(terms(true));
        assert_eq!(row(&memory, "range.values"), (200, 0, 256));
        assert_eq!(row(&memory, "block.blocks"), (4096, 0, 4128));
        for r in [&files, &memory] {
            assert_eq!(r.attributed, r.rows.iter().map(|row| row.real).sum::<u64>());
        }
        // The allocator's free bytes move between the two reports.
        let structures = |r: &MemoryReport| {
            let rows = r.rows.iter().filter(|row| row.name != "malloc.free");
            rows.map(|row| row.real).sum::<u64>()
        };
        assert_eq!(structures(&files) - structures(&memory), 256 + 4128);
        // glibc names its free heap; no other allocator has the row.
        let free = files.rows.iter().find(|row| row.name == "malloc.free");
        let glibc = cfg!(all(target_os = "linux", target_env = "gnu"));
        assert_eq!(free.is_some(), glibc);
        assert!(free.is_none_or(|row| row.real > 0 && row.charged == 0));
        // This process has a resident set, and the ledger reads it.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(files.vm_rss > 0);
            assert_eq!(
                files.unattributed,
                files.vm_rss as i64 - files.attributed as i64
            );
        }
    }
}
