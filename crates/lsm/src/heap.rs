//! Real heap bytes, for the memory ledger: what the allocator hands out
//! for a structure, as opposed to what a byte budget charges for it.
//!
//! Each helper reads a structure's size and capacity and rounds every
//! allocation the way glibc malloc does on a 64-bit host, so a ledger row
//! can be held against a counting allocator's live bytes
//! (`alloc_footprint.rs`, `alloc_counts.rs`).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::mem::size_of;

/// What one allocation of `size` bytes takes from glibc malloc on a 64-bit
/// host: an 8-byte chunk header, rounded up to 16, at least 32. Zero for no
/// allocation.
pub fn chunk(size: usize) -> usize {
    if size == 0 {
        0
    } else {
        (size + 8).next_multiple_of(16).max(32)
    }
}

/// One `Arc<[u8]>` (and so one `Bytes` that spans its buffer) of `len`
/// bytes: the two reference counts, then the bytes.
pub fn arc_bytes(len: usize) -> usize {
    chunk(16 + len)
}

/// The buffer of a `Vec<T>`.
pub fn vec<T>(v: &Vec<T>) -> usize {
    chunk(v.capacity() * size_of::<T>())
}

/// The buffer of a `VecDeque<T>`.
pub fn vec_deque<T>(v: &VecDeque<T>) -> usize {
    chunk(v.capacity() * size_of::<T>())
}

/// The table of a std `HashMap`: a power-of-two bucket count (capacity is
/// seven eighths of it), each bucket an entry and a control byte, and one
/// trailing group of control bytes.
pub fn hash_map<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    let cap = m.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 {
        (cap + 1).next_power_of_two()
    } else {
        (cap * 8 / 7).next_power_of_two()
    };
    chunk(buckets * (size_of::<(K, V)>() + 1) + 16)
}

/// The nodes of a std `BTreeMap`: a leaf holds up to 11 pairs beside a
/// parent link and two counters, and maps built by scattered inserts keep
/// their nodes about two-thirds full.
pub fn btree_map<K, V>(m: &BTreeMap<K, V>) -> usize {
    let leaf = 8 + 11 * (size_of::<K>() + size_of::<V>()) + 4;
    m.len().div_ceil(7) * chunk(leaf)
}
