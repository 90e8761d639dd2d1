//! Where a range-cache shard keeps its entries: a chunked slab of slots
//! and an open-addressing hash index from key bytes to slot id.
//!
//! Both are sized for honest memory accounting. The slab grows one fixed
//! chunk at a time, so growing never copies resident entries and never
//! holds an old and a doubled buffer at once. Beside the chunks it keeps
//! one bit per slot: whether the shard's ordered index holds the entry, so
//! an entry it does not hold leaves without a search. The index stores 8
//! bytes per bucket (a 32-bit hash tag and the slot id) and finds the key
//! itself in the slab, so no second copy of the key exists.

use bytes::Bytes;
use std::sync::Arc;

/// "No slot": list terminator and empty-bucket marker.
pub(super) const NIL: u32 = u32::MAX;

const CHUNK_BITS: u32 = 10;
/// Slots per slab chunk (48 KiB of slots).
const CHUNK: usize = 1 << CHUNK_BITS;
/// Words of the ordered bits per chunk.
const CHUNK_WORDS: usize = CHUNK / 64;

/// One resident key-value pair. The key is always the whole of one
/// allocation, so a 16-byte handle holds it; the ordered index, when it
/// holds the entry, shares it.
pub(super) struct Entry {
    pub(super) key: Arc<[u8]>,
    pub(super) value: Bytes,
}

enum Slot {
    Full(Entry),
    /// On the free list; holds the next free slot.
    Free(u32),
}

/// Slot storage addressed by a stable 4-byte id. Freed ids are recycled.
pub(super) struct Slab {
    chunks: Vec<Vec<Slot>>,
    /// One bit per slot id, set while the ordered index holds its entry;
    /// a free slot's bit is clear.
    ordered: Vec<u64>,
    /// Head of the free list.
    free: u32,
    len: usize,
}

impl Slab {
    pub(super) fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            ordered: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of full slots.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    fn slot(&self, id: u32) -> &Slot {
        &self.chunks[id as usize >> CHUNK_BITS][id as usize & (CHUNK - 1)]
    }

    fn slot_mut(&mut self, id: u32) -> &mut Slot {
        &mut self.chunks[id as usize >> CHUNK_BITS][id as usize & (CHUNK - 1)]
    }

    /// The entry in slot `id`. Panics when the slot is free: every id held
    /// by an index or a policy must name a resident entry.
    pub(super) fn get(&self, id: u32) -> &Entry {
        match self.slot(id) {
            Slot::Full(entry) => entry,
            Slot::Free(_) => panic!("slot {id} is free"),
        }
    }

    /// Mutable access to the entry in slot `id` (panics when free).
    pub(super) fn get_mut(&mut self, id: u32) -> &mut Entry {
        match self.slot_mut(id) {
            Slot::Full(entry) => entry,
            Slot::Free(_) => panic!("slot {id} is free"),
        }
    }

    /// Whether the ordered index holds the entry in slot `id`.
    pub(super) fn is_ordered(&self, id: u32) -> bool {
        self.ordered[id as usize / 64] & (1 << (id % 64)) != 0
    }

    /// Records that the ordered index now holds the entry in slot `id`;
    /// the bit clears when the slot is freed.
    pub(super) fn mark_ordered(&mut self, id: u32) {
        self.ordered[id as usize / 64] |= 1 << (id % 64);
    }

    /// Stores `entry`, returning its slot id; its ordered bit is clear.
    pub(super) fn insert(&mut self, entry: Entry) -> u32 {
        self.len += 1;
        if self.free != NIL {
            let id = self.free;
            let slot = self.slot_mut(id);
            if let Slot::Free(next) = *slot {
                *slot = Slot::Full(entry);
                self.free = next;
                return id;
            }
            unreachable!("free list names full slot {id}");
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
            self.ordered.extend([0; CHUNK_WORDS]);
        }
        let chunk = self.chunks.len() - 1;
        let last = &mut self.chunks[chunk];
        let id = (chunk << CHUNK_BITS) + last.len();
        assert!(id < NIL as usize, "range-cache shard out of slot ids");
        last.push(Slot::Full(entry));
        id as u32
    }

    /// Empties slot `id` and returns what it held and whether the ordered
    /// index held it (panics when free).
    pub(super) fn remove(&mut self, id: u32) -> (Entry, bool) {
        let next = self.free;
        match std::mem::replace(self.slot_mut(id), Slot::Free(next)) {
            Slot::Full(entry) => {
                let ordered = self.is_ordered(id);
                self.ordered[id as usize / 64] &= !(1 << (id % 64));
                self.free = id;
                self.len -= 1;
                (entry, ordered)
            }
            Slot::Free(_) => panic!("slot {id} is free"),
        }
    }

    /// Every resident entry with its id, in id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u32, &Entry)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| match slot {
                    Slot::Full(entry) => Some((((c << CHUNK_BITS) + i) as u32, entry)),
                    Slot::Free(_) => None,
                })
        })
    }

    /// Drops every entry and releases the chunks.
    pub(super) fn clear(&mut self) {
        *self = Slab::new();
    }
}

#[derive(Clone, Copy)]
struct Bucket {
    /// Low 32 bits of the key's hash; also gives the home position.
    tag: u32,
    slot: u32,
}

const EMPTY: Bucket = Bucket { tag: 0, slot: NIL };
const MIN_BUCKETS: usize = 16;

/// Hash index from key to slot id: linear probing over a power-of-two
/// table kept at most three-quarters full, deletion by backward shift (no
/// tombstones). The caller hashes the key and decides what matches, so the
/// index holds no keys. The table doubles when full — at 8 bytes a bucket
/// the transient old-plus-new copy is about 16 bytes per entry — and
/// rebuilds from the stored tags without rehashing a key.
pub(super) struct HashIndex {
    buckets: Vec<Bucket>,
    len: usize,
}

impl HashIndex {
    pub(super) fn new() -> Self {
        HashIndex {
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed slots.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The slot whose key hashes to `hash` and satisfies `is_match`.
    pub(super) fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let tag = hash as u32;
        let mut i = tag as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.slot == NIL {
                return None;
            }
            if b.tag == tag && is_match(b.slot) {
                return Some(b.slot);
            }
            i = (i + 1) & mask;
        }
    }

    fn place(buckets: &mut [Bucket], bucket: Bucket) {
        let mask = buckets.len() - 1;
        let mut i = bucket.tag as usize & mask;
        while buckets[i].slot != NIL {
            i = (i + 1) & mask;
        }
        buckets[i] = bucket;
    }

    /// Indexes `slot` under `hash`. The key must not be indexed already.
    pub(super) fn insert(&mut self, hash: u64, slot: u32) {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            let grown = (self.buckets.len() * 2).max(MIN_BUCKETS);
            let mut buckets = vec![EMPTY; grown];
            for &b in self.buckets.iter().filter(|b| b.slot != NIL) {
                Self::place(&mut buckets, b);
            }
            self.buckets = buckets;
        }
        let tag = hash as u32;
        Self::place(&mut self.buckets, Bucket { tag, slot });
        self.len += 1;
    }

    /// Removes `slot`, indexed under `hash`. Panics when it is not there.
    pub(super) fn remove(&mut self, hash: u64, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = hash as u32 as usize & mask;
        while self.buckets[hole].slot != slot {
            assert!(self.buckets[hole].slot != NIL, "slot {slot} is not indexed");
            hole = (hole + 1) & mask;
        }
        // Backward shift: pull later members of the probe run into the
        // hole unless that would move one in front of its home position.
        let mut j = (hole + 1) & mask;
        loop {
            let b = self.buckets[j];
            if b.slot == NIL {
                break;
            }
            let home = b.tag as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }

    /// Forgets every slot and releases the table.
    pub(super) fn clear(&mut self) {
        *self = HashIndex::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn entry(i: u32) -> Entry {
        Entry {
            key: Arc::from(format!("k{i}").as_bytes()),
            value: Bytes::from(format!("v{i}")),
        }
    }

    #[test]
    fn slab_recycles_ids_and_spans_chunks() {
        let mut slab = Slab::new();
        let n = (2 * CHUNK + 5) as u32;
        for i in 0..n {
            assert_eq!(slab.insert(entry(i)), i);
        }
        assert_eq!(slab.len(), n as usize);
        assert_eq!(&*slab.get(CHUNK as u32 + 1).key, b"k1025");
        assert_eq!(std::mem::size_of::<Slot>(), 48);
        slab.mark_ordered(7);
        assert!(slab.is_ordered(7) && !slab.is_ordered(8));
        assert_eq!(slab.remove(7).0.value, "v7");
        assert!(!slab.is_ordered(7), "a freed slot keeps no ordered bit");
        assert_eq!(slab.remove(CHUNK as u32).0.value, "v1024");
        // Last freed, first reused.
        assert_eq!(slab.insert(entry(9000)), CHUNK as u32);
        assert_eq!(slab.insert(entry(9001)), 7);
        assert_eq!(slab.insert(entry(9002)), n);
        slab.get_mut(7).value = Bytes::from("changed");
        assert_eq!(slab.get(7).value, "changed");
        assert_eq!(slab.iter().count(), slab.len());
        slab.mark_ordered(0);
        slab.clear();
        assert_eq!(slab.len(), 0);
        assert_eq!(slab.insert(entry(1)), 0);
        assert!(!slab.is_ordered(0));
    }

    #[test]
    #[should_panic(expected = "slot 3 is free")]
    fn slab_refuses_a_freed_id() {
        let mut slab = Slab::new();
        for i in 0..5 {
            slab.insert(entry(i));
        }
        slab.remove(3);
        slab.get(3);
    }

    /// Random inserts and removes against a `HashMap`, with hashes drawn
    /// from a small range so probe runs collide, wrap and shift.
    #[test]
    fn index_matches_a_hash_map_under_colliding_hashes() {
        let mut index = HashIndex::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let slot = (rand() % 512) as u32;
            match model.remove(&slot) {
                Some(hash) => index.remove(hash, slot),
                None => {
                    // 40 distinct hashes, many of them at the table's end.
                    let hash = (rand() % 40).wrapping_mul(0x0FFF_FFFF);
                    index.insert(hash, slot);
                    model.insert(slot, hash);
                }
            }
            assert_eq!(index.len(), model.len());
        }
        for (&slot, &hash) in &model {
            assert_eq!(index.find(hash, |s| s == slot), Some(slot));
        }
        assert_eq!(index.find(12345, |_| true), None);
        index.clear();
        assert_eq!(index.find(0, |_| true), None);
    }
}
