//! Where a range-cache shard keeps its entries: a chunked slab of slots
//! and an open-addressing hash index from key bytes to slot id.
//!
//! Both are sized for honest memory accounting. The slab grows one fixed
//! chunk at a time, so growing never copies resident entries and never
//! holds an old and a doubled buffer at once. Beside the chunks it keeps
//! one bit per slot: whether a covered segment lists the entry, so an entry
//! no segment lists leaves without a search. A slot is 56 bytes: a 32-byte
//! key field and the value's 24-byte handle. A key of up to [`IN_PLACE`]
//! bytes lives in the field itself, covered or not; a longer key is one
//! allocation of its own. Nothing else holds a key: the segments list slot
//! ids, and the index stores 8 bytes per bucket (a 32-bit hash tag and the
//! slot id) and finds the key itself in the slab.

use adcache_lsm::heap;
use bytes::Bytes;
use std::ops::Deref;
use std::sync::Arc;

/// "No slot": list terminator and empty-bucket marker.
pub(super) const NIL: u32 = u32::MAX;

const CHUNK_BITS: u32 = 10;
/// Slots per slab chunk (56 KiB of slots).
const CHUNK: usize = 1 << CHUNK_BITS;
/// Words of the covered bits per chunk.
const CHUNK_WORDS: usize = CHUNK / 64;

/// The longest key a slot stores in place: its 32-byte key field less the
/// variant tag and the length byte.
pub(super) const IN_PLACE: usize = 30;

/// A slot's key: in place when it fits, otherwise the whole of one
/// allocation (shared with the buffer it came from when the key spans all
/// of it).
pub(super) enum SlotKey {
    InPlace { len: u8, bytes: [u8; IN_PLACE] },
    Shared(Arc<[u8]>),
}

impl SlotKey {
    /// `key` in place when it fits, else its allocation (the same one
    /// when `key` spans all of its buffer).
    pub(super) fn new(key: Bytes) -> Self {
        Self::in_place(&key).unwrap_or_else(|| SlotKey::Shared(key.into()))
    }

    /// A copy of `key`: in place when it fits, else one new allocation.
    pub(super) fn copy_of(key: &[u8]) -> Self {
        Self::in_place(key).unwrap_or_else(|| SlotKey::Shared(Arc::from(key)))
    }

    fn in_place(key: &[u8]) -> Option<Self> {
        let mut bytes = [0; IN_PLACE];
        bytes.get_mut(..key.len())?.copy_from_slice(key);
        Some(SlotKey::InPlace {
            len: key.len() as u8,
            bytes,
        })
    }

    /// The key's allocation, if it has one.
    pub(super) fn shared(&self) -> Option<&Arc<[u8]>> {
        match self {
            SlotKey::Shared(key) => Some(key),
            SlotKey::InPlace { .. } => None,
        }
    }

    /// Heap bytes of the key: its allocation, or none in place.
    pub(super) fn heap_bytes(&self) -> usize {
        self.shared().map_or(0, |key| heap::arc_bytes(key.len()))
    }
}

impl Deref for SlotKey {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            SlotKey::InPlace { len, bytes } => &bytes[..*len as usize],
            SlotKey::Shared(key) => key,
        }
    }
}

/// One resident key-value pair.
pub(super) struct Entry {
    pub(super) key: SlotKey,
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
    /// One bit per slot id, set while a segment lists its entry; a free
    /// slot's bit is clear.
    covered: Vec<u64>,
    /// Head of the free list.
    free: u32,
    len: usize,
}

impl Slab {
    pub(super) fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            covered: Vec::new(),
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

    /// Whether a segment lists the entry in slot `id`.
    pub(super) fn is_covered(&self, id: u32) -> bool {
        self.covered[id as usize / 64] & (1 << (id % 64)) != 0
    }

    /// Records that a segment now lists the entry in slot `id`; the bit
    /// clears when the slot is freed.
    pub(super) fn mark_covered(&mut self, id: u32) {
        self.covered[id as usize / 64] |= 1 << (id % 64);
    }

    /// Stores `entry`, returning its slot id; its covered bit is clear.
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
            self.covered.extend([0; CHUNK_WORDS]);
        }
        let chunk = self.chunks.len() - 1;
        let last = &mut self.chunks[chunk];
        let id = (chunk << CHUNK_BITS) + last.len();
        assert!(id < NIL as usize, "range-cache shard out of slot ids");
        last.push(Slot::Full(entry));
        id as u32
    }

    /// Empties slot `id` and returns what it held (panics when free).
    pub(super) fn remove(&mut self, id: u32) -> Entry {
        let next = self.free;
        match std::mem::replace(self.slot_mut(id), Slot::Free(next)) {
            Slot::Full(entry) => {
                self.covered[id as usize / 64] &= !(1 << (id % 64));
                self.free = id;
                self.len -= 1;
                entry
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

    /// Heap bytes of the chunks and the covered bits (in-place keys
    /// included; longer keys and the values are allocations of their own).
    pub(super) fn heap_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(heap::vec).sum();
        chunks + heap::vec(&self.chunks) + heap::vec(&self.covered)
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

    /// Heap bytes of the bucket array.
    pub(super) fn heap_bytes(&self) -> usize {
        heap::vec(&self.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn entry(i: u32) -> Entry {
        Entry {
            key: SlotKey::new(Bytes::from(format!("k{i}"))),
            value: Bytes::from(format!("v{i}")),
        }
    }

    #[test]
    fn only_keys_longer_than_the_field_take_an_allocation() {
        assert_eq!(std::mem::size_of::<SlotKey>(), 32);
        assert_eq!(std::mem::size_of::<Entry>(), 56);
        let fits = Bytes::from(vec![b'a'; IN_PLACE]);
        for key in [SlotKey::new(fits.clone()), SlotKey::copy_of(&fits)] {
            assert!(key.shared().is_none());
            assert_eq!((&*key, key.heap_bytes()), (&fits[..], 0));
        }
        // One byte longer is an allocation: the caller's buffer when the key
        // spans it, a copy of a slice.
        let long = Bytes::from(vec![b'b'; IN_PLACE + 1]);
        let key = SlotKey::new(long.clone());
        assert_eq!(key.shared().unwrap().as_ptr(), long.as_ptr());
        let copy = SlotKey::copy_of(&long);
        assert_ne!(copy.shared().unwrap().as_ptr(), long.as_ptr());
        assert_eq!(
            (&*copy, copy.heap_bytes()),
            (&long[..], heap::arc_bytes(IN_PLACE + 1))
        );
        assert_eq!(&*SlotKey::new(Bytes::new()), b"");
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
        assert_eq!(std::mem::size_of::<Slot>(), 56);
        slab.mark_covered(7);
        assert!(slab.is_covered(7) && !slab.is_covered(8));
        assert_eq!(slab.remove(7).value, "v7");
        assert!(!slab.is_covered(7), "a freed slot keeps no covered bit");
        assert_eq!(slab.remove(CHUNK as u32).value, "v1024");
        // Last freed, first reused.
        assert_eq!(slab.insert(entry(9000)), CHUNK as u32);
        assert_eq!(slab.insert(entry(9001)), 7);
        assert_eq!(slab.insert(entry(9002)), n);
        slab.get_mut(7).value = Bytes::from("changed");
        assert_eq!(slab.get(7).value, "changed");
        assert_eq!(slab.iter().count(), slab.len());
        slab.mark_covered(0);
        slab.clear();
        assert_eq!(slab.len(), 0);
        assert_eq!(slab.insert(entry(1)), 0);
        assert!(!slab.is_covered(0));
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
