//! The memtable's ordered map: a deterministic arena skiplist from byte-string
//! keys to values or tombstones.
//!
//! Key and value bytes are appended, one record (key then value) after the
//! other, to fixed 64 KiB chunks; a record larger than a chunk gets an
//! exact-size chunk of its own. Each node is a fixed 20-byte record naming
//! its chunk, offset, key length, value length and tower, all nodes live in
//! one `Vec`, and all towers in one shared `Vec<u32>`. An entry therefore
//! costs its bytes plus about 25 B of bookkeeping, and the heap is touched
//! only when a chunk or one of the two vectors grows.
//!
//! Nothing is freed before the list is dropped. An overwrite whose value has
//! the length of the node's value slot writes in place, and a delete only
//! marks the node (the slot stays its own); any other overwrite appends a
//! new record and repoints the node, stranding the old one. The list counts
//! the bytes it strands ([`SkipList::stranded`]) so the memtable can seal on
//! them.
//!
//! Links are indices into the arena, which keeps the list free of `unsafe`,
//! and tower heights come from a seeded xorshift generator, so a list's
//! shape (and a test failure) reproduces exactly. The list is not
//! synchronized; the engine guards each memtable with its stripe's lock.

use crate::heap;

/// Bytes per arena chunk.
const CHUNK: usize = 64 << 10;
const MAX_HEIGHT: usize = 12;
const NIL: u32 = u32::MAX;
/// Probability (as a divisor) of growing a tower by one level: 1/4.
const BRANCHING: u64 = 4;
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Set in [`Node::value_len`] when the node is a tombstone; the low bits
/// keep the length of the value slot the node still owns.
const TOMBSTONE: u32 = 1 << 31;

/// Where one entry's record and tower are.
#[derive(Debug, Clone, Copy)]
struct Node {
    chunk: u32,
    /// Start of the record: `key_len` key bytes, then the value slot.
    offset: u32,
    key_len: u32,
    /// Length of the value slot, `| TOMBSTONE` for a deleted key.
    value_len: u32,
    /// Index of `next[0]` in [`SkipList::towers`]; `next[h]` is `h` after it.
    tower: u32,
}

/// A deterministic ordered map from byte-string keys to a value (`Some`) or
/// a tombstone (`None`), with every byte in an arena.
pub(crate) struct SkipList {
    chunks: Vec<Vec<u8>>,
    /// The chunk records are appended to while they fit; when one does not
    /// (or no chunk exists yet), a fresh one takes its place.
    open: usize,
    nodes: Vec<Node>,
    towers: Vec<u32>,
    /// `head[h]` is the first node at height `h`.
    head: [u32; MAX_HEIGHT],
    rng_state: u64,
    /// Arena bytes of records no node points at any more.
    stranded: usize,
}

impl SkipList {
    /// Creates an empty list.
    pub(crate) fn new() -> Self {
        SkipList {
            chunks: Vec::new(),
            open: 0,
            nodes: Vec::new(),
            towers: Vec::new(),
            head: [NIL; MAX_HEIGHT],
            rng_state: SEED,
            stranded: 0,
        }
    }

    /// Number of distinct keys, tombstones included.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Arena bytes held by records that overwrites of unequal length left
    /// behind: held until the list is dropped, read by nothing.
    pub(crate) fn stranded(&self) -> usize {
        self.stranded
    }

    /// Heap bytes the list holds: every chunk, the chunk list, the node
    /// and tower vectors.
    pub(crate) fn heap_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(heap::vec).sum();
        chunks + heap::vec(&self.chunks) + heap::vec(&self.nodes) + heap::vec(&self.towers)
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*
        let mut h = 1;
        loop {
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            if h >= MAX_HEIGHT || !self.rng_state.is_multiple_of(BRANCHING) {
                break;
            }
            h += 1;
        }
        h
    }

    /// Key of node `idx`.
    fn key(&self, idx: u32) -> &[u8] {
        let node = &self.nodes[idx as usize];
        let start = node.offset as usize;
        &self.chunks[node.chunk as usize][start..start + node.key_len as usize]
    }

    /// Key and value (`None`: tombstone) of node `idx`.
    fn entry(&self, idx: u32) -> (&[u8], Option<&[u8]>) {
        let node = &self.nodes[idx as usize];
        let record = &self.chunks[node.chunk as usize][node.offset as usize..];
        let (key, slot) = record.split_at(node.key_len as usize);
        let value = (node.value_len & TOMBSTONE == 0).then(|| &slot[..node.value_len as usize]);
        (key, value)
    }

    /// Successor of `pred` at `level`; `pred == NIL` is the head.
    fn next(&self, pred: u32, level: usize) -> u32 {
        if pred == NIL {
            self.head[level]
        } else {
            self.towers[self.nodes[pred as usize].tower as usize + level]
        }
    }

    fn set_next(&mut self, pred: u32, level: usize, target: u32) {
        if pred == NIL {
            self.head[level] = target;
        } else {
            let at = self.nodes[pred as usize].tower as usize + level;
            self.towers[at] = target;
        }
    }

    /// For each height, the last node whose key is `< key` (or `NIL` when
    /// the head itself precedes `key` at that height).
    fn find_predecessors(&self, key: &[u8]) -> [u32; MAX_HEIGHT] {
        let mut preds = [NIL; MAX_HEIGHT];
        let mut cur = NIL;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let next = self.next(cur, level);
                if next != NIL && self.key(next) < key {
                    cur = next;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        preds
    }

    /// The node holding `key`, if any.
    fn find(&self, key: &[u8]) -> Option<u32> {
        let candidate = self.next(self.find_predecessors(key)[0], 0);
        (candidate != NIL && self.key(candidate) == key).then_some(candidate)
    }

    /// Appends `key` then `value` as one record; returns `(chunk, offset)`.
    fn append(&mut self, key: &[u8], value: &[u8]) -> (u32, u32) {
        let need = key.len() + value.len();
        let fits = self
            .chunks
            .get(self.open)
            .is_some_and(|c| c.capacity() - c.len() >= need);
        let chunk = if fits {
            self.open
        } else {
            self.chunks.push(Vec::with_capacity(need.max(CHUNK)));
            if need <= CHUNK {
                self.open = self.chunks.len() - 1;
            }
            self.chunks.len() - 1
        };
        let bytes = &mut self.chunks[chunk];
        let offset = bytes.len();
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        (chunk as u32, offset as u32)
    }

    /// Puts `key -> value` (`None`: a tombstone). Returns the length of the
    /// value it replaced (0 for a tombstone), or `None` for a new key.
    pub(crate) fn insert(&mut self, key: &[u8], value: Option<&[u8]>) -> Option<usize> {
        let value_len = match value {
            Some(v) => {
                assert!(v.len() < TOMBSTONE as usize, "value of {} bytes", v.len());
                v.len() as u32
            }
            None => TOMBSTONE,
        };
        let preds = self.find_predecessors(key);
        let candidate = self.next(preds[0], 0);
        if candidate != NIL && self.key(candidate) == key {
            let node = self.nodes[candidate as usize];
            let slot = node.value_len & !TOMBSTONE;
            match value {
                None => self.nodes[candidate as usize].value_len |= TOMBSTONE,
                Some(v) if value_len == slot => {
                    let start = (node.offset + node.key_len) as usize;
                    self.chunks[node.chunk as usize][start..start + v.len()].copy_from_slice(v);
                    self.nodes[candidate as usize].value_len = value_len;
                }
                Some(v) => {
                    self.stranded += (node.key_len + slot) as usize;
                    let (chunk, offset) = self.append(key, v);
                    let node = &mut self.nodes[candidate as usize];
                    (node.chunk, node.offset, node.value_len) = (chunk, offset, value_len);
                }
            }
            let was_put = node.value_len & TOMBSTONE == 0;
            return Some(if was_put { slot as usize } else { 0 });
        }

        let height = self.random_height();
        let (chunk, offset) = self.append(key, value.unwrap_or_default());
        let idx = self.nodes.len() as u32;
        let tower = self.towers.len() as u32;
        for (level, &pred) in preds.iter().enumerate().take(height) {
            let succ = self.next(pred, level);
            self.towers.push(succ);
        }
        self.nodes.push(Node {
            chunk,
            offset,
            key_len: key.len() as u32,
            value_len,
            tower,
        });
        for (level, &pred) in preds.iter().enumerate().take(height) {
            self.set_next(pred, level, idx);
        }
        None
    }

    /// Looks up `key`: `Some(None)` is a tombstone.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.find(key).map(|idx| self.entry(idx).1)
    }

    /// Iterates over all entries in ascending key order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            list: self,
            cur: self.head[0],
        }
    }

    /// Iterates over entries with keys `>= from`, ascending.
    pub(crate) fn iter_from(&self, from: &[u8]) -> Iter<'_> {
        Iter {
            list: self,
            cur: self.next(self.find_predecessors(from)[0], 0),
        }
    }
}

/// Ascending iterator over a [`SkipList`]: borrowed key and value slices.
pub(crate) struct Iter<'a> {
    list: &'a SkipList,
    cur: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let entry = self.list.entry(self.cur);
        self.cur = self.list.next(self.cur, 0);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(l: &SkipList) -> Vec<&[u8]> {
        l.iter().map(|(k, _)| k).collect()
    }

    /// Bytes appended to the arena so far.
    fn arena_len(l: &SkipList) -> usize {
        l.chunks.iter().map(Vec::len).sum()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut l = SkipList::new();
        assert_eq!(l.insert(b"b", Some(b"2")), None);
        assert_eq!(l.insert(b"a", Some(b"1")), None);
        assert_eq!(l.insert(b"c", None), None);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(b"a"), Some(Some(&b"1"[..])));
        assert_eq!(l.get(b"b"), Some(Some(&b"2"[..])));
        assert_eq!(l.get(b"c"), Some(None));
        assert_eq!(l.get(b"d"), None);
        assert_eq!(keys(&l), [b"a", b"b", b"c"]);
    }

    #[test]
    fn iter_from_seeks_to_lower_bound() {
        let mut l = SkipList::new();
        for k in ["e", "a", "c"] {
            l.insert(k.as_bytes(), Some(b""));
        }
        let from = |k: &[u8]| l.iter_from(k).map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(from(b"b"), [b"c", b"e"]);
        assert_eq!(from(b"c"), [b"c", b"e"]);
        assert!(from(b"f").is_empty());
        assert_eq!(from(b""), [b"a", b"c", b"e"]);
    }

    #[test]
    fn equal_length_overwrites_and_deletes_write_in_place() {
        let mut l = SkipList::new();
        l.insert(b"key", Some(b"aaaa"));
        let used = arena_len(&l);
        assert_eq!(l.insert(b"key", Some(b"bbbb")), Some(4));
        assert_eq!(l.insert(b"key", None), Some(4));
        assert_eq!(l.get(b"key"), Some(None));
        // A tombstone charges nothing but keeps its slot.
        assert_eq!(l.insert(b"key", Some(b"cccc")), Some(0));
        assert_eq!(l.get(b"key"), Some(Some(&b"cccc"[..])));
        assert_eq!(arena_len(&l), used, "nothing appended");
        assert_eq!(l.stranded(), 0);
        // A longer value is a new record; the old one, key and slot, is
        // stranded.
        assert_eq!(l.insert(b"key", Some(b"ddddd")), Some(4));
        assert_eq!(arena_len(&l), used + 3 + 5);
        assert_eq!(l.stranded(), 3 + 4);
        assert_eq!(l.get(b"key"), Some(Some(&b"ddddd"[..])));
        assert_eq!(l.len(), 1);
        // A tombstone keeps its slot, so a shorter value after it strands
        // that slot too.
        l.insert(b"key", None);
        l.insert(b"key", Some(b"e"));
        assert_eq!(l.stranded(), 3 + 4 + 3 + 5);
        assert_eq!(arena_len(&l) - l.stranded(), 3 + 1, "live bytes");
    }

    #[test]
    fn a_record_larger_than_a_chunk_gets_a_chunk_of_its_own() {
        let mut l = SkipList::new();
        l.insert(b"a", Some(b"small"));
        let big = vec![7u8; CHUNK + 1];
        l.insert(b"b", Some(&big));
        l.insert(b"c", Some(b"small"));
        assert_eq!(l.chunks.len(), 2);
        assert_eq!(l.chunks[1].capacity(), CHUNK + 2, "exact size");
        assert_eq!(l.chunks[0].len(), 2 * 6, "the open chunk keeps filling");
        assert_eq!(l.get(b"b"), Some(Some(&big[..])));
        assert_eq!(l.get(b"c"), Some(Some(&b"small"[..])));
    }

    #[test]
    fn records_fill_one_chunk_before_the_next() {
        let mut l = SkipList::new();
        let value = [b'v'; 100];
        for i in 0..2_000u32 {
            l.insert(format!("user{i:020}").as_bytes(), Some(&value));
        }
        // 124-byte records: 528 per chunk.
        assert_eq!(l.chunks.len(), 2_000usize.div_ceil(CHUNK / 124));
        assert!(l.chunks.iter().all(|c| c.capacity() == CHUNK));
    }
}
