//! The in-memory write buffer.
//!
//! Writes (puts and deletes) land in the memtable first; when its byte
//! footprint crosses the configured threshold it is frozen and flushed to a
//! Level-0 SSTable. Deletes are recorded as tombstones so they shadow older
//! on-disk versions until compaction discards them.
//!
//! Every byte lives in the arena of a skiplist (`skiplist.rs`), and the
//! charge is `key + value + 16` a key whatever that arena really holds. So
//! reads copy out: [`get`] and [`iter_from`] return owned entries, and a
//! value a cache keeps is an exact-size allocation of its own that pins no
//! arena chunk. Only flush reads in place, through [`iter`].
//!
//! [`get`]: MemTable::get
//! [`iter_from`]: MemTable::iter_from
//! [`iter`]: MemTable::iter

use crate::skiplist::SkipList;
use crate::types::{Entry, Key, KeyEntry, Value};
use bytes::Bytes;

/// A sorted in-memory buffer of the newest writes.
pub struct MemTable {
    list: SkipList,
    bytes: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable {
            list: SkipList::new(),
            bytes: 0,
        }
    }

    /// Inserts or overwrites `key`.
    pub fn put(&mut self, key: Key, value: Value) {
        self.apply(&key, Some(&value));
    }

    /// Records a deletion of `key`.
    pub fn delete(&mut self, key: Key) {
        self.apply(&key, None);
    }

    /// Writes `value` for `key`, or a tombstone for `None`, from borrowed
    /// bytes (the memtable copies what it keeps).
    pub(crate) fn apply(&mut self, key: &[u8], value: Option<&[u8]>) {
        let charge = value.map_or(0, <[u8]>::len);
        match self.list.insert(key, value) {
            // Replacement: the key and per-node overhead stay charged; only
            // the value payload delta applies.
            Some(old) => self.bytes = self.bytes.saturating_sub(old) + charge,
            None => self.bytes += key.len() + charge + 16,
        }
    }

    /// Looks up the newest entry for `key`, if the memtable holds one.
    /// `Some(Entry::Tombstone)` means "deleted — stop searching".
    pub fn get(&self, key: &[u8]) -> Option<Entry> {
        self.list.get(key).map(|value| match value {
            Some(v) => Entry::Put(Bytes::copy_from_slice(v)),
            None => Entry::Tombstone,
        })
    }

    /// Iterates entries with keys `>= from` in ascending order, each copied
    /// out of the arena.
    pub fn iter_from<'a>(&'a self, from: &[u8]) -> impl Iterator<Item = KeyEntry> + 'a {
        self.list.iter_from(from).map(|(key, value)| KeyEntry {
            key: Bytes::copy_from_slice(key),
            entry: value.map_or(Entry::Tombstone, |v| Entry::Put(Bytes::copy_from_slice(v))),
        })
    }

    /// Iterates every entry in ascending order, in place: the key and the
    /// value (`None` for a tombstone). Flush feeds these to the table
    /// builder without copying them.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> + '_ {
        self.list.iter()
    }

    /// Approximate memory footprint in bytes: `key + value + 16` for each
    /// key, the value's length following overwrites.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Arena bytes that overwrites of unequal length left behind, which the
    /// charge no longer counts but the arena holds until the memtable is
    /// dropped. The engine seals on `approximate_bytes() + stranded_bytes()`,
    /// so rewriting one key at changing lengths cannot grow it without bound.
    pub fn stranded_bytes(&self) -> usize {
        self.list.stranded()
    }

    /// Heap bytes the memtable really holds: its arena, stranded bytes
    /// included, and its node and tower vectors.
    pub fn heap_bytes(&self) -> usize {
        self.list.heap_bytes()
    }

    /// Number of distinct keys buffered.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.list.len() == 0
    }
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete() {
        let mut m = MemTable::new();
        assert!(m.is_empty());
        m.put(b("k1"), b("v1"));
        m.put(b("k2"), b("v2"));
        assert_eq!(m.get(b"k1"), Some(Entry::Put(b("v1"))));
        assert_eq!(m.len(), 2);

        m.delete(b("k1"));
        assert_eq!(m.get(b"k1"), Some(Entry::Tombstone));
        assert_eq!(m.get(b"k3"), None);
        // Tombstone replaces, does not add a key.
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = MemTable::new();
        m.put(b("k"), b("old"));
        m.put(b("k"), b("new"));
        assert_eq!(m.get(b"k").unwrap().value().unwrap().as_ref(), b"new");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn bytes_follow_the_charge_formula() {
        let mut m = MemTable::new();
        m.put(b("key"), Bytes::from(vec![0u8; 1000]));
        assert_eq!(m.approximate_bytes(), 3 + 1000 + 16);
        m.put(b("key"), b("short"));
        assert_eq!(m.approximate_bytes(), 3 + 5 + 16);
        m.delete(b("key"));
        assert_eq!(m.approximate_bytes(), 3 + 16);
        m.delete(b("other"));
        assert_eq!(m.approximate_bytes(), 3 + 16 + 5 + 16);
        // The charge forgot the 1000-byte record; the stranded count did not.
        assert_eq!(m.stranded_bytes(), 3 + 1000);
    }

    #[test]
    fn reads_copy_out_of_the_arena() {
        let mut m = MemTable::new();
        m.put(b("k"), b("v1"));
        let got = m.get(b"k").unwrap();
        let scanned = m.iter_from(b"").next().unwrap();
        // An overwrite in place changes neither copy.
        m.put(b("k"), b("v2"));
        assert_eq!(got, Entry::Put(b("v1")));
        assert_eq!(scanned.entry, Entry::Put(b("v1")));
        assert_eq!(m.get(b"k"), Some(Entry::Put(b("v2"))));
    }

    #[test]
    fn iteration_is_sorted_and_seekable() {
        let mut m = MemTable::new();
        for k in ["d", "a", "c", "b"] {
            m.put(b(k), b("v"));
        }
        m.delete(b("e"));
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"d", b"e"]);
        assert_eq!(m.iter().last(), Some((&b"e"[..], None)));
        let keys: Vec<_> = m.iter_from(b"b9").map(|ke| ke.key).collect();
        assert_eq!(keys, vec![b("c"), b("d"), b("e")]);
    }
}
