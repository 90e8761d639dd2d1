//! Core value types shared across the engine.

use bytes::Bytes;

/// A user key. Keys are arbitrary byte strings ordered lexicographically.
pub type Key = Bytes;

/// A user value.
pub type Value = Bytes;

/// Identifier of an SSTable file. Monotonically increasing; newer files have
/// larger ids, which doubles as the recency priority for Level-0 runs.
pub type FileId = u64;

/// A single logical entry: a value, or a tombstone marking deletion.
///
/// Tombstones are retained through compactions until they reach the bottom
/// level of the tree (where no older version can exist below them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A live value.
    Put(Value),
    /// A deletion marker.
    Tombstone,
}

impl Entry {
    /// Returns the live value, or `None` for a tombstone.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Entry::Put(v) => Some(v),
            Entry::Tombstone => None,
        }
    }

    /// Returns `true` if this entry is a deletion marker.
    pub fn is_tombstone(&self) -> bool {
        matches!(self, Entry::Tombstone)
    }
}

/// A key paired with its entry, the unit flowing through iterators and
/// compaction merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyEntry {
    /// The user key.
    pub key: Key,
    /// The value or tombstone.
    pub entry: Entry,
}

impl KeyEntry {
    /// Creates a live key-value pair.
    pub fn put(key: impl Into<Key>, value: impl Into<Value>) -> Self {
        KeyEntry {
            key: key.into(),
            entry: Entry::Put(value.into()),
        }
    }

    /// Creates a tombstone for `key`.
    pub fn tombstone(key: impl Into<Key>) -> Self {
        KeyEntry {
            key: key.into(),
            entry: Entry::Tombstone,
        }
    }
}

/// Reference to a physical data block: `(file, index-within-file)`.
///
/// This is the block cache's key type: compactions delete whole files, so
/// invalidation is a per-`FileId` sweep, exactly as in RocksDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Owning SSTable file.
    pub file: FileId,
    /// Zero-based block index within the file.
    pub block_no: u32,
}

impl BlockRef {
    /// Convenience constructor.
    pub fn new(file: FileId, block_no: u32) -> Self {
        BlockRef { file, block_no }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_accessors() {
        let e = Entry::Put(Bytes::from_static(b"v"));
        assert_eq!(e.value().unwrap().as_ref(), b"v");
        assert!(!e.is_tombstone());

        let t = Entry::Tombstone;
        assert!(t.value().is_none());
        assert!(t.is_tombstone());
    }

    #[test]
    fn key_entry_constructors() {
        let p = KeyEntry::put(&b"k"[..], &b"v"[..]);
        assert_eq!(p.key.as_ref(), b"k");
        assert_eq!(p.entry, Entry::Put(Bytes::from_static(b"v")));
        let t = KeyEntry::tombstone(&b"k"[..]);
        assert!(t.entry.is_tombstone());
    }

    #[test]
    fn block_ref_ordering_and_hash() {
        let a = BlockRef::new(1, 0);
        let b = BlockRef::new(1, 1);
        let c = BlockRef::new(2, 0);
        assert!(a < b && b < c);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&BlockRef::new(1, 0)));
    }
}
