//! Data-block encoding with prefix compression and restart points.
//!
//! Blocks follow the classic LevelDB/RocksDB layout: entries are stored in
//! key order, each key sharing a prefix with its predecessor; every
//! `restart_interval` entries the prefix resets, and the offsets of these
//! restart points are appended as a trailer so lookups can binary-search the
//! restart array and then scan at most one interval.
//!
//! Entry wire format:
//! ```text
//! shared:u16 | unshared:u16 | vlen:u32 | kind:u8 | key[unshared] | value[vlen]
//! ```
//! Trailer: `restart_offset:u32 × n | n:u32 | crc32:u32` — the checksum
//! covers everything before it, so storage bit-rot is detected at decode
//! time rather than surfacing as silently wrong query results.

use crate::crc::crc32;
use crate::error::{LsmError, Result};
use crate::types::{Entry, KeyEntry};
use bytes::Bytes;

const KIND_PUT: u8 = 0;
const KIND_TOMBSTONE: u8 = 1;
const HEADER: usize = 2 + 2 + 4 + 1;

/// Builds one encoded data block from entries added in ascending key order.
pub struct BlockBuilder {
    /// The encoding so far. `Bytes::from` copies the finished block once,
    /// into an exact-size `Arc<[u8]>`, which cannot adopt a `Vec`'s
    /// allocation.
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    num_entries: u32,
}

impl BlockBuilder {
    /// Creates a builder; `restart_interval` keys share each prefix run.
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Appends an entry. Keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], entry: &Entry) -> Result<()> {
        self.add_value(key, entry.value().map(|v| v.as_ref()))
    }

    /// [`add`](Self::add) from borrowed bytes: `None` appends a tombstone.
    pub fn add_value(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if self.num_entries > 0 && key <= self.last_key.as_slice() {
            return Err(LsmError::InvalidArgument(format!(
                "keys must be strictly ascending; got {:?} after {:?}",
                String::from_utf8_lossy(key),
                String::from_utf8_lossy(&self.last_key)
            )));
        }
        let shared = if self.count_since_restart == self.restart_interval {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        } else {
            common_prefix(&self.last_key, key).min(u16::MAX as usize)
        };
        let unshared = key.len() - shared;
        let (kind, value) = match value {
            Some(v) => (KIND_PUT, v),
            None => (KIND_TOMBSTONE, &[][..]),
        };
        self.buf.extend_from_slice(&(shared as u16).to_le_bytes());
        self.buf.extend_from_slice(&(unshared as u16).to_le_bytes());
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buf.push(kind);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.num_entries += 1;
        Ok(())
    }

    /// Encoded size so far, including the trailer that `finish` will append.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4 + 4
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u32 {
        self.num_entries
    }

    /// Whether nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Appends the trailer (restart array, count, checksum of the block)
    /// and returns the encoded bytes, which are also the stored bytes.
    pub fn finish(mut self) -> Bytes {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        Bytes::from(self.buf)
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A decoded, immutable data block.
///
/// The block is a view of the encoded bytes it was decoded from (shared
/// with the storage layer via [`Bytes`]); the restart array is read in
/// place and entries are materialized only when a cursor yields them.
#[derive(Debug, Clone)]
pub struct Block {
    /// The encoding without its checksum.
    data: Bytes,
    /// Where the entries stop and the restart array starts.
    entries_end: usize,
    num_restarts: usize,
}

impl Block {
    /// Parses an encoded block, validating the checksum and trailer.
    pub fn decode(data: Bytes) -> Result<Self> {
        if data.len() < 8 {
            return Err(LsmError::Corruption("block shorter than trailer".into()));
        }
        // Verify and strip the checksum.
        let body_len = data.len() - 4;
        let want = u32::from_le_bytes(data[body_len..].try_into().unwrap());
        if crc32(&data[..body_len]) != want {
            return Err(LsmError::Corruption("block checksum mismatch".into()));
        }
        let data = data.slice(..body_len);
        let n = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap()) as usize;
        let trailer = n * 4 + 4;
        if n == 0 || data.len() < trailer {
            return Err(LsmError::Corruption("bad restart count".into()));
        }
        let block = Block {
            entries_end: data.len() - trailer,
            num_restarts: n,
            data,
        };
        if (0..n).any(|i| block.restart(i) > block.entries_end) {
            return Err(LsmError::Corruption("restart offset out of range".into()));
        }
        Ok(block)
    }

    /// Size of the encoded block; used as the cache charge.
    pub fn encoded_len(&self) -> usize {
        self.data.len()
    }

    /// Offset of restart point `idx`, read from the trailer.
    fn restart(&self, idx: usize) -> usize {
        let off = self.entries_end + idx * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Decodes the full key stored at a restart point.
    fn restart_key(&self, restart_idx: usize) -> Result<&[u8]> {
        let header = self.entry_header(self.restart(restart_idx))?;
        if header.shared != 0 {
            return Err(LsmError::Corruption(
                "restart entry has shared prefix".into(),
            ));
        }
        Ok(&self.data[header.key_off..header.key_off + header.unshared])
    }

    fn entry_header(&self, off: usize) -> Result<EntryHeader> {
        if off + HEADER > self.entries_end {
            return Err(LsmError::Corruption("entry header out of range".into()));
        }
        let shared = u16::from_le_bytes(self.data[off..off + 2].try_into().unwrap()) as usize;
        let unshared = u16::from_le_bytes(self.data[off + 2..off + 4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(self.data[off + 4..off + 8].try_into().unwrap()) as usize;
        let kind = self.data[off + 8];
        let key_off = off + HEADER;
        if key_off + unshared + vlen > self.entries_end {
            return Err(LsmError::Corruption("entry payload out of range".into()));
        }
        Ok(EntryHeader {
            shared,
            unshared,
            vlen,
            kind,
            key_off,
        })
    }

    /// Looks up `key`, returning its entry if present in this block.
    pub fn get(&self, key: &[u8]) -> Result<Option<Entry>> {
        let mut cursor = BlockCursor::default();
        if cursor.seek(self, key)? && cursor.key() == key {
            Ok(Some(cursor.entry(self)))
        } else {
            Ok(None)
        }
    }

    /// Iterates all entries in order.
    pub fn iter(&self) -> BlockIter<'_> {
        let mut cursor = BlockCursor::default();
        let on_entry = cursor.first(self);
        BlockIter {
            block: self,
            cursor,
            on_entry,
        }
    }

    /// Iterates entries with keys `>= from`.
    ///
    /// Binary-searches the restart array for the last restart whose key is
    /// `<= from`, then scans forward within that interval.
    pub fn iter_from(&self, from: &[u8]) -> Result<BlockIter<'_>> {
        let mut cursor = BlockCursor::default();
        let on_entry = Ok(cursor.seek(self, from)?);
        Ok(BlockIter {
            block: self,
            cursor,
            on_entry,
        })
    }

    /// First key in the block.
    pub fn first_key(&self) -> Result<Bytes> {
        Ok(Bytes::copy_from_slice(self.restart_key(0)?))
    }

    /// Number of entries (by full scan; used in tests and stats).
    pub fn count_entries(&self) -> usize {
        self.iter().count()
    }
}

/// The fixed-width fields in front of an entry's key and value.
struct EntryHeader {
    shared: usize,
    unshared: usize,
    vlen: usize,
    kind: u8,
    /// Where the unshared key bytes start; the value follows them.
    key_off: usize,
}

/// A position in a [`Block`] that borrows nothing: the block is passed to
/// every call, so a table cursor can own both it and the `Arc<Block>` it
/// walks. The key of the entry under the cursor lives in one reusable
/// buffer; nothing else is allocated until [`BlockCursor::key_entry`].
#[derive(Debug, Default)]
pub struct BlockCursor {
    /// Full key of the entry under the cursor.
    key: Vec<u8>,
    /// Where that entry's value starts, and its length and kind.
    value_off: usize,
    vlen: usize,
    kind: u8,
    /// Offset of the entry after it.
    next: usize,
}

impl BlockCursor {
    /// Puts the cursor in front of the entry at restart point `idx`.
    fn rewind(&mut self, block: &Block, idx: usize) {
        self.key.clear();
        self.next = block.restart(idx);
    }

    /// Moves to the first entry. `false` means the block has none.
    pub fn first(&mut self, block: &Block) -> Result<bool> {
        self.rewind(block, 0);
        self.step(block)
    }

    /// Moves to the first entry with key `>= from`: binary-searches the
    /// restart array for the last restart key `<= from`, then walks that
    /// interval comparing in the key buffer. `false` means no such entry.
    pub fn seek(&mut self, block: &Block, from: &[u8]) -> Result<bool> {
        let (mut lo, mut hi) = (0usize, block.num_restarts);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if block.restart_key(mid)? <= from {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.rewind(block, lo.saturating_sub(1));
        while self.step(block)? {
            if self.key.as_slice() >= from {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Moves to the next entry. `false` means the cursor was on the last.
    pub fn step(&mut self, block: &Block) -> Result<bool> {
        if self.next >= block.entries_end {
            return Ok(false);
        }
        let h = block.entry_header(self.next)?;
        if h.shared > self.key.len() {
            return Err(LsmError::Corruption(
                "shared prefix exceeds previous key".into(),
            ));
        }
        if h.kind != KIND_PUT && h.kind != KIND_TOMBSTONE {
            return Err(LsmError::Corruption(format!(
                "unknown entry kind {}",
                h.kind
            )));
        }
        self.key.truncate(h.shared);
        self.key
            .extend_from_slice(&block.data[h.key_off..h.key_off + h.unshared]);
        self.value_off = h.key_off + h.unshared;
        self.vlen = h.vlen;
        self.kind = h.kind;
        self.next = self.value_off + h.vlen;
        Ok(true)
    }

    /// Key of the entry under the cursor (valid after a call returned
    /// `true`).
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The entry under the cursor; a put's value is a view of the block.
    pub fn entry(&self, block: &Block) -> Entry {
        if self.kind == KIND_PUT {
            Entry::Put(block.data.slice(self.value_off..self.value_off + self.vlen))
        } else {
            Entry::Tombstone
        }
    }

    /// Key and entry under the cursor, the key copied out of the buffer.
    pub fn key_entry(&self, block: &Block) -> KeyEntry {
        KeyEntry {
            key: Bytes::copy_from_slice(&self.key),
            entry: self.entry(block),
        }
    }
}

/// Sequential decoder over a [`Block`].
pub struct BlockIter<'a> {
    block: &'a Block,
    cursor: BlockCursor,
    /// Whether the cursor sits on the entry `next` yields; an error is
    /// yielded once and ends the iteration.
    on_entry: Result<bool>,
}

impl Iterator for BlockIter<'_> {
    type Item = Result<KeyEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        match std::mem::replace(&mut self.on_entry, Ok(false)) {
            Ok(true) => {
                let head = self.cursor.key_entry(self.block);
                self.on_entry = self.cursor.step(self.block);
                Some(Ok(head))
            }
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(entries: &[(&str, Option<&str>)], interval: usize) -> Block {
        let mut b = BlockBuilder::new(interval);
        for (k, v) in entries {
            let e = match v {
                Some(v) => Entry::Put(Bytes::copy_from_slice(v.as_bytes())),
                None => Entry::Tombstone,
            };
            b.add(k.as_bytes(), &e).unwrap();
        }
        Block::decode(b.finish()).unwrap()
    }

    #[test]
    fn roundtrip_with_prefix_compression() {
        let entries: Vec<(String, String)> = (0..100)
            .map(|i| (format!("user{i:06}"), format!("value-{i}")))
            .collect();
        let mut b = BlockBuilder::new(16);
        for (k, v) in &entries {
            b.add(
                k.as_bytes(),
                &Entry::Put(Bytes::copy_from_slice(v.as_bytes())),
            )
            .unwrap();
        }
        assert_eq!(b.num_entries(), 100);
        let block = Block::decode(b.finish()).unwrap();
        let decoded: Vec<_> = block.iter().map(|r| r.unwrap()).collect();
        assert_eq!(decoded.len(), 100);
        for (i, ke) in decoded.iter().enumerate() {
            assert_eq!(ke.key.as_ref(), entries[i].0.as_bytes());
            assert_eq!(ke.entry.value().unwrap().as_ref(), entries[i].1.as_bytes());
        }
        // Prefix compression must actually shrink the encoding.
        let raw: usize = entries
            .iter()
            .map(|(k, v)| k.len() + v.len() + HEADER)
            .sum();
        assert!(block.encoded_len() < raw + 100);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let block = build(&[("a", Some("1")), ("c", Some("3")), ("e", None)], 2);
        assert_eq!(
            block.get(b"a").unwrap(),
            Some(Entry::Put(Bytes::from_static(b"1")))
        );
        assert_eq!(
            block.get(b"c").unwrap(),
            Some(Entry::Put(Bytes::from_static(b"3")))
        );
        assert_eq!(block.get(b"e").unwrap(), Some(Entry::Tombstone));
        assert_eq!(block.get(b"b").unwrap(), None);
        assert_eq!(block.get(b"z").unwrap(), None);
        assert_eq!(block.get(b"").unwrap(), None);
    }

    #[test]
    fn iter_from_seeks_across_restarts() {
        let entries: Vec<(String, String)> = (0..50)
            .map(|i| (format!("k{i:04}"), format!("v{i}")))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .collect();
        let block = build(&refs, 4);
        for probe in [0usize, 1, 3, 4, 17, 48, 49] {
            let from = format!("k{probe:04}");
            let got: Vec<_> = block
                .iter_from(from.as_bytes())
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got.len(), 50 - probe, "seek {from}");
            assert_eq!(got[0].key.as_ref(), from.as_bytes());
        }
        // Seek between keys and past the end.
        let got: Vec<_> = block
            .iter_from(b"k0003x")
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got[0].key.as_ref(), b"k0004");
        assert!(block.iter_from(b"zzz").unwrap().next().is_none());
        // Seek before the first key.
        let got: Vec<_> = block.iter_from(b"a").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn rejects_out_of_order_keys() {
        let mut b = BlockBuilder::new(16);
        b.add(b"b", &Entry::Put(Bytes::from_static(b"1"))).unwrap();
        assert!(b.add(b"a", &Entry::Put(Bytes::from_static(b"2"))).is_err());
        assert!(b.add(b"b", &Entry::Put(Bytes::from_static(b"2"))).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(Block::decode(Bytes::from_static(b"")).is_err());
        assert!(Block::decode(Bytes::from_static(&[0, 0, 0, 0])).is_err());
        let block = build(&[("a", Some("1"))], 16);
        let mut data = block.data.to_vec();
        // Truncate mid-entry but keep a plausible trailer.
        data[0] = 200; // shared length nonsense
        let tampered = Block::decode(Bytes::from(data));
        // Either decode fails or iteration errors; both are acceptable.
        if let Ok(b) = tampered {
            assert!(b.iter().any(|r| r.is_err()));
        }
    }

    #[test]
    fn bit_rot_is_detected_by_checksum() {
        let block = build(&[("a", Some("1")), ("b", Some("2"))], 16);
        let good = {
            let mut b = BlockBuilder::new(16);
            b.add(b"a", &Entry::Put(Bytes::from_static(b"1"))).unwrap();
            b.add(b"b", &Entry::Put(Bytes::from_static(b"2"))).unwrap();
            b.finish()
        };
        // Flip each byte in turn: every corruption must be caught at decode.
        for i in 0..good.len() {
            let mut bad = good.to_vec();
            bad[i] ^= 0x01;
            assert!(
                Block::decode(Bytes::from(bad)).is_err(),
                "flipped byte {i} went undetected"
            );
        }
        let _ = block;
    }

    #[test]
    fn size_estimate_tracks_finish() {
        let mut b = BlockBuilder::new(8);
        for i in 0..20 {
            let k = format!("key{i:03}");
            b.add(k.as_bytes(), &Entry::Put(Bytes::from_static(b"v")))
                .unwrap();
        }
        let est = b.size_estimate();
        let data = b.finish();
        assert_eq!(est, data.len());
    }

    #[test]
    fn first_key_and_count() {
        let block = build(&[("aa", Some("1")), ("ab", Some("2")), ("b", Some("3"))], 2);
        assert_eq!(block.first_key().unwrap().as_ref(), b"aa");
        assert_eq!(block.count_entries(), 3);
    }

    #[test]
    fn single_entry_block() {
        let block = build(&[("only", Some("x"))], 16);
        assert_eq!(block.count_entries(), 1);
        assert_eq!(
            block
                .get(b"only")
                .unwrap()
                .unwrap()
                .value()
                .unwrap()
                .as_ref(),
            b"x"
        );
    }
}
