//! SSTable building and reading.
//!
//! An SSTable is a sequence of prefix-compressed data blocks plus pinned
//! metadata: a sparse index (first key of every block, back to back in one
//! buffer), a Bloom filter over all user keys, and key-range bounds.
//! Metadata lives in memory for every open table — as with RocksDB's pinned
//! index/filter blocks — so only data block fetches count as device I/O.
//!
//! Reads go through a [`BlockProvider`], the seam where the block cache
//! plugs in: the default provider always decodes from storage, while the
//! cache crate supplies one that consults the cache first and admits fills.

use crate::block::{Block, BlockBuilder, BlockCursor};
use crate::bloom::{hash64, BloomFilter};
use crate::error::{LsmError, Result};
use crate::heap;
use crate::options::Options;
use crate::storage::{Storage, TableSink};
use crate::types::{Entry, FileId, Key, KeyEntry};
use bytes::Bytes;
use std::sync::Arc;

/// Pinned, immutable metadata for one SSTable.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// File id; doubles as the recency priority among Level-0 runs.
    pub id: FileId,
    /// Number of data blocks.
    pub num_blocks: u32,
    /// Number of entries across all blocks (tombstones included).
    pub num_entries: u64,
    /// Total encoded bytes of all data blocks.
    pub total_bytes: u64,
    /// Smallest user key in the table.
    pub smallest: Key,
    /// Largest user key in the table.
    pub largest: Key,
    /// First key of each block, for binary-searched block routing.
    pub index: BlockIndex,
    /// Per-table Bloom filter over all user keys.
    pub bloom: BloomFilter,
}

impl TableMeta {
    /// Whether `key` falls inside this table's key range.
    pub fn key_in_range(&self, key: &[u8]) -> bool {
        self.smallest.as_ref() <= key && key <= self.largest.as_ref()
    }

    /// Whether the table's range overlaps `[start, end]` (inclusive bounds;
    /// `end = None` means unbounded above).
    pub fn overlaps(&self, start: &[u8], end: Option<&[u8]>) -> bool {
        let below = match end {
            Some(e) => self.smallest.as_ref() <= e,
            None => true,
        };
        below && self.largest.as_ref() >= start
    }

    /// The block that could contain `key`: the rightmost block whose first
    /// key is `<= key`. Returns `None` when `key` precedes the table.
    pub fn block_for_key(&self, key: &[u8]) -> Option<u32> {
        let pp = self.index.partition_point(|first| first <= key);
        if pp == 0 {
            None
        } else {
            Some((pp - 1) as u32)
        }
    }

    /// Serializes the metadata for persistence alongside the blocks.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.num_blocks.to_le_bytes());
        out.extend_from_slice(&self.num_entries.to_le_bytes());
        out.extend_from_slice(&self.total_bytes.to_le_bytes());
        let put_bytes = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        };
        put_bytes(&mut out, &self.smallest);
        put_bytes(&mut out, &self.largest);
        for i in 0..self.index.len() {
            put_bytes(&mut out, self.index.key(i));
        }
        self.bloom.encode(&mut out);
        Bytes::from(out)
    }

    /// Deserializes metadata previously written by [`TableMeta::encode`].
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > data.len() {
                return Err(LsmError::Corruption("table meta truncated".into()));
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let id = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let num_blocks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let num_entries = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let total_bytes = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let take_bytes = |pos: &mut usize| -> Result<&[u8]> {
            let len = u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()) as usize;
            take(pos, len)
        };
        let smallest = Bytes::copy_from_slice(take_bytes(&mut pos)?);
        let largest = Bytes::copy_from_slice(take_bytes(&mut pos)?);
        let mut index = BlockIndex::default();
        for _ in 0..num_blocks {
            index.push(take_bytes(&mut pos)?);
        }
        index.shrink_to_fit();
        let (bloom, _used) = BloomFilter::decode(&data[pos..])
            .ok_or_else(|| LsmError::Corruption("table meta bloom truncated".into()))?;
        Ok(TableMeta {
            id,
            num_blocks,
            num_entries,
            total_bytes,
            smallest,
            largest,
            index,
            bloom,
        })
    }
}

/// The first key of every block of a table, back to back in one buffer,
/// with the end offset of each: 28 bytes a block for 24-byte keys, where a
/// [`Bytes`] per key took 80. Searched in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockIndex {
    keys: Vec<u8>,
    /// `ends[i]` is where block `i`'s first key ends in `keys`.
    ends: Vec<u32>,
}

impl BlockIndex {
    /// Appends the first key of the next block.
    pub(crate) fn push(&mut self, first_key: &[u8]) {
        self.keys.extend_from_slice(first_key);
        let end = u32::try_from(self.keys.len()).expect("block index under 4 GiB");
        self.ends.push(end);
    }

    /// Heap bytes of the index: its key buffer and its offsets.
    pub fn heap_bytes(&self) -> usize {
        heap::vec(&self.keys) + heap::vec(&self.ends)
    }

    /// Number of blocks indexed.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no block is indexed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// First key of block `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.keys[start..self.ends[i] as usize]
    }

    /// The number of leading blocks whose first key satisfies `pred`, which
    /// must hold for a prefix of the blocks and for no block after it (as
    /// [`slice::partition_point`]).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// Source of decoded data blocks; the block cache's integration point.
pub trait BlockProvider: Send + Sync {
    /// Returns the decoded block `(table, block_no)`, fetching from storage
    /// on a cache miss. Implementations decide admission.
    fn block(&self, meta: &TableMeta, block_no: u32, storage: &dyn Storage) -> Result<Arc<Block>>;

    /// Notifies the provider that `files` were deleted by a compaction, so
    /// block-granularity state tied to those files must be invalidated.
    fn invalidate_files(&self, _files: &[FileId]) {}
}

/// [`Block::decode`] of a block as stored on the device, with the block's
/// address stamped into any corruption error, so quarantine bookkeeping and
/// fault journals can name the damaged block instead of an anonymous
/// payload.
pub fn decode_stored_block_at(file: FileId, block_no: u32, stored: Bytes) -> Result<Block> {
    Block::decode(stored).map_err(|e| match e {
        crate::error::LsmError::Corruption(msg) => {
            crate::error::LsmError::Corruption(format!("table {file} block {block_no}: {msg}"))
        }
        other => other,
    })
}

/// Provider that always fetches from storage: the no-block-cache baseline.
#[derive(Debug, Default)]
pub struct DirectProvider;

impl BlockProvider for DirectProvider {
    fn block(&self, meta: &TableMeta, block_no: u32, storage: &dyn Storage) -> Result<Arc<Block>> {
        let stored = storage.read_block(meta.id, block_no)?;
        Ok(Arc::new(decode_stored_block_at(meta.id, block_no, stored)?))
    }
}

/// Bloom filter bits per key (paper: 10).
const BLOOM_BITS_PER_KEY: usize = 10;

/// Builds one SSTable, cutting blocks at the configured size and handing
/// each to the table's [`TableSink`] as it is cut.
///
/// Keeps nothing per entry but its [`hash64`] for the Bloom filter, and
/// nothing per block but its first key in the index: the last key added
/// lives in one reusable buffer, and the blocks themselves are the sink's.
/// Over [`crate::FileStorage`] a build therefore holds one block, not the
/// table.
pub struct TableBuilder<'a> {
    id: FileId,
    opts: Options,
    sink: Box<dyn TableSink + 'a>,
    current: BlockBuilder,
    /// Total length of the blocks cut so far, kept as they are cut:
    /// compaction asks for the table's size after every entry.
    blocks_len: usize,
    /// First key of every block, the open one included.
    index: BlockIndex,
    hashes: Vec<u64>,
    last_key: Vec<u8>,
}

impl<'a> TableBuilder<'a> {
    /// Starts table `id` on `storage`; fails if the table exists.
    pub fn new(id: FileId, opts: &Options, storage: &'a dyn Storage) -> Result<Self> {
        Ok(TableBuilder {
            id,
            opts: opts.clone(),
            sink: storage.create_table(id)?,
            current: BlockBuilder::new(opts.block_restart_interval),
            blocks_len: 0,
            index: BlockIndex::default(),
            hashes: Vec::new(),
            last_key: Vec::new(),
        })
    }

    /// Appends `key -> value` (`None`: a tombstone) from borrowed bytes;
    /// keys must be strictly ascending across the table.
    pub fn add_value(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let opens_block = self.current.is_empty();
        self.current.add_value(key, value)?;
        if opens_block {
            self.index.push(key);
        }
        self.hashes.push(hash64(key));
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.current.size_estimate() >= self.opts.block_size {
            self.cut_block()?;
        }
        Ok(())
    }

    fn cut_block(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let builder = std::mem::replace(
            &mut self.current,
            BlockBuilder::new(self.opts.block_restart_interval),
        );
        let block = builder.finish();
        self.blocks_len += block.len();
        self.sink.append(block)
    }

    /// Estimated total encoded size so far (used by compaction to cut
    /// output tables at `sstable_size`).
    pub fn estimated_size(&self) -> usize {
        self.blocks_len + self.current.size_estimate()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Cuts the last block, completes the table with its metadata, and
    /// returns the pinned metadata.
    pub fn finish(mut self) -> Result<Arc<TableMeta>> {
        self.cut_block()?;
        if self.index.is_empty() {
            return Err(LsmError::InvalidArgument(
                "cannot finish an empty table".into(),
            ));
        }
        self.index.shrink_to_fit();
        let meta = TableMeta {
            id: self.id,
            num_blocks: self.index.len() as u32,
            num_entries: self.hashes.len() as u64,
            total_bytes: self.blocks_len as u64,
            smallest: Bytes::copy_from_slice(self.index.key(0)),
            largest: Bytes::copy_from_slice(&self.last_key),
            bloom: BloomFilter::build_hashed(&self.hashes, BLOOM_BITS_PER_KEY),
            index: self.index,
        };
        self.sink.finish(meta.encode())?;
        Ok(Arc::new(meta))
    }
}

/// Point lookup inside one table.
///
/// Returns `Ok(None)` when the table provably does not contain the key
/// (range/bloom/index negative) — without any device I/O — and otherwise
/// fetches exactly one block through the provider.
pub fn table_get(
    meta: &TableMeta,
    provider: &dyn BlockProvider,
    storage: &dyn Storage,
    key: &[u8],
) -> Result<Option<Entry>> {
    if !meta.key_in_range(key) || !meta.bloom.may_contain(key) {
        return Ok(None);
    }
    let Some(block_no) = meta.block_for_key(key) else {
        return Ok(None);
    };
    let block = provider.block(meta, block_no, storage)?;
    block.get(key)
}

/// Streaming iterator over one table starting at `from`.
///
/// Blocks are fetched lazily through the provider as the cursor crosses
/// block boundaries; creating the iterator costs at most one block fetch
/// (the seek phase of a scan, per the paper's I/O model). The iterator
/// holds the block it is in and a cursor into it, and builds a
/// [`KeyEntry`] only for an entry that [`TableIter::advance`] yields.
pub struct TableIter {
    meta: Arc<TableMeta>,
    next_block: u32,
    /// The block under the cursor; `None` once the table is exhausted.
    block: Option<Arc<Block>>,
    cursor: BlockCursor,
}

impl TableIter {
    /// Positions a cursor at the first entry with key `>= from`.
    pub fn seek(
        meta: Arc<TableMeta>,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
        from: &[u8],
    ) -> Result<Self> {
        let mut iter = TableIter {
            next_block: meta.block_for_key(from).unwrap_or(0),
            meta,
            block: None,
            cursor: BlockCursor::default(),
        };
        iter.enter_blocks(provider, storage, Some(from))?;
        Ok(iter)
    }

    /// Fetches blocks until the cursor sits on an entry (the first with key
    /// `>= from` in the first block fetched, the first entry after that) or
    /// the table ends.
    fn enter_blocks(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
        mut from: Option<&[u8]>,
    ) -> Result<()> {
        self.block = None;
        while self.next_block < self.meta.num_blocks {
            let block = provider.block(&self.meta, self.next_block, storage)?;
            self.next_block += 1;
            let on_entry = match from.take() {
                Some(f) => self.cursor.seek(&block, f)?,
                None => self.cursor.first(&block)?,
            };
            if on_entry {
                self.block = Some(block);
                break;
            }
        }
        Ok(())
    }

    /// Key of the head entry without consuming it.
    pub fn peek_key(&self) -> Option<&[u8]> {
        self.block.as_ref().map(|_| self.cursor.key())
    }

    /// Consumes and returns the head entry, moving into the next block
    /// when the current one is exhausted.
    pub fn advance(
        &mut self,
        provider: &dyn BlockProvider,
        storage: &dyn Storage,
    ) -> Result<Option<KeyEntry>> {
        let Some(block) = &self.block else {
            return Ok(None);
        };
        let head = self.cursor.key_entry(block);
        if !self.cursor.step(block)? {
            self.enter_blocks(provider, storage, None)?;
        }
        Ok(Some(head))
    }

    /// The table this cursor reads.
    pub fn table_id(&self) -> FileId {
        self.meta.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn build_table(n: usize, opts: &Options, storage: &dyn Storage) -> Arc<TableMeta> {
        let mut b = TableBuilder::new(1, opts, storage).unwrap();
        for i in 0..n {
            let k = format!("key{i:06}");
            let v = format!("value-{i}");
            b.add_value(k.as_bytes(), Some(v.as_bytes())).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn build_and_get_all_keys() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(1000, &opts, &storage);
        assert!(meta.num_blocks > 1, "should span multiple blocks");
        assert_eq!(meta.num_entries, 1000);
        assert_eq!(meta.smallest.as_ref(), b"key000000");
        assert_eq!(meta.largest.as_ref(), b"key000999");

        let p = DirectProvider;
        for i in (0..1000).step_by(37) {
            let k = format!("key{i:06}");
            let got = table_get(&meta, &p, &storage, k.as_bytes())
                .unwrap()
                .unwrap();
            assert_eq!(
                got.value().unwrap().as_ref(),
                format!("value-{i}").as_bytes()
            );
        }
        assert!(table_get(&meta, &p, &storage, b"missing")
            .unwrap()
            .is_none());
        assert!(table_get(&meta, &p, &storage, b"key9999999")
            .unwrap()
            .is_none());
    }

    #[test]
    fn bloom_and_range_skip_without_io() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(1000, &opts, &storage);
        let p = DirectProvider;
        let before = storage.stats().reads();
        // Out of range: no I/O.
        table_get(&meta, &p, &storage, b"zzz").unwrap();
        assert_eq!(storage.stats().reads(), before);
        // In range but bloom-filtered (with overwhelming probability).
        let mut skipped = 0;
        for i in 0..100 {
            let probe = format!("key{i:06}x");
            let r0 = storage.stats().reads();
            table_get(&meta, &p, &storage, probe.as_bytes()).unwrap();
            if storage.stats().reads() == r0 {
                skipped += 1;
            }
        }
        assert!(
            skipped >= 95,
            "bloom should skip nearly all absent keys, skipped={skipped}"
        );
    }

    #[test]
    fn point_lookup_reads_exactly_one_block() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(1000, &opts, &storage);
        let p = DirectProvider;
        let before = storage.stats().reads();
        table_get(&meta, &p, &storage, b"key000500")
            .unwrap()
            .unwrap();
        assert_eq!(storage.stats().reads(), before + 1);
    }

    #[test]
    fn iter_scans_across_blocks() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(500, &opts, &storage);
        let p = DirectProvider;
        let mut it = TableIter::seek(meta.clone(), &p, &storage, b"key000123").unwrap();
        let mut got = Vec::new();
        while let Some(ke) = it.advance(&p, &storage).unwrap() {
            got.push(ke.key);
            if got.len() == 300 {
                break;
            }
        }
        assert_eq!(got.len(), 300);
        assert_eq!(got[0].as_ref(), b"key000123");
        assert_eq!(got[299].as_ref(), b"key000422");
        for w in got.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn iter_seek_before_start_and_past_end() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(10, &opts, &storage);
        let p = DirectProvider;
        let mut it = TableIter::seek(meta.clone(), &p, &storage, b"a").unwrap();
        assert_eq!(
            it.advance(&p, &storage).unwrap().unwrap().key.as_ref(),
            b"key000000"
        );
        let mut it = TableIter::seek(meta, &p, &storage, b"zzz").unwrap();
        assert!(it.advance(&p, &storage).unwrap().is_none());
    }

    /// Whether `inner` lies inside `outer`'s allocation.
    fn points_into(inner: &[u8], outer: &[u8]) -> bool {
        let (start, end) = (
            outer.as_ptr() as usize,
            outer.as_ptr() as usize + outer.len(),
        );
        (start..end).contains(&(inner.as_ptr() as usize))
            && inner.as_ptr() as usize + inner.len() <= end
    }

    #[test]
    fn blocks_decode_as_views_of_the_stored_buffer() {
        let storage = MemStorage::new();
        let mut b = TableBuilder::new(1, &Options::small(), &storage).unwrap();
        for i in 0..50u64 {
            let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
            b.add_value(format!("key{i:06}").as_bytes(), Some(&v))
                .unwrap();
        }
        b.finish().unwrap();
        let stored = storage.read_block(1, 0).unwrap();
        let block = Block::decode(stored.clone()).unwrap();
        let value = block.get(b"key000001").unwrap().unwrap();
        let value = value.value().unwrap();
        assert!(points_into(value, &stored), "a block's value is a view");
        // And of the store itself: a second read is the same buffer.
        assert!(points_into(value, &storage.read_block(1, 0).unwrap()));
        let from_cursor = block.iter().next().unwrap().unwrap();
        assert!(points_into(from_cursor.entry.value().unwrap(), &stored));
    }

    #[test]
    fn meta_encode_decode_roundtrip() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(300, &opts, &storage);
        let blob = meta.encode();
        let decoded = TableMeta::decode(&blob).unwrap();
        assert_eq!(decoded.id, meta.id);
        assert_eq!(decoded.num_blocks, meta.num_blocks);
        assert_eq!(decoded.num_entries, meta.num_entries);
        assert_eq!(decoded.total_bytes, meta.total_bytes);
        assert_eq!(decoded.smallest, meta.smallest);
        assert_eq!(decoded.largest, meta.largest);
        assert_eq!(decoded.index, meta.index);
        assert!(decoded.bloom.may_contain(b"key000000"));
        // And the persisted copy in storage matches.
        let persisted = TableMeta::decode(&storage.read_meta(meta.id).unwrap()).unwrap();
        assert_eq!(persisted.index, meta.index);
    }

    #[test]
    fn estimated_size_is_the_finished_blocks_plus_the_open_one() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut b = TableBuilder::new(1, &opts, &storage).unwrap();
        let mut sizes = Vec::new();
        for i in 0..2_000 {
            let v = "x".repeat(i % 97);
            b.add_value(format!("key{i:06}").as_bytes(), Some(v.as_bytes()))
                .unwrap();
            let cut = b.index.len() - usize::from(!b.current.is_empty());
            sizes.push((cut, b.estimated_size() - b.current.size_estimate()));
        }
        let meta = b.finish().unwrap();
        assert!(meta.num_blocks > 100);
        // What was counted as finished is what the store holds.
        let stored: Vec<usize> = (0..meta.num_blocks)
            .map(|i| storage.read_block(1, i).unwrap().len())
            .collect();
        for (cut, finished) in sizes {
            assert_eq!(finished, stored[..cut].iter().sum::<usize>());
        }
    }

    #[test]
    fn block_index_roundtrips_and_routes_like_a_linear_scan() {
        // Keys of every length from 0, some sharing long prefixes.
        let mut firsts: Vec<Vec<u8>> = (0..300u32)
            .map(|i| {
                let mut k = vec![b'a'; (i % 37) as usize];
                k.extend_from_slice(&i.to_be_bytes()[(i % 4) as usize..]);
                k
            })
            .collect();
        firsts.sort();
        firsts.dedup();
        let mut index = BlockIndex::default();
        for k in &firsts {
            index.push(k);
        }
        assert_eq!(index.len(), firsts.len());
        for (i, k) in firsts.iter().enumerate() {
            assert_eq!(index.key(i), k.as_slice());
        }
        let storage = MemStorage::new();
        let mut meta = (*build_table(10, &Options::small(), &storage)).clone();
        meta.num_blocks = index.len() as u32;
        meta.index = index;
        let decoded = TableMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded.index, meta.index);
        assert_eq!(decoded.encode(), meta.encode());
        // Probes on, between, before and after the first keys.
        let mut probes: Vec<Vec<u8>> = firsts.clone();
        probes.extend(firsts.iter().map(|k| [k.as_slice(), b"\0"].concat()));
        probes.extend([vec![], vec![0xFF; 40]]);
        for probe in &probes {
            let linear = firsts
                .iter()
                .filter(|k| k.as_slice() <= probe.as_slice())
                .count();
            assert_eq!(
                meta.index.partition_point(|k| k <= probe.as_slice()),
                linear
            );
            assert_eq!(
                meta.block_for_key(probe),
                linear.checked_sub(1).map(|b| b as u32)
            );
        }
    }

    #[test]
    fn meta_decode_rejects_truncation() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(50, &opts, &storage);
        let blob = meta.encode();
        for cut in [0, 4, 10, blob.len() / 2, blob.len() - 1] {
            assert!(TableMeta::decode(&blob[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn overlap_checks() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let meta = build_table(100, &opts, &storage);
        assert!(meta.overlaps(b"key000050", Some(b"key000060")));
        assert!(meta.overlaps(b"a", None));
        assert!(meta.overlaps(b"key000099", Some(b"zzz")));
        assert!(!meta.overlaps(b"zzz", None));
        assert!(!meta.overlaps(b"a", Some(b"b")));
    }

    #[test]
    fn tombstones_roundtrip_through_tables() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut b = TableBuilder::new(9, &opts, &storage).unwrap();
        b.add_value(b"alive", Some(b"v")).unwrap();
        b.add_value(b"dead", None).unwrap();
        let meta = b.finish().unwrap();
        let p = DirectProvider;
        assert_eq!(
            table_get(&meta, &p, &storage, b"dead").unwrap(),
            Some(Entry::Tombstone)
        );
    }

    #[test]
    fn empty_table_finish_is_error() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let b = TableBuilder::new(2, &opts, &storage).unwrap();
        assert!(b.finish().is_err());
        assert!(storage.list_tables().unwrap().is_empty());
    }
}
